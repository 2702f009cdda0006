package signature

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"loom/internal/graph"
	"loom/internal/wal"
)

// paperScheme reproduces §2.1's worked example: p = 11, r(a) = 3, r(b) = 10.
func paperScheme() *Scheme {
	return NewSchemeWithValues(11, map[graph.Label]uint32{"a": 3, "b": 10})
}

// q1 is the query graph q1 of Fig. 1: a 4-cycle with alternating labels
// a-b-a-b (four a-b edges, every vertex of degree 2).
func q1(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	for v, l := range map[graph.VertexID]graph.Label{1: "a", 2: "b", 3: "a", 4: "b"} {
		if err := g.AddVertex(v, l); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 1}} {
		if err := g.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestEdgeFactorWorkedExample(t *testing.T) {
	s := paperScheme()
	// "edgeFac((a,b)) = (3 − 10) mod 11 = 7"
	if got := s.EdgeFactor("a", "b"); got != 7 {
		t.Errorf("EdgeFactor(a,b) = %d, want 7", got)
	}
	// Symmetric.
	if got := s.EdgeFactor("b", "a"); got != 7 {
		t.Errorf("EdgeFactor(b,a) = %d, want 7", got)
	}
}

func TestDegreeFactorWorkedExample(t *testing.T) {
	s := paperScheme()
	// degFac(b) for degree 2 = ((10+1) mod 11)·((10+2) mod 11) = 11·1,
	// with the zero factor (10+1 ≡ 0) replaced by p = 11 (footnote 3).
	if got := s.DegreeFactor("b", 1); got != 11 {
		t.Errorf("DegreeFactor(b,1) = %d, want 11 (0 replaced by p)", got)
	}
	if got := s.DegreeFactor("b", 2); got != 1 {
		t.Errorf("DegreeFactor(b,2) = %d, want 1", got)
	}
	// degFac(a) degree 2 = 4·5 = 20.
	if got := s.DegreeFactor("a", 1); got != 4 {
		t.Errorf("DegreeFactor(a,1) = %d, want 4", got)
	}
	if got := s.DegreeFactor("a", 2); got != 5 {
		t.Errorf("DegreeFactor(a,2) = %d, want 5", got)
	}
}

func TestSignatureOfQ1MatchesPaper(t *testing.T) {
	s := paperScheme()
	ms := s.SignatureOf(q1(t))
	// 4 edges → 12 factors.
	if ms.Len() != 12 {
		t.Fatalf("len = %d, want 12 (= 3|E|)", ms.Len())
	}
	// "The signature of q1 = 2401 · 48400 = 116208400."
	if got := Product(ms); got.Int64() != 116208400 {
		t.Errorf("Product = %v, want 116208400", got)
	}
}

func TestSingleEdgeSignatureMatchesPaper(t *testing.T) {
	s := paperScheme()
	g := graph.New()
	if err := g.AddVertex(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(2, "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	// "the signature for a-b is 7 · ((3+1) mod 11) · ((10+1) mod 11) = 308"
	if got := Product(s.SignatureOf(g)); got.Int64() != 308 {
		t.Errorf("Product(a-b) = %v, want 308", got)
	}
}

func TestIncrementalDeltaMatchesPaperABA(t *testing.T) {
	s := paperScheme()
	// Adding a second a-b edge adjacent to b (degree 1 → 2) while the new
	// a vertex has degree 0 → 1: factors 7 (edge), 4 (new a), 1 (b's
	// second degree factor). 308 · 7 · 4 · 1 = 8624.
	d := s.EdgeDelta("a", 0, "b", 1)
	want := sortDelta(Delta{7, 4, 1})
	if d != want {
		t.Errorf("EdgeDelta = %v, want %v", d, want)
	}
	base := NewMultiset(7, 4, 11) // signature of single a-b edge
	grown := base.PlusDelta(d)
	if got := Product(grown); got.Int64() != 8624 {
		t.Errorf("Product(a-b-a) = %v, want 8624", got)
	}
}

func TestIncrementalEqualsFromScratch(t *testing.T) {
	// Growing a graph edge-by-edge and summing deltas must equal the
	// from-scratch signature — the property Alg. 1 and Alg. 2 rely on.
	s := NewScheme(DefaultP, 7)
	g := q1(t)

	grown := graph.New()
	ms := NewMultiset()
	deg := map[graph.VertexID]int{}
	for _, e := range g.Edges() {
		lu, lv := g.EdgeLabels(e)
		d := s.EdgeDelta(lu, deg[e.U], lv, deg[e.V])
		ms.AddDelta(d)
		if _, err := grown.EnsureEdge(e.U, lu, e.V, lv); err != nil {
			t.Fatal(err)
		}
		deg[e.U]++
		deg[e.V]++
	}
	if !ms.Equal(s.SignatureOf(g)) {
		t.Errorf("incremental %v != from-scratch %v", ms, s.SignatureOf(g))
	}
}

func TestIsomorphismInvarianceProperty(t *testing.T) {
	// Signatures must be invariant under vertex renaming and edge
	// reordering: isomorphic graphs ALWAYS share a signature (§2.3: "the
	// manner in which signatures are executed precludes false negatives").
	f := func(seed int64, n8 uint8, extra uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(n8%12) + 2
		g := randomLabelled(r, n, int(extra%20))
		s := NewScheme(DefaultP, 99)

		// Random renaming: shift IDs by a random offset and permute.
		perm := r.Perm(n)
		ren := graph.New()
		ids := g.Vertices()
		mapping := make(map[graph.VertexID]graph.VertexID, n)
		for i, v := range ids {
			nv := graph.VertexID(1000 + perm[i])
			mapping[v] = nv
			if err := ren.AddVertex(nv, g.MustLabel(v)); err != nil {
				return false
			}
		}
		edges := g.Edges()
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			if err := ren.AddEdge(mapping[e.U], mapping[e.V]); err != nil {
				return false
			}
		}
		return s.SignatureOf(g).Equal(s.SignatureOf(ren))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDirectedEdgeFactorIsDirectional(t *testing.T) {
	s := NewSchemeWithValues(11, map[graph.Label]uint32{"a": 3, "b": 10})
	ab := s.DirectedEdgeFactor("a", "b") // (3-10) mod 11 = 4
	ba := s.DirectedEdgeFactor("b", "a") // (10-3) mod 11 = 7
	if ab != 4 || ba != 7 {
		t.Errorf("directed factors = %d,%d want 4,7", ab, ba)
	}
}

func TestSameLabelEdgeFactorIsP(t *testing.T) {
	s := NewSchemeWithValues(11, map[graph.Label]uint32{"a": 3})
	if got := s.EdgeFactor("a", "a"); got != 11 {
		t.Errorf("EdgeFactor(a,a) = %d, want p=11", got)
	}
}

func TestSchemeDeterminism(t *testing.T) {
	s1 := NewScheme(DefaultP, 42)
	s2 := NewScheme(DefaultP, 42)
	labels := []graph.Label{"x", "y", "z", "w"}
	s1.RegisterLabels(labels)
	s2.RegisterLabels([]graph.Label{"w", "z", "y", "x"}) // different call order
	for _, l := range labels {
		if s1.LabelValue(l) != s2.LabelValue(l) {
			t.Errorf("label %s: %d vs %d", l, s1.LabelValue(l), s2.LabelValue(l))
		}
	}
}

func TestLabelValueRange(t *testing.T) {
	s := NewScheme(11, 3)
	for i := 0; i < 100; i++ {
		v := s.LabelValue(graph.Label(rune('A' + i)))
		if v < 1 || v >= 11 {
			t.Fatalf("label value %d out of [1,11)", v)
		}
	}
}

// randomLabelled builds a connected random labelled graph for property
// tests.
func randomLabelled(r *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New()
	alphabet := []graph.Label{"a", "b", "c"}
	for v := 0; v < n; v++ {
		if err := g.AddVertex(graph.VertexID(v), alphabet[r.Intn(len(alphabet))]); err != nil {
			panic(err)
		}
	}
	for v := 1; v < n; v++ {
		if err := g.AddEdge(graph.VertexID(r.Intn(v)), graph.VertexID(v)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// TestSchemeStateRoundTrip: restoring an encoded state onto a fresh
// (p, seed)-identical Scheme must reproduce every assigned r-value AND
// the generator position, so labels first used after the restore draw
// exactly what the original scheme would have drawn. Values are assigned
// in first-use order, so without the fast-forward a restored scheme
// would hand post-restore labels the draws its history already consumed.
func TestSchemeStateRoundTrip(t *testing.T) {
	orig := NewScheme(DefaultP, 7)
	for _, l := range []graph.Label{"Paper", "Person", "Journal", "Venue"} {
		orig.LabelValue(l)
	}
	var e wal.Enc
	orig.AppendState(&e)
	labels, draws := binary.LittleEndian.Uint32(e.B), binary.LittleEndian.Uint32(e.B[len(e.B)-4:])
	if labels != 4 || draws != 4 {
		t.Fatalf("encoded %d labels, %d draws; want 4, 4", labels, draws)
	}

	fresh := NewScheme(DefaultP, 7)
	// The fresh scheme has its own short, different history.
	fresh.LabelValue("Paper")
	d := wal.NewDec(e.B)
	if err := fresh.RestoreState(d); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("restore left %d bytes of the section unread", d.Remaining())
	}
	for _, l := range []graph.Label{"Paper", "Person", "Journal", "Venue"} {
		if got, want := fresh.LabelValue(l), orig.LabelValue(l); got != want {
			t.Fatalf("restored r(%s) = %d, original %d", l, got, want)
		}
	}
	// Labels first used after the restore must draw the same values the
	// original draws for them.
	for _, l := range []graph.Label{"Year", "Topic", "Institution"} {
		if got, want := fresh.LabelValue(l), orig.LabelValue(l); got != want {
			t.Fatalf("post-restore r(%s) = %d, original %d", l, got, want)
		}
	}
}

// TestSchemeStateRejectsBadValues: out-of-range values, duplicate labels,
// a section cut short of its values and a draw count past the label
// count are restore-time errors, not latent state.
func TestSchemeStateRejectsBadValues(t *testing.T) {
	// section encodes a label count, then each label with the value at the
	// same index while there is one, then the draw count.
	section := func(labels []string, values []uint32, draws uint32) []byte {
		var e wal.Enc
		e.U32(uint32(len(labels)))
		for i, l := range labels {
			e.Str(l)
			if i < len(values) {
				e.U32(values[i])
			}
		}
		e.U32(draws)
		return e.B
	}
	s := NewScheme(11, 1)
	for _, b := range [][]byte{
		section([]string{"a"}, []uint32{0}, 0),
		section([]string{"a"}, []uint32{11}, 0),
		section([]string{"a", "a"}, []uint32{3, 4}, 0),
		section([]string{"a", "b"}, []uint32{3}, 0),
		section([]string{"a"}, []uint32{3}, ^uint32(0)), // -1 as written
	} {
		if err := s.RestoreState(wal.NewDec(b)); err == nil {
			t.Fatalf("RestoreState(% x): want error", b)
		}
	}
	// A rejected restore must not have clobbered the scheme.
	if v := s.LabelValue("a"); v < 1 || v >= 11 {
		t.Fatalf("scheme unusable after rejected restore: r(a) = %d", v)
	}
}
