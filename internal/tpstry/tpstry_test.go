package tpstry

import (
	"math/rand"
	"testing"
	"testing/quick"

	"loom/internal/graph"
	"loom/internal/pattern"
	"loom/internal/signature"
)

// fig1Workload builds the workload Q of Fig. 1:
//
//	q1 (30%): the 4-cycle a-b-a-b
//	q2 (60%): the path a-b-c
//	q3 (10%): the path a-b-c-d
func fig1Workload(t testing.TB, trie *Trie) {
	t.Helper()
	if err := trie.AddQuery(pattern.Cycle("a", "b", "a", "b"), 0.30); err != nil {
		t.Fatal(err)
	}
	if err := trie.AddQuery(pattern.Path("a", "b", "c"), 0.60); err != nil {
		t.Fatal(err)
	}
	if err := trie.AddQuery(pattern.Path("a", "b", "c", "d"), 0.10); err != nil {
		t.Fatal(err)
	}
}

func newTrie() *Trie {
	return New(signature.NewScheme(signature.DefaultP, 17))
}

func supportOfGraph(t *Trie, g *graph.Graph) (float64, bool) {
	n, ok := t.NodeBySignature(t.Scheme().SignatureOf(g))
	if !ok {
		return 0, false
	}
	return t.SupportOf(n), true
}

func TestFig1WorkloadSupports(t *testing.T) {
	trie := newTrie()
	fig1Workload(t, trie)

	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"a-b", pattern.Path("a", "b"), 1.00}, // in every query
		{"b-c", pattern.Path("b", "c"), 0.70}, // q2 + q3
		{"c-d", pattern.Path("c", "d"), 0.10}, // q3 only: the "low support node"
		{"a-b-c", pattern.Path("a", "b", "c"), 0.70},
		{"a-b-a", pattern.Path("a", "b", "a"), 0.30}, // q1 only
		{"b-a-b", pattern.Path("b", "a", "b"), 0.30}, // q1 only
		{"b-c-d", pattern.Path("b", "c", "d"), 0.10},
		{"a-b-c-d", pattern.Path("a", "b", "c", "d"), 0.10},
		{"cycle", pattern.Cycle("a", "b", "a", "b"), 0.30},
	}
	for _, c := range cases {
		got, ok := supportOfGraph(trie, c.g)
		if !ok {
			t.Errorf("%s: node missing from trie", c.name)
			continue
		}
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: support = %.3f, want %.3f", c.name, got, c.want)
		}
	}
}

func TestFig1MotifsAtPaperThreshold(t *testing.T) {
	// "for T = 40%, Q's motifs are the shaded nodes in Fig. 2":
	// exactly a-b, b-c and a-b-c given this workload.
	trie := newTrie()
	fig1Workload(t, trie)
	motifs := trie.Motifs(0.40)
	if len(motifs) != 3 {
		t.Fatalf("motifs = %d (%v), want 3", len(motifs), motifs)
	}
	for _, m := range motifs {
		sup := trie.SupportOf(m)
		if sup < 0.40 {
			t.Errorf("motif %v has support %.2f < T", m, sup)
		}
	}
	if got := trie.MaxMotifEdges(0.40); got != 2 {
		t.Errorf("MaxMotifEdges = %d, want 2 (a-b-c)", got)
	}
}

func TestDAGNodeHasTwoParents(t *testing.T) {
	// Fig. 2: "the graph in node a-b-a-b can be produced in two ways, by
	// adding a single a-b edge to either of the sub-graphs b-a-b and
	// a-b-a" — the 3-edge path must have two distinct parents.
	trie := newTrie()
	if err := trie.AddQuery(pattern.Cycle("a", "b", "a", "b"), 1); err != nil {
		t.Fatal(err)
	}
	n, ok := trie.NodeBySignature(trie.Scheme().SignatureOf(pattern.Path("a", "b", "a", "b")))
	if !ok {
		t.Fatal("3-edge path node missing")
	}
	if len(n.Parents()) != 2 {
		t.Fatalf("parents = %d (%v), want 2", len(n.Parents()), n.Parents())
	}
	// And the parents are the two 2-edge paths.
	aba, _ := trie.NodeBySignature(trie.Scheme().SignatureOf(pattern.Path("a", "b", "a")))
	bab, _ := trie.NodeBySignature(trie.Scheme().SignatureOf(pattern.Path("b", "a", "b")))
	seen := map[*Node]bool{}
	for _, p := range n.Parents() {
		seen[p] = true
	}
	if !seen[aba] || !seen[bab] {
		t.Errorf("parents = %v, want {a-b-a, b-a-b}", n.Parents())
	}
}

func TestTrieNodeCountsForCycle(t *testing.T) {
	// Connected sub-graphs of the a-b-a-b 4-cycle up to isomorphism:
	// a-b, a-b-a, b-a-b, a-b-a-b (path), and the cycle itself = 5 nodes.
	trie := newTrie()
	if err := trie.AddQuery(pattern.Cycle("a", "b", "a", "b"), 1); err != nil {
		t.Fatal(err)
	}
	if trie.Size() != 5 {
		t.Fatalf("Size = %d, want 5: %v", trie.Size(), trie.Nodes())
	}
	// All of them are motifs at any threshold <= 1 (single query).
	if got := len(trie.Motifs(1.0)); got != 5 {
		t.Errorf("motifs at T=1 = %d, want 5", got)
	}
}

func TestTrieSignaturesMatchFromScratch(t *testing.T) {
	// Every node's signature must equal the from-scratch signature of its
	// representative graph — the incremental construction is exact.
	trie := newTrie()
	fig1Workload(t, trie)
	for _, n := range trie.Nodes() {
		fresh := trie.Scheme().SignatureOf(n.Rep)
		if !n.Sig.Equal(fresh) {
			t.Errorf("node %v: incremental sig %v != fresh %v", n, n.Sig, fresh)
		}
		if n.Rep.NumEdges() != n.Edges {
			t.Errorf("node %v: Edges=%d but rep has %d", n, n.Edges, n.Rep.NumEdges())
		}
	}
}

func TestSupportMonotonicity(t *testing.T) {
	trie := newTrie()
	fig1Workload(t, trie)
	var check func(n *Node)
	check = func(n *Node) {
		for _, c := range n.Children() {
			if n != trie.Root() && trie.SupportOf(c) > trie.SupportOf(n)+1e-9 {
				t.Errorf("child %v support %.3f > parent %v support %.3f",
					c, trie.SupportOf(c), n, trie.SupportOf(n))
			}
			check(c)
		}
	}
	check(trie.Root())
}

func TestMotifDownwardClosure(t *testing.T) {
	trie := newTrie()
	fig1Workload(t, trie)
	for _, thr := range []float64{0.05, 0.25, 0.40, 0.65, 1.0} {
		for _, m := range trie.Motifs(thr) {
			for _, p := range m.Parents() {
				if p == trie.Root() {
					continue
				}
				if !trie.IsMotif(p, thr) {
					t.Errorf("T=%.2f: motif %v has non-motif parent %v", thr, m, p)
				}
			}
		}
	}
}

func TestChildByDeltaAgreesWithStreamSideComputation(t *testing.T) {
	// Simulate what the matcher does: grow a-b into a-b-c by computing
	// the delta on the "stream" side and following the trie link.
	trie := newTrie()
	fig1Workload(t, trie)
	s := trie.Scheme()

	ab, ok := trie.NodeBySignature(s.SignatureOf(pattern.Path("a", "b")))
	if !ok {
		t.Fatal("a-b node missing")
	}
	// Stream sub-graph: single edge u(a)-v(b); new edge v(b)-w(c): b has
	// degree 1 already, c is fresh.
	d := s.EdgeDelta("b", 1, "c", 0)
	child, ok := ab.ChildByDelta(d)
	if !ok {
		t.Fatal("no child along b+c delta")
	}
	abc, _ := trie.NodeBySignature(s.SignatureOf(pattern.Path("a", "b", "c")))
	if child != abc {
		t.Errorf("ChildByDelta = %v, want a-b-c node %v", child, abc)
	}
	// A delta that corresponds to no extension of a-b in Q.
	if _, ok := ab.ChildByDelta(s.EdgeDelta("d", 3, "d", 5)); ok {
		t.Error("unexpected child for foreign delta")
	}
}

func TestAddQueryValidation(t *testing.T) {
	trie := newTrie()
	if err := trie.AddQuery(pattern.Path("a", "b"), 0); err == nil {
		t.Error("zero frequency: want error")
	}
	if err := trie.AddQuery(pattern.Path("a", "b"), -1); err == nil {
		t.Error("negative frequency: want error")
	}
	empty := graph.New()
	if err := empty.AddVertex(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := trie.AddQuery(empty, 1); err == nil {
		t.Error("edgeless query: want error")
	}
	dir := graph.NewDirected()
	if err := dir.AddVertex(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := dir.AddVertex(2, "b"); err != nil {
		t.Fatal(err)
	}
	if err := dir.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := trie.AddQuery(dir, 1); err == nil {
		t.Error("directed query: want error")
	}
}

func TestIncrementalWorkloadUpdate(t *testing.T) {
	// §2: the trie "may be trivially updated given an evolving workload".
	trie := newTrie()
	if err := trie.AddQuery(pattern.Path("a", "b", "c"), 1); err != nil {
		t.Fatal(err)
	}
	sup1, _ := supportOfGraph(trie, pattern.Path("a", "b"))
	if sup1 != 1.0 {
		t.Fatalf("support after 1 query = %v, want 1", sup1)
	}
	if err := trie.AddQuery(pattern.Path("c", "d"), 3); err != nil {
		t.Fatal(err)
	}
	// a-b now appears in 1 of 4 weight units.
	sup2, _ := supportOfGraph(trie, pattern.Path("a", "b"))
	if diff := sup2 - 0.25; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("support after update = %v, want 0.25", sup2)
	}
	if len(trie.Queries()) != 2 {
		t.Error("Queries() should record both entries")
	}
}

func TestRepGraphsAreIsomorphicToTheirClass(t *testing.T) {
	// Node dedup by signature must put isomorphic sub-graphs in one node:
	// inserting a-b-c and c-b-a separately yields a single 2-edge node
	// (§2.1's motivating requirement), whose rep matches both.
	trie := newTrie()
	if err := trie.AddQuery(pattern.Path("a", "b", "c"), 1); err != nil {
		t.Fatal(err)
	}
	if err := trie.AddQuery(pattern.Path("c", "b", "a"), 1); err != nil {
		t.Fatal(err)
	}
	n, ok := trie.NodeBySignature(trie.Scheme().SignatureOf(pattern.Path("a", "b", "c")))
	if !ok {
		t.Fatal("a-b-c node missing")
	}
	if got := trie.SupportOf(n); got != 1.0 {
		t.Errorf("support = %v, want 1.0 (both queries contain it)", got)
	}
	if !pattern.Isomorphic(n.Rep, pattern.Path("a", "b", "c")) {
		t.Error("rep not isomorphic to a-b-c")
	}
	// Trie size: a-b, b-c, a-b-c = 3 nodes, not 6.
	if trie.Size() != 3 {
		t.Errorf("Size = %d, want 3 (isomorphic dedup)", trie.Size())
	}
}

// TestSupportMatchesOracleProperty: on random path workloads of up to five
// edges, the trie holds one node per distinct sub-graph signature, and each
// node's support weight equals the exact oracle — Σ freq over the queries
// that have a connected sub-graph with the node's signature, found by brute
// force over edge subsets. (Support is not anti-monotone along trie edges in
// general: see TestSignatureCollisionNonIsomorphicPaths.)
func TestSupportMatchesOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		trie := New(signature.NewScheme(signature.DefaultP, seed))
		alphabet := []graph.Label{"a", "b", "c"}
		want := map[string]float64{} // signature key → oracle support weight
		nq := 1 + r.Intn(4)
		for i := 0; i < nq; i++ {
			labels := make([]graph.Label, 2+r.Intn(5))
			for j := range labels {
				labels[j] = alphabet[r.Intn(len(alphabet))]
			}
			q := pattern.Path(labels...)
			freq := float64(1 + r.Intn(5))
			if err := trie.AddQuery(q, freq); err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return false
			}
			for key := range subgraphSignatures(trie.Scheme(), q) {
				want[key] += freq
			}
		}
		nodes := trie.Nodes()
		if len(nodes) != len(want) {
			t.Logf("seed %d: trie has %d nodes, oracle %d signatures", seed, len(nodes), len(want))
			return false
		}
		for _, n := range nodes {
			if w, ok := want[n.Sig.Key()]; !ok || w != n.SupportWeight() {
				t.Logf("seed %d: node %v support weight %v, oracle %v (known %v)", seed, n, n.SupportWeight(), w, ok)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// subgraphSignatures returns the signature keys of every connected
// sub-graph of q, by brute force over its edge subsets.
func subgraphSignatures(s *signature.Scheme, q *graph.Graph) map[string]bool {
	edges := q.Edges()
	out := map[string]bool{}
	for mask := 1; mask < 1<<len(edges); mask++ {
		var sub []graph.Edge
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				sub = append(sub, e)
			}
		}
		if g := graph.InducedSubgraph(q, sub); graph.IsConnected(g) {
			out[s.SignatureOf(g).Key()] = true
		}
	}
	return out
}

// TestSignatureCollisionNonIsomorphicPaths pins a structural signature
// collision: the labelled paths a–c–b–a–b and a–b–a–c–b have the same
// edge-label pairs and the same (label, degree) multiset, so they share a
// signature at every prime although they are not isomorphic. A trie node
// therefore stands for a signature class, and a query containing only one
// member of the class credits the node of the other — which is how a child
// can out-support its parent.
func TestSignatureCollisionNonIsomorphicPaths(t *testing.T) {
	x := pattern.Path("a", "c", "b", "a", "b")
	y := pattern.Path("a", "b", "a", "c", "b")
	if pattern.Isomorphic(x, y) {
		t.Fatal("the two paths are isomorphic; the collision case is void")
	}
	for _, p := range []uint32{signature.DefaultP, 1_048_573} {
		s := signature.NewScheme(p, 17)
		if !s.SignatureOf(x).Equal(s.SignatureOf(y)) {
			t.Errorf("p=%d: signatures differ", p)
		}
	}
}

func TestTrieGrowsModestly(t *testing.T) {
	// §2: "the trie is a relatively compact structure, as it grows with
	// |LV|^t". A 6-edge path over 2 labels must stay tiny.
	trie := newTrie()
	if err := trie.AddQuery(pattern.Path("a", "b", "a", "b", "a", "b", "a"), 1); err != nil {
		t.Fatal(err)
	}
	if trie.Size() > 40 {
		t.Errorf("trie size %d unexpectedly large", trie.Size())
	}
}
