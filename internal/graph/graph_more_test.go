package graph

import (
	"math/rand"
	"strings"
	"testing"
)

func TestLabelHistogram(t *testing.T) {
	g := fig1Graph(t)
	h := g.LabelHistogram()
	if h["a"] != 2 || h["b"] != 2 || h["c"] != 2 || h["d"] != 2 {
		t.Errorf("histogram = %v", h)
	}
}

func TestGraphString(t *testing.T) {
	g := fig1Graph(t)
	s := g.String()
	if !strings.Contains(s, "|V|=8") || !strings.Contains(s, "|E|=10") || !strings.Contains(s, "undirected") {
		t.Errorf("String = %q", s)
	}
	d := NewDirected()
	if !strings.Contains(d.String(), "directed") {
		t.Errorf("String = %q", d.String())
	}
}

func TestEdgeString(t *testing.T) {
	if got := (Edge{U: 3, V: 7}).String(); got != "(3,7)" {
		t.Errorf("Edge.String = %q", got)
	}
	se := StreamEdge{U: 1, LU: "a", V: 2, LV: "b"}
	if got := se.String(); !strings.Contains(got, "1:a") || !strings.Contains(got, "2:b") {
		t.Errorf("StreamEdge.String = %q", got)
	}
}

func TestMustLabelPanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Error("MustLabel on missing vertex should panic")
		}
	}()
	g.MustLabel(42)
}

func TestStreamOfUnknownOrderPanics(t *testing.T) {
	g := fig1Graph(t)
	defer func() {
		if recover() == nil {
			t.Error("unknown order should panic")
		}
	}()
	StreamOf(g, "zigzag", nil)
}

func TestStreamOfRandomWithoutRNGPanics(t *testing.T) {
	g := fig1Graph(t)
	defer func() {
		if recover() == nil {
			t.Error("OrderRandom without rng should panic")
		}
	}()
	StreamOf(g, OrderRandom, nil)
}

func TestDirectedConnectedComponents(t *testing.T) {
	// Directed edges 1→2, 3→2: weakly connected as one component.
	g := NewDirected()
	for v, l := range map[VertexID]Label{1: "a", 2: "b", 3: "c"} {
		if err := g.AddVertex(v, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(3, 2); err != nil {
		t.Fatal(err)
	}
	comps := ConnectedComponents(g)
	if len(comps) != 1 {
		t.Errorf("weak components = %d, want 1", len(comps))
	}
}

func TestOrdersHelper(t *testing.T) {
	orders := Orders()
	if len(orders) != 3 {
		t.Fatalf("Orders = %v", orders)
	}
	seen := map[StreamOrder]bool{}
	for _, o := range orders {
		seen[o] = true
	}
	if !seen[OrderRandom] || !seen[OrderBFS] || !seen[OrderDFS] {
		t.Errorf("Orders = %v", orders)
	}
}

func TestBFSAndDFSOnDisconnectedGraph(t *testing.T) {
	g := New()
	for v := VertexID(1); v <= 6; v++ {
		if err := g.AddVertex(v, "a"); err != nil {
			t.Fatal(err)
		}
	}
	// Two components: 1-2-3 and 4-5-6.
	for _, e := range []Edge{{1, 2}, {2, 3}, {4, 5}, {5, 6}} {
		if err := g.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	for _, order := range []StreamOrder{OrderBFS, OrderDFS} {
		s := StreamOf(g, order, nil)
		if len(s) != 4 {
			t.Errorf("%s: %d edges, want 4 (both components)", order, len(s))
		}
	}
}

func TestBuildGraphLabelConflict(t *testing.T) {
	s := Stream{
		{U: 1, LU: "a", V: 2, LV: "b"},
		{U: 1, LU: "z", V: 3, LV: "c"},
	}
	if _, err := BuildGraph(s); err == nil {
		t.Error("label conflict: want error")
	}
}

func TestEnsureEdgeIdempotentUnderNoise(t *testing.T) {
	// Replaying a noisy stream (duplicates both directions, self-loops)
	// yields a clean simple graph.
	g := New()
	noisy := Stream{
		{U: 1, LU: "a", V: 2, LV: "b"},
		{U: 2, LU: "b", V: 1, LV: "a"},
		{U: 1, LU: "a", V: 1, LV: "a"},
		{U: 1, LU: "a", V: 2, LV: "b"},
		{U: 2, LU: "b", V: 3, LV: "c"},
	}
	for _, se := range noisy {
		if _, err := g.EnsureEdge(se.U, se.LU, se.V, se.LV); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumEdges() != 2 || g.NumVertices() != 3 {
		t.Errorf("noisy replay: %v", g)
	}
}

func TestInNeighborsUndirected(t *testing.T) {
	g := fig1Graph(t)
	// For undirected graphs InNeighbors falls back to the adjacency.
	in := g.InNeighbors(2)
	if len(in) != g.Degree(2) {
		t.Errorf("InNeighbors undirected = %v", in)
	}
}

func TestLargeRandomGraphOrderingsTerminate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 3000, 6000)
	for _, order := range []StreamOrder{OrderBFS, OrderDFS} {
		s := StreamOf(g, order, nil)
		if len(s) != g.NumEdges() {
			t.Fatalf("%s: %d != %d", order, len(s), g.NumEdges())
		}
	}
}

// TestDenseReadsAgreeWithIDReads checks the dense-index accessors against
// the external-ID ones on a graph large enough to compress adjacency
// blocks.
func TestDenseReadsAgreeWithIDReads(t *testing.T) {
	g := New()
	r := rand.New(rand.NewSource(3))
	labels := []Label{"a", "b", "c"}
	for i := 0; i < 400; i++ {
		u, v := VertexID(r.Intn(10)*11), VertexID(r.Intn(200)*11)
		if _, err := g.EnsureEdge(u, labels[int(u)%3], v, labels[int(v)%3]); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := g.LabelCodeOf("z"); ok {
		t.Error("LabelCodeOf(unused label) reports a code")
	}
	ids := g.IDs()
	if len(ids) != g.NumVertices() {
		t.Fatalf("IDs has %d entries, want %d", len(ids), g.NumVertices())
	}
	var nbrIdx []uint32
	for i, id := range ids {
		v := VertexID(id)
		if code, ok := g.LabelCodeOf(g.MustLabel(v)); !ok || code != g.LabelCode(uint32(i)) {
			t.Errorf("vertex %d: LabelCode %d, LabelCodeOf(%q) = %d, %v", v, g.LabelCode(uint32(i)), g.MustLabel(v), code, ok)
		}
		nbrIdx = g.AppendNeighborIdx(uint32(i), nbrIdx[:0])
		want := g.Neighbors(v, nil)
		if len(nbrIdx) != len(want) {
			t.Fatalf("vertex %d: %d dense neighbours, want %d", v, len(nbrIdx), len(want))
		}
		for j, n := range nbrIdx {
			if VertexID(ids[n]) != want[j] {
				t.Errorf("vertex %d: neighbour %d is %d, want %d", v, j, ids[n], want[j])
			}
		}
	}
}
