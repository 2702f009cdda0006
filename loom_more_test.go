package loom_test

import (
	"strings"
	"testing"

	"loom"
)

// ---------------------------------------------------------------------------
// OrderStream error paths.
// ---------------------------------------------------------------------------

func orderableStream() []loom.StreamEdge {
	return []loom.StreamEdge{
		{U: 1, LU: "a", V: 2, LV: "b"},
		{U: 2, LU: "b", V: 3, LV: "a"},
		{U: 3, LU: "a", V: 4, LV: "b"},
	}
}

func TestOrderStreamUnknownOrder(t *testing.T) {
	if _, err := loom.OrderStream(orderableStream(), "zigzag", 1); err == nil {
		t.Fatal("unknown order: want error")
	} else if !strings.Contains(err.Error(), "zigzag") {
		t.Errorf("error should name the bad order, got %v", err)
	}
}

func TestOrderStreamInvalidGraph(t *testing.T) {
	// Vertex 1 appears with two different labels: not a valid labelled
	// graph (fl is a function), so ordering must fail.
	bad := []loom.StreamEdge{
		{U: 1, LU: "a", V: 2, LV: "b"},
		{U: 1, LU: "c", V: 3, LV: "b"},
	}
	if _, err := loom.OrderStream(bad, "bfs", 1); err == nil {
		t.Fatal("label conflict: want error")
	}
}

func TestOrderStreamValidOrders(t *testing.T) {
	in := orderableStream()
	for _, order := range []string{"bfs", "dfs", "random", "original"} {
		out, err := loom.OrderStream(in, order, 42)
		if err != nil {
			t.Fatalf("%s: %v", order, err)
		}
		if len(out) != len(in) {
			t.Errorf("%s: %d edges out, want %d", order, len(out), len(in))
		}
	}
}

// ---------------------------------------------------------------------------
// NewBaseline / New error paths.
// ---------------------------------------------------------------------------

func TestNewBaselineUnknownAlgo(t *testing.T) {
	opt := loom.Options{Partitions: 2, ExpectedVertices: 10}
	if _, err := loom.NewBaseline("metis", opt, nil); err == nil {
		t.Fatal("unknown baseline: want error")
	} else if !strings.Contains(err.Error(), "metis") {
		t.Errorf("error should name the bad algo, got %v", err)
	}
}

func TestNewBaselineInvalidOptions(t *testing.T) {
	if _, err := loom.NewBaseline("hash", loom.Options{Partitions: 0, ExpectedVertices: 10}, nil); err == nil {
		t.Error("Partitions=0: want error")
	}
	if _, err := loom.NewBaseline("ldg", loom.Options{Partitions: 2, ExpectedVertices: 0}, nil); err == nil {
		t.Error("ExpectedVertices=0: want error")
	}
}

func TestNewBaselineValidAlgos(t *testing.T) {
	opt := loom.Options{Partitions: 2, ExpectedVertices: 10}
	for _, algo := range []string{"hash", "ldg", "fennel"} {
		p, err := loom.NewBaseline(algo, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if p.Name() != algo {
			t.Errorf("Name() = %q, want %q", p.Name(), algo)
		}
	}
}

// TestFennelHonoursMaxImbalance: the fennel baseline sizes its capacity
// ν·n/k from Options.MaxImbalance, so a tight ν bounds the final imbalance
// on a stream that fills partitions to the cap.
func TestFennelHonoursMaxImbalance(t *testing.T) {
	edges := concurrencyStream(t, 3000)
	n := distinctVertices(edges)
	p, err := loom.NewBaseline("fennel", loom.Options{Partitions: 8, ExpectedVertices: n, MaxImbalance: 1.02}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddBatch(edges); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if snap.NumAssigned() != n {
		t.Fatalf("assigned %d of %d vertices", snap.NumAssigned(), n)
	}
	if imb := snap.Imbalance(); imb > 0.02+1e-9 {
		t.Errorf("fennel imbalance %.4f at MaxImbalance 1.02, want <= 0.02", imb)
	}
}

func TestNewRequiresWorkload(t *testing.T) {
	opt := loom.Options{Partitions: 2, ExpectedVertices: 10}
	if _, err := loom.New(opt, nil); err == nil {
		t.Error("nil workload: want error")
	}
	if _, err := loom.New(opt, loom.NewWorkload("empty")); err == nil {
		t.Error("empty workload: want error")
	}
}

// A baseline without a workload must refuse workload-dependent operations
// rather than crash.
func TestBaselineWithoutWorkloadRefusesEvaluate(t *testing.T) {
	p, err := loom.NewBaseline("hash", loom.Options{Partitions: 2, ExpectedVertices: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.AddEdge(1, "a", 2, "b")
	p.Flush()
	if _, err := p.Evaluate(); err == nil {
		t.Error("Evaluate without workload: want error")
	}
	if err := p.AddQuery("q", loom.Path("a", "b"), 1); err == nil {
		t.Error("AddQuery on baseline: want error")
	}
}
