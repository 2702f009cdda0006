package bench

import (
	"bytes"
	"strings"
	"testing"

	"loom/internal/graph"
)

// smallCfg keeps unit tests fast; the full-scale runs are cmd/loom-bench's.
func smallCfg() Config {
	return Config{
		Scale:      2500,
		Seed:       7,
		K:          4,
		WindowSize: 256,
		Datasets:   []string{"provgen"},
	}
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(Config{Scale: 1500, Datasets: []string{"dblp"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.LabelsGen != r.Info.Labels {
			t.Errorf("%s: generated %d labels, catalogue says %d", r.Info.Name, r.LabelsGen, r.Info.Labels)
		}
		if r.Vertices == 0 || r.Edges == 0 {
			t.Errorf("%s: empty graph", r.Info.Name)
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "musicbrainz") {
		t.Error("render missing dataset row")
	}
}

func TestRunFig4(t *testing.T) {
	pts := RunFig4()
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// 3 tolerances × 3 sizes × #primes(317)=66.
	if len(pts) != 3*3*66 {
		t.Errorf("points = %d, want %d", len(pts), 3*3*66)
	}
	var buf bytes.Buffer
	RenderFig4(&buf, pts)
	out := buf.String()
	if !strings.Contains(out, "p=251") || !strings.Contains(out, "tolerance 5%") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestRunIPTGridShape(t *testing.T) {
	cells, err := RunIPTGrid(smallCfg(), []graph.StreamOrder{graph.OrderBFS}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Systems) {
		t.Fatalf("cells = %d, want %d", len(cells), len(Systems))
	}
	var hash, loom *IPTCell
	for i := range cells {
		c := &cells[i]
		if c.IPT < 0 {
			t.Errorf("%s: negative ipt", c.System)
		}
		switch c.System {
		case "hash":
			hash = c
		case "loom":
			loom = c
		}
	}
	if hash == nil || loom == nil {
		t.Fatal("missing systems")
	}
	if hash.RelToHash != 100 {
		t.Errorf("hash relative = %v, want 100", hash.RelToHash)
	}
	// The central claim at small scale: Loom no worse than Hash, and
	// (robustly, on provgen BFS) clearly better.
	if loom.RelToHash > 75 {
		t.Errorf("loom relative = %.1f%%, want < 75%%", loom.RelToHash)
	}
	var buf bytes.Buffer
	RenderIPTCells(&buf, "test", cells)
	if !strings.Contains(buf.String(), "loom") {
		t.Error("render missing loom row")
	}
}

func TestSummarizeLoomVsFennel(t *testing.T) {
	cells := []IPTCell{
		{Dataset: "d", Order: graph.OrderBFS, K: 8, System: "fennel", IPT: 100},
		{Dataset: "d", Order: graph.OrderBFS, K: 8, System: "loom", IPT: 80},
		{Dataset: "e", Order: graph.OrderBFS, K: 8, System: "fennel", IPT: 200},
		{Dataset: "e", Order: graph.OrderBFS, K: 8, System: "loom", IPT: 120},
	}
	med := SummarizeLoomVsFennel(cells)
	// reductions: 20% and 40% → median (upper) = 40 with len/2 index 1.
	if med != 40 {
		t.Errorf("median = %v, want 40", med)
	}
	if got := SummarizeLoomVsFennel(nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

func TestRunFig9SweepImprovesWithWindow(t *testing.T) {
	cfg := smallCfg()
	pts, err := RunFig9(cfg, []int{16, 512})
	if err != nil {
		t.Fatal(err)
	}
	// Datasets × orders × windows.
	if len(pts) != 1*2*2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Larger windows should not be (much) worse on the BFS stream.
	var small, large float64
	for _, p := range pts {
		if p.Order != graph.OrderBFS {
			continue
		}
		switch p.Window {
		case 16:
			small = p.IPT
		case 512:
			large = p.IPT
		}
	}
	if large > small*1.15 {
		t.Errorf("ipt grew with window: %v (t=16) → %v (t=512)", small, large)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, pts)
	if !strings.Contains(buf.String(), "window") {
		t.Error("render incomplete")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := smallCfg()
	cells, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(ablationSystems) {
		t.Fatalf("cells = %d, want %d", len(cells), len(ablationSystems))
	}
	systems := map[string]AblationCell{}
	for _, c := range cells {
		systems[c.System] = c
	}
	// Full Loom should not lose to the naive strawman on balance: the
	// naive mode ignores balance entirely.
	if systems["loom"].Imbalance > systems["loom-naive"].Imbalance+0.05 {
		t.Errorf("loom imbalance %.3f worse than naive %.3f",
			systems["loom"].Imbalance, systems["loom-naive"].Imbalance)
	}
	var buf bytes.Buffer
	RenderAblation(&buf, cells)
	if !strings.Contains(buf.String(), "loom-naive") {
		t.Error("render missing variants")
	}
}
