// Package bench is the experiment harness that regenerates every table and
// figure of the Loom paper's evaluation (§5):
//
//	Table 1 — dataset inventory (sizes, heterogeneity)
//	Fig. 4  — probability of acceptable factor-collision rates vs prime p
//	Fig. 7  — ipt as % of Hash, 8-way partitionings, three stream orders
//	Fig. 8  — ipt as % of Hash across k ∈ {2, 8, 32}, breadth-first streams
//	Fig. 9  — ipt versus Loom window size t
//
// plus ablation experiments for Loom's design choices (equal opportunism
// vs naive greedy, support weighting, rationing), the §6 extensions, the
// simulated distributed execution and the chaos fault-injection suite.
// Table 2's timings are the benchmark's (benchmark/, loom_x_hash).
//
// Every quality number is measured through the public API a library caller
// uses: streams come from loom.GenerateDataset and loom.OrderStream,
// systems from loom.New and loom.NewBaseline at their defaults (only k,
// the window t and the size estimates are set), and scores from Evaluate,
// Restream, Refine and Simulate. The one private path is the ablation
// (ablation.go): its variants are switches of internal/core that the API
// does not expose, so all six of its rows are built there, keeping their
// deltas comparable.
//
// Experiments return plain structs and render aligned text tables for
// cmd/loom-bench.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"loom"

	"loom/internal/graph"
)

// Config holds the experiment-wide knobs. Zero values take defaults.
type Config struct {
	// Scale is the per-dataset target vertex count. The paper's graphs
	// are millions of vertices; the harness defaults to 12_000 so the
	// whole suite runs in minutes on a laptop. Results are reported
	// relative to Hash as the paper does, but some comparisons change
	// with scale (the sign of Loom − LDG on dblp-bfs does between 12 k
	// and 120 k), so a table holds at the scale it was run at.
	Scale int
	// Seed drives dataset generation and stream shuffles.
	Seed int64
	// K is the partition count for Fig. 7/9 and the other experiments
	// that do not sweep it (default 8).
	K int
	// WindowSize is Loom's window t (default 2048 at harness scale; the
	// paper uses 10k at million-edge scale — Fig. 9 sweeps this).
	WindowSize int
	// Datasets selects which datasets to run (default: the four used in
	// Figs. 7 and 8 — dblp, provgen, musicbrainz, lubm).
	Datasets []string
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 12_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.WindowSize == 0 {
		c.WindowSize = 2048
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"dblp", "provgen", "musicbrainz", "lubm"}
	}
	return c
}

// Systems evaluated in Figs. 7 and 8, in the paper's presentation order.
var Systems = []string{"hash", "ldg", "fennel", "loom"}

// evalData is one generated dataset in insertion order with its workload
// and the size estimates every partitioner is built with.
type evalData struct {
	edges []loom.StreamEdge
	wl    *loom.Workload
	n, m  int // distinct vertices and edges of the stream
}

func load(name string, cfg Config) (*evalData, error) {
	edges, err := loom.GenerateDataset(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	wl, err := loom.DatasetWorkload(name)
	if err != nil {
		return nil, err
	}
	seen := make(map[int64]struct{})
	for _, e := range edges {
		seen[e.U] = struct{}{}
		seen[e.V] = struct{}{}
	}
	return &evalData{edges: edges, wl: wl, n: len(seen), m: len(edges)}, nil
}

// partition builds the named system with k partitions and window t, feeds
// it the stream and drains its window.
func (d *evalData) partition(sys string, stream []loom.StreamEdge, k, window int) (*loom.Partitioner, error) {
	opt := loom.Options{Partitions: k, ExpectedVertices: d.n, ExpectedEdges: d.m, WindowSize: window}
	var p *loom.Partitioner
	var err error
	if sys == "loom" {
		p, err = loom.New(opt, d.wl)
	} else {
		p, err = loom.NewBaseline(sys, opt, d.wl)
	}
	if err != nil {
		return nil, err
	}
	if err := feed(p, stream); err != nil {
		return nil, err
	}
	return p, nil
}

// score partitions the stream with the named system and evaluates the
// result.
func (d *evalData) score(sys string, stream []loom.StreamEdge, k, window int) (loom.Evaluation, error) {
	p, err := d.partition(sys, stream, k, window)
	if err != nil {
		return loom.Evaluation{}, err
	}
	return p.Evaluate()
}

// feed ingests a whole stream and drains the window.
func feed(p *loom.Partitioner, stream []loom.StreamEdge) error {
	if err := p.AddBatch(stream); err != nil {
		return err
	}
	p.Flush()
	return p.Err()
}

// relTo returns ipt as a percentage of Hash's (100 when Hash scores 0).
func relTo(hashIPT, ipt float64) float64 {
	if hashIPT == 0 {
		return 100
	}
	return 100 * ipt / hashIPT
}

// IPTCell is one measurement of one system on one (dataset, order, k)
// configuration.
type IPTCell struct {
	Dataset   string
	Order     graph.StreamOrder
	K         int
	System    string
	IPT       float64
	RelToHash float64 // percent; 100 for hash itself
	EdgeCut   int
	Imbalance float64
}

// RunIPTGrid evaluates all systems over the cross product of datasets,
// orders and ks, filling RelToHash per (dataset, order, k) group. It is the
// engine behind Figs. 7 and 8.
func RunIPTGrid(cfg Config, orders []graph.StreamOrder, ks []int) ([]IPTCell, error) {
	cfg = cfg.withDefaults()
	var cells []IPTCell
	for _, ds := range cfg.Datasets {
		d, err := load(ds, cfg)
		if err != nil {
			return nil, err
		}
		for _, order := range orders {
			for _, k := range ks {
				// One stream per (order, k): every partitioner sees the
				// same one.
				stream, err := loom.OrderStream(d.edges, string(order), cfg.Seed+int64(k)*1001)
				if err != nil {
					return nil, err
				}
				var hashIPT float64
				for _, sys := range Systems { // hash first
					ev, err := d.score(sys, stream, k, cfg.WindowSize)
					if err != nil {
						return nil, err
					}
					if sys == "hash" {
						hashIPT = ev.IPT
					}
					cells = append(cells, IPTCell{
						Dataset: ds, Order: order, K: k, System: sys,
						IPT: ev.IPT, RelToHash: relTo(hashIPT, ev.IPT),
						EdgeCut: ev.EdgeCut, Imbalance: ev.Imbalance,
					})
				}
			}
		}
	}
	return cells, nil
}

// RenderIPTCells writes a paper-style table: one row per (dataset, order,
// k, system) with ipt, % of Hash, edge-cut and imbalance.
func RenderIPTCells(w io.Writer, title string, cells []IPTCell) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\torder\tk\tsystem\tipt\t% of hash\tedge-cut\timbalance")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.0f\t%.1f%%\t%d\t%.1f%%\n",
			c.Dataset, c.Order, c.K, c.System, c.IPT, c.RelToHash, c.EdgeCut, 100*c.Imbalance)
	}
	tw.Flush()
}

// SummarizeLoomVsFennel returns the median % reduction of Loom's ipt versus
// Fennel's across groups, the paper's headline "20−25% median" (§5.2).
func SummarizeLoomVsFennel(cells []IPTCell) float64 {
	type key struct {
		ds    string
		order graph.StreamOrder
		k     int
	}
	loom := map[key]float64{}
	fennel := map[key]float64{}
	for _, c := range cells {
		k := key{c.Dataset, c.Order, c.K}
		switch c.System {
		case "loom":
			loom[k] = c.IPT
		case "fennel":
			fennel[k] = c.IPT
		}
	}
	var reductions []float64
	for k, f := range fennel {
		if l, ok := loom[k]; ok && f > 0 {
			reductions = append(reductions, 100*(f-l)/f)
		}
	}
	if len(reductions) == 0 {
		return 0
	}
	sort.Float64s(reductions)
	return reductions[len(reductions)/2]
}
