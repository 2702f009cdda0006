// Package bench is the experiment harness that regenerates every table and
// figure of the Loom paper's evaluation (§5):
//
//	Table 1 — dataset inventory (sizes, heterogeneity)
//	Fig. 4  — probability of acceptable factor-collision rates vs prime p
//	Fig. 7  — ipt as % of Hash, 8-way partitionings, three stream orders
//	Fig. 8  — ipt as % of Hash across k ∈ {2, 8, 32}, breadth-first streams
//	Table 2 — milliseconds to partition 10k edges, per system × dataset
//	Fig. 9  — ipt versus Loom window size t
//
// plus ablation experiments for Loom's design choices (equal opportunism
// vs naive greedy, support weighting, rationing), the §6 extensions, the
// simulated distributed execution and the chaos fault-injection suite.
//
// Experiments return plain structs and render aligned text tables for
// cmd/loom-bench.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"
	"time"

	"loom/internal/core"
	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/signature"
	"loom/internal/tpstry"
	"loom/internal/workload"
)

// Config holds the experiment-wide knobs. Zero values take defaults.
type Config struct {
	// Scale is the per-dataset target vertex count. The paper's graphs
	// are millions of vertices; the harness defaults to 12_000 so the
	// whole suite runs in minutes on a laptop while preserving every
	// relative comparison (results are reported relative to Hash exactly
	// as the paper does).
	Scale int
	// Seed drives dataset generation, stream shuffling and signatures.
	Seed int64
	// K is the partition count for Fig. 7/9/Table 2 (default 8).
	K int
	// WindowSize is Loom's window t (default 2048 at harness scale; the
	// paper uses 10k at million-edge scale — Fig. 9 sweeps this).
	WindowSize int
	// Threshold is the motif support threshold T (default 0.4).
	Threshold float64
	// MaxMatches caps per-query match enumeration (default 300_000).
	MaxMatches int
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
	if c.Threshold == 0 {
		c.Threshold = 0.40
	}
	if c.MaxMatches == 0 {
		c.MaxMatches = 300_000
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"dblp", "provgen", "musicbrainz", "lubm"}
	}
	return c
}

// Systems evaluated in Figs. 7 and 8, in the paper's presentation order.
var Systems = []string{"hash", "ldg", "fennel", "loom"}

// prepared bundles a generated dataset with its workload and trie.
type prepared struct {
	name   string
	g      *graph.Graph
	wl     workload.Workload
	trie   *tpstry.Trie
	scheme *signature.Scheme
}

func prepare(name string, cfg Config) (*prepared, error) {
	g, err := dataset.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	wl, err := workload.ForDataset(name)
	if err != nil {
		return nil, err
	}
	scheme := signature.NewScheme(signature.DefaultP, cfg.Seed)
	scheme.RegisterLabels(dataset.DatasetLabels(name))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		return nil, err
	}
	return &prepared{name: name, g: g, wl: wl, trie: trie, scheme: scheme}, nil
}

// newSystem constructs one named partitioner for a prepared dataset.
func newSystem(name string, p *prepared, k, windowSize int, threshold float64) (partition.Streamer, error) {
	n := p.g.NumVertices()
	m := p.g.NumEdges()
	capC := partition.CapacityFor(n, k, partition.DefaultImbalance)
	switch name {
	case "hash":
		return partition.NewHash(k, capC), nil
	case "ldg":
		return partition.NewLDG(k, capC), nil
	case "fennel":
		return partition.NewFennel(k, n, m), nil
	case "loom":
		return core.New(core.Config{
			K:                k,
			Capacity:         capC,
			WindowSize:       windowSize,
			SupportThreshold: threshold,
		}, p.trie)
	case "loom-naive":
		return core.New(core.Config{
			K: k, Capacity: capC, WindowSize: windowSize,
			SupportThreshold: threshold, Mode: core.ModeNaiveGreedy,
		}, p.trie)
	case "loom-noration":
		return core.New(core.Config{
			K: k, Capacity: capC, WindowSize: windowSize,
			SupportThreshold: threshold, DisableRation: true,
		}, p.trie)
	case "loom-nosupport":
		return core.New(core.Config{
			K: k, Capacity: capC, WindowSize: windowSize,
			SupportThreshold: threshold, DisableSupportWeight: true,
		}, p.trie)
	default:
		return nil, fmt.Errorf("bench: unknown system %q", name)
	}
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
	Partition time.Duration // wall time to partition the stream
}

// runOne partitions the prepared dataset's stream with one system and
// executes the workload.
func runOne(p *prepared, sys string, order graph.StreamOrder, k int, cfg Config, rng *rand.Rand) (IPTCell, error) {
	stream := graph.StreamOf(p.g, order, rng)
	s, err := newSystem(sys, p, k, cfg.WindowSize, cfg.Threshold)
	if err != nil {
		return IPTCell{}, err
	}
	start := time.Now()
	s.ProcessEdges(stream)
	s.Flush()
	elapsed := time.Since(start)

	a := s.Assignment()
	res, err := workload.Execute(p.g, a, p.wl, workload.Options{MaxMatchesPerQuery: cfg.MaxMatches})
	if err != nil {
		return IPTCell{}, err
	}
	return IPTCell{
		Dataset:   p.name,
		Order:     order,
		K:         k,
		System:    sys,
		IPT:       res.IPT,
		EdgeCut:   partition.EdgeCut(p.g, a),
		Imbalance: partition.Imbalance(a),
		Partition: elapsed,
	}, nil
}

// RunIPTGrid evaluates all systems over the cross product of datasets,
// orders and ks, filling RelToHash per (dataset, order, k) group. It is the
// engine behind Figs. 7 and 8.
func RunIPTGrid(cfg Config, orders []graph.StreamOrder, ks []int) ([]IPTCell, error) {
	cfg = cfg.withDefaults()
	var cells []IPTCell
	for _, ds := range cfg.Datasets {
		p, err := prepare(ds, cfg)
		if err != nil {
			return nil, err
		}
		for _, order := range orders {
			for _, k := range ks {
				group := make([]IPTCell, 0, len(Systems))
				for _, sys := range Systems {
					// A fixed per-combination seed keeps the random
					// order identical across systems: every partitioner
					// sees the same stream.
					rng := rand.New(rand.NewSource(cfg.Seed + int64(k)*1001))
					cell, err := runOne(p, sys, order, k, cfg, rng)
					if err != nil {
						return nil, err
					}
					group = append(group, cell)
				}
				var hashIPT float64
				for _, c := range group {
					if c.System == "hash" {
						hashIPT = c.IPT
					}
				}
				for i := range group {
					if hashIPT > 0 {
						group[i].RelToHash = 100 * group[i].IPT / hashIPT
					} else {
						group[i].RelToHash = 100
					}
				}
				cells = append(cells, group...)
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
	fmt.Fprintln(tw, "dataset\torder\tk\tsystem\tipt\t% of hash\tedge-cut\timbalance\tpartition time")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.0f\t%.1f%%\t%d\t%.1f%%\t%s\n",
			c.Dataset, c.Order, c.K, c.System, c.IPT, c.RelToHash, c.EdgeCut,
			100*c.Imbalance, c.Partition.Round(time.Millisecond))
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
