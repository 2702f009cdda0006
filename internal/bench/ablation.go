package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"loom/internal/core"
	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/signature"
	"loom/internal/tpstry"
	"loom/internal/workload"
)

// The ablation switches parts of Loom's placement core off — the support
// weight, rationing, equal opportunism itself — and none of those switches
// is part of the public API. It is therefore the one experiment built on
// internal/core directly, and all six of its rows (Hash and LDG included)
// are built the same way so that their deltas stay comparable. -exp motifs
// shares its trie.

// prepared bundles a generated dataset with its workload and trie.
type prepared struct {
	g    *graph.Graph
	wl   workload.Workload
	trie *tpstry.Trie
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
	return &prepared{g: g, wl: wl, trie: trie}, nil
}

// AblationCell reports one Loom variant against full Loom and LDG.
type AblationCell struct {
	Dataset   string
	System    string
	IPT       float64
	RelToHash float64
	Imbalance float64
}

// ablationSystems are full Loom plus its surgically disabled variants (and
// LDG for reference, since Loom without motifs degenerates to it).
var ablationSystems = []string{"hash", "ldg", "loom", "loom-nosupport", "loom-noration", "loom-naive"}

// ablationSystem builds one ablation row's partitioner at the core's
// defaults.
func ablationSystem(sys string, p *prepared, k, window int) (partition.Streamer, error) {
	capC := partition.CapacityFor(p.g.NumVertices(), k, partition.DefaultImbalance)
	cfg := core.Config{K: k, Capacity: capC, WindowSize: window}
	switch sys {
	case "hash":
		return partition.NewHash(k, capC), nil
	case "ldg":
		return partition.NewLDG(k, capC), nil
	case "loom":
	case "loom-nosupport":
		cfg.DisableSupportWeight = true
	case "loom-noration":
		cfg.DisableRation = true
	case "loom-naive":
		cfg.Mode = core.ModeNaiveGreedy
	default:
		return nil, fmt.Errorf("bench: unknown ablation system %q", sys)
	}
	return core.New(cfg, p.trie)
}

// RunAblation compares the Loom variants on breadth-first streams at K
// partitions.
func RunAblation(cfg Config) ([]AblationCell, error) {
	cfg = cfg.withDefaults()
	var out []AblationCell
	for _, ds := range cfg.Datasets {
		p, err := prepare(ds, cfg)
		if err != nil {
			return nil, err
		}
		stream := graph.StreamOf(p.g, graph.OrderBFS, rand.New(rand.NewSource(cfg.Seed)))
		var hashIPT float64
		for _, sys := range ablationSystems { // hash first
			s, err := ablationSystem(sys, p, cfg.K, cfg.WindowSize)
			if err != nil {
				return nil, err
			}
			s.ProcessEdges(stream)
			s.Flush()
			a := s.Assignment()
			res, err := workload.Execute(p.g, a, p.wl, workload.Options{})
			if err != nil {
				return nil, err
			}
			if sys == "hash" {
				hashIPT = res.IPT
			}
			out = append(out, AblationCell{
				Dataset: ds, System: sys, IPT: res.IPT, RelToHash: relTo(hashIPT, res.IPT),
				Imbalance: partition.Imbalance(a),
			})
		}
	}
	return out, nil
}

// RenderAblation writes the ablation table.
func RenderAblation(w io.Writer, cells []AblationCell) {
	fmt.Fprintln(w, "Ablation: Loom variants (bfs streams)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tsystem\tipt\t% of hash\timbalance")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.1f%%\t%.1f%%\n", c.Dataset, c.System, c.IPT, c.RelToHash, 100*c.Imbalance)
	}
	tw.Flush()
}

// RenderMotifs prints the TPSTry++ summary for every configured dataset's
// workload at the default motif threshold T = 0.40 — the Fig. 2-style view
// of what Loom will treat as motifs (a workload-engineering aid).
func RenderMotifs(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	for _, ds := range cfg.Datasets {
		p, err := prepare(ds, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "workload %q:\n", ds)
		if err := p.trie.Summary(w, 0.40); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
