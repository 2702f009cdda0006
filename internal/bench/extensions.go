package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"loom"
)

// The extensions experiment evaluates the two §6 future-work integrations
// implemented by this library on the paper's hardest setting — the
// pseudo-adversarial random stream order:
//
//   - restreaming (a second Loom pass with the first pass's assignment as
//     prior), after Nishimura & Ugander [22];
//   - offline TAPER-style refinement (Partitioner.Refine), after Firth &
//     Missier [8].

// ExtensionCell is one row of the extensions table.
type ExtensionCell struct {
	Dataset   string
	System    string // loom, loom+restream, loom+refine, loom+restream+refine
	IPT       float64
	RelToHash float64
	Imbalance float64
}

// RunExtensions runs Loom, Loom with a restream pass, and Loom with offline
// refinement over random-order streams.
func RunExtensions(cfg Config) ([]ExtensionCell, error) {
	cfg = cfg.withDefaults()
	var out []ExtensionCell
	for _, ds := range cfg.Datasets {
		d, err := load(ds, cfg)
		if err != nil {
			return nil, err
		}
		stream, err := loom.OrderStream(d.edges, "random", cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Hash baseline for the relative scale.
		hash, err := d.score("hash", stream, cfg.K, cfg.WindowSize)
		if err != nil {
			return nil, err
		}
		add := func(sys string, p *loom.Partitioner) error {
			ev, err := p.Evaluate()
			if err != nil {
				return err
			}
			out = append(out, ExtensionCell{ds, sys, ev.IPT, relTo(hash.IPT, ev.IPT), ev.Imbalance})
			return nil
		}

		// Pass 1: plain Loom.
		pass1, err := d.partition("loom", stream, cfg.K, cfg.WindowSize)
		if err != nil {
			return nil, err
		}
		if err := add("loom", pass1); err != nil {
			return nil, err
		}

		// Pass 2: restream with the pass-1 assignment as prior, taken
		// before pass 1 is refined. The replay arrives in a different
		// random order — the realistic restreaming setting (replaying the
		// identical sequence through identical heuristics is a fixed
		// point).
		pass2, err := pass1.Restream()
		if err != nil {
			return nil, err
		}
		stream2, err := loom.OrderStream(d.edges, "random", cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		if err := feed(pass2, stream2); err != nil {
			return nil, err
		}
		if err := add("loom+restream", pass2); err != nil {
			return nil, err
		}

		// Offline refinement of each pass.
		for _, r := range []struct {
			sys string
			p   *loom.Partitioner
		}{{"loom+refine", pass1}, {"loom+restream+refine", pass2}} {
			if _, err := r.p.Refine(4); err != nil {
				return nil, err
			}
			if err := add(r.sys, r.p); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// RenderExtensions writes the extensions table.
func RenderExtensions(w io.Writer, cells []ExtensionCell) {
	fmt.Fprintln(w, "Extensions (§6 future work): restreaming and offline refinement, random-order streams")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tsystem\tipt\t% of hash\timbalance")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.1f%%\t%.1f%%\n", c.Dataset, c.System, c.IPT, c.RelToHash, 100*c.Imbalance)
	}
	tw.Flush()
}
