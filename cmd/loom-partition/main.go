// Command loom-partition partitions an edge-list graph stream with Loom or
// one of the baseline streaming partitioners, writing the vertex →
// partition assignment and quality metrics. Every algorithm runs through
// the public loom API exactly as a library caller would run it: Loom via
// loom.New (or loom.Open with -wal), the baselines via loom.NewBaseline,
// all from one loom.Options built from -k, -window, -threshold, -seed and
// the input's vertex count.
//
// Usage:
//
//	loom-gen -dataset provgen -scale 12000 -order bfs -out g.el
//	loom-partition -input g.el -k 8 -algo loom -workload provgen -out parts.tsv
//
// The workload is either one of the built-in dataset workloads (-workload
// dblp|provgen|musicbrainz|lubm) or a JSON file (-workload-file, see
// internal/workload JSON format). Quality (ipt, edge-cut, imbalance) is
// evaluated on the graph read from the input and reported on stderr;
// -traversal-cost switches ipt to the traversal-level cost model, and
// -no-eval skips workload execution on very large inputs.
//
// With -wal DIR the Loom partitioner is durable: every ingest is logged
// to a write-ahead log in DIR before it is applied, an existing DIR is
// recovered (checkpoint + log replay) before the new stream is ingested,
// and -checkpoint writes a full-state snapshot at the end so the next run
// opens fast and old log segments can be pruned.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"loom"

	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/workload"
)

func main() {
	var (
		input    = flag.String("input", "-", "edge-list input file ('-' for stdin)")
		k        = flag.Int("k", 8, "number of partitions")
		algo     = flag.String("algo", "loom", "partitioner: loom, hash, ldg, fennel")
		wlName   = flag.String("workload", "", "built-in workload: dblp, provgen, musicbrainz, lubm")
		wlFile   = flag.String("workload-file", "", "JSON workload file (overrides -workload)")
		win      = flag.Int("window", 10000, "Loom window size t")
		thr      = flag.Float64("threshold", 0.40, "Loom motif support threshold T")
		seed     = flag.Int64("seed", 1, "signature seed")
		out      = flag.String("out", "-", "assignment output file ('-' for stdout)")
		noEval   = flag.Bool("no-eval", false, "skip workload execution (ipt measurement)")
		costsTrv = flag.Bool("traversal-cost", false, "use the traversal-level ipt cost model")
		walDir   = flag.String("wal", "", "write-ahead log directory (loom only; recovers existing state, logs every ingest)")
		ckpt     = flag.Bool("checkpoint", false, "write a checkpoint after ingesting the stream (requires -wal)")
	)
	flag.Parse()
	if err := run(*input, *k, *algo, *wlName, *wlFile, *win, *thr, *seed, *out, *noEval, *costsTrv, *walDir, *ckpt); err != nil {
		fmt.Fprintf(os.Stderr, "loom-partition: %v\n", err)
		os.Exit(1)
	}
}

// publicWorkload rebuilds an internal workload through the public pattern
// API, edge by edge, so a durable run's checkpoints fingerprint the same
// workload a library caller would pass to loom.Open.
func publicWorkload(wl workload.Workload) *loom.Workload {
	out := loom.NewWorkload(wl.Name)
	for _, q := range wl.Queries {
		p := loom.NewPattern()
		for _, ed := range q.Pattern.Edges() {
			lu, lv := q.Pattern.EdgeLabels(ed)
			p.AddEdge(int64(ed.U), string(lu), int64(ed.V), string(lv))
		}
		out.Add(q.Name, p, q.Freq)
	}
	return out
}

func run(input string, k int, algo, wlName, wlFile string, win int, thr float64, seed int64, out string, noEval, costTrv bool, walDir string, ckpt bool) error {
	// Load the stream.
	in := os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	stream, err := dataset.ReadEdgeList(in)
	if err != nil {
		return err
	}
	if len(stream) == 0 {
		return fmt.Errorf("empty input stream")
	}

	// Count distinct vertices for the capacity constraint.
	seen := make(map[graph.VertexID]struct{})
	for _, e := range stream {
		seen[e.U] = struct{}{}
		seen[e.V] = struct{}{}
	}
	n := len(seen)

	// Load the workload if needed (required for loom; optional for the
	// quality report otherwise).
	var wl workload.Workload
	haveWL := false
	switch {
	case wlFile != "":
		f, err := os.Open(wlFile)
		if err != nil {
			return err
		}
		wl, err = workload.ParseJSON(f)
		f.Close()
		if err != nil {
			return err
		}
		haveWL = true
	case wlName != "":
		wl, err = workload.ForDataset(wlName)
		if err != nil {
			return err
		}
		haveWL = true
	}

	if ckpt && walDir == "" {
		return fmt.Errorf("-checkpoint requires -wal")
	}
	// One set of options for every algorithm: the baselines ignore the
	// Loom-only fields.
	opt := loom.Options{
		Partitions:       k,
		ExpectedVertices: n,
		WindowSize:       win,
		SupportThreshold: thr,
		Seed:             seed,
	}
	var p *loom.Partitioner
	switch {
	case algo == "loom" && !haveWL:
		return fmt.Errorf("loom requires -workload or -workload-file")
	case algo == "loom" && walDir != "":
		// Durable: every ingest is logged to the WAL before it is
		// applied, and existing directory state is recovered first.
		// Placements are identical to the in-memory path.
		opt.WALDir = walDir
		var info loom.RecoveryInfo
		if p, info, err = loom.Open(opt, publicWorkload(wl)); err != nil {
			return err
		}
		if info.Recovered {
			fmt.Fprintf(os.Stderr, "wal: recovered checkpoint@%d + %d replayed records (lsn %d)\n",
				info.CheckpointLSN, info.ReplayedRecords, info.LastLSN)
		}
		for _, w := range info.Warnings {
			fmt.Fprintf(os.Stderr, "wal: warning: %s\n", w)
		}
	case algo == "loom":
		p, err = loom.New(opt, publicWorkload(wl))
	case walDir != "":
		return fmt.Errorf("-wal requires -algo loom (baselines are stateless; rerun them from the stream)")
	default:
		opt.ExpectedEdges = len(stream) // Fennel's α
		p, err = loom.NewBaseline(algo, opt, nil)
	}
	if err != nil {
		return err
	}
	defer p.Close()

	pub := make([]loom.StreamEdge, len(stream))
	for i, e := range stream {
		pub[i] = loom.StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)}
	}
	start := time.Now()
	const chunk = 1024
	for i := 0; i < len(pub); i += chunk {
		if err := p.AddBatch(pub[i:min(i+chunk, len(pub))]); err != nil {
			return err
		}
	}
	p.Flush()
	elapsed := time.Since(start)
	if err := p.Err(); err != nil {
		return err
	}
	if ckpt {
		sz, err := p.Checkpoint()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wal: checkpoint written (%d bytes)\n", sz)
	}
	a := partition.NewAssignment(k)
	p.Snapshot().Each(func(v int64, part int) { a.Set(graph.VertexID(v), partition.ID(part)) })
	if err := p.Close(); err != nil {
		return err
	}

	// Write assignments.
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := partition.WriteAssignment(w, a); err != nil {
		return err
	}

	// Quality report.
	fmt.Fprintf(os.Stderr, "%s: k=%d vertices=%d edges=%d time=%s (%.0f edges/s)\n",
		algo, k, a.NumAssigned(), len(stream), elapsed.Round(time.Millisecond),
		float64(len(stream))/elapsed.Seconds())
	g, err := graph.BuildGraph(stream)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "edge-cut=%d (%.1f%%) imbalance=%.1f%%\n",
		partition.EdgeCut(g, a), 100*float64(partition.EdgeCut(g, a))/float64(g.NumEdges()),
		100*partition.Imbalance(a))
	if haveWL && !noEval {
		model := workload.EmbeddingCrossings
		if costTrv {
			model = workload.TraversalCrossings
		}
		res, err := workload.Execute(g, a, wl, workload.Options{Model: model})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "workload %q ipt=%.1f\n", wl.Name, res.IPT)
		for _, q := range res.PerQuery {
			fmt.Fprintf(os.Stderr, "  %-28s matches=%-8d crossings=%-8d weighted=%.1f\n",
				q.Name, q.Matches, q.Crossings, q.WeightedIPT)
		}
	}
	return nil
}
