// Command loom-bench reruns the paper's quality evaluation (§5): Table 1,
// Figs. 4, 7, 8 and 9, the ablation and the §6 extensions, at a
// laptop-friendly scale, printing paper-style text tables. Every partitioner
// except the ablation's is built, fed and scored through the public loom
// API (New, NewBaseline, AddBatch, Flush, Evaluate, Restream, Refine,
// Simulate) at its defaults, so the tables measure what a library caller
// runs; only k, the window t, the scale and the seed are set here.
//
// Usage:
//
//	loom-bench -exp all
//	loom-bench -exp fig7 -scale 20000 -k 8
//	loom-bench -exp fig9 -datasets musicbrainz
//	loom-bench -exp fig7 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -exp takes one name from the experiments list below (-help prints it)
// or all. Beyond the paper's artefacts the list holds the simulated
// distributed execution, the motif tries, and the chaos experiment, which injects WAL faults — a primary killed mid-write,
// segments pruned out from under a follower, a flipped bit in a tailed
// segment, transient read errors, an fsync-bouncing disk — and fails
// unless the supervised serving tier self-heals with zero wrong routes
// (-short trims its streams).
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiment, so hot-path work is profileable without a custom harness.
// Speed, memory and serving numbers come from the repository's benchmark
// (benchmark/README.md), not from this command: its loom_x_hash metric
// succeeds the paper's Table 2. See EXPERIMENTS.md for how each output
// maps onto the paper's results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"loom/internal/bench"
	"loom/internal/simulate"
)

// experiments is the one list of -exp names, in the order -exp all runs
// them: the usage string is built from it and TestRunEachExperiment runs
// each, so -help cannot advertise a name run rejects.
var experiments = []string{"table1", "fig4", "fig7", "fig8", "fig9", "ablation", "extensions", "simulate", "motifs", "chaos"}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", ")+", all")
		short    = flag.Bool("short", false, "trim the chaos experiment's streams for a quick check")
		scale    = flag.Int("scale", 12000, "per-dataset target vertex count")
		seed     = flag.Int64("seed", 42, "seed for dataset generation, stream shuffles and the ablation's signatures")
		k        = flag.Int("k", 8, "partitions (every experiment but fig8, which sweeps k)")
		win      = flag.Int("window", 2048, "Loom window size at harness scale")
		datasets = flag.String("datasets", "", "comma-separated subset (default: dblp,provgen,musicbrainz,lubm)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile covering the experiment to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Seed: *seed, K: *k, WindowSize: *win}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if err := withProfiles(*cpuProf, *memProf, func() error {
		return run(*exp, cfg, *short)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "loom-bench: %v\n", err)
		os.Exit(1)
	}
}

// withProfiles runs fn under the requested pprof profiles: the CPU profile
// covers fn exactly, and the heap profile snapshots live allocations after
// fn (and a final GC), the view that matters for steady-state memory.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

func run(exp string, cfg bench.Config, short bool) error {
	if exp != "all" && !slices.Contains(experiments, exp) {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	runOne := func(name string) error {
		start := time.Now()
		defer func() {
			fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
		}()
		switch name {
		case "table1":
			rows, err := bench.RunTable1(cfg)
			if err != nil {
				return err
			}
			bench.RenderTable1(os.Stdout, rows)
		case "fig4":
			bench.RenderFig4(os.Stdout, bench.RunFig4())
		case "fig7":
			cells, err := bench.RunFig7(cfg)
			if err != nil {
				return err
			}
			bench.RenderIPTCells(os.Stdout, "Fig. 7: ipt vs Hash, 8-way partitionings, three stream orders", cells)
			fmt.Printf("median Loom ipt reduction vs Fennel: %.1f%%\n", bench.SummarizeLoomVsFennel(cells))
		case "fig8":
			cells, err := bench.RunFig8(cfg)
			if err != nil {
				return err
			}
			bench.RenderIPTCells(os.Stdout, "Fig. 8: ipt vs Hash across k ∈ {2, 8, 32}, breadth-first streams", cells)
			fmt.Printf("median Loom ipt reduction vs Fennel: %.1f%%\n", bench.SummarizeLoomVsFennel(cells))
		case "fig9":
			pts, err := bench.RunFig9(cfg, nil)
			if err != nil {
				return err
			}
			bench.RenderFig9(os.Stdout, pts)
		case "ablation":
			cells, err := bench.RunAblation(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblation(os.Stdout, cells)
		case "extensions":
			cells, err := bench.RunExtensions(cfg)
			if err != nil {
				return err
			}
			bench.RenderExtensions(os.Stdout, cells)
		case "simulate":
			cells, err := bench.RunSimulation(cfg, simulate.CostModel{})
			if err != nil {
				return err
			}
			bench.RenderSimulation(os.Stdout, cells)
		case "motifs":
			if err := bench.RenderMotifs(os.Stdout, cfg); err != nil {
				return err
			}
		case "chaos":
			rep, err := bench.RunChaos(cfg, short)
			if err != nil {
				return err
			}
			bench.RenderChaos(os.Stdout, rep)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if exp == "all" {
		for _, name := range experiments {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(exp)
}
