// Command benchmark is the repository's one canonical benchmark; see
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                      all workloads, untraced: end-to-end metrics
//	go run ./benchmark -trace 1             … and again with spans: per-layer metrics
//	go run ./benchmark -workload NAME       one run, in this process
//	go run ./benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

const benchmarkJSON = "BENCHMARK.json"

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in-process and end with the one-line JSON result (default: all workloads, one child process each)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seeds dataset generation, stream noise and request choice")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "measurement budget of one run (default: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: record spans around every layer's public calls and report the per-layer metrics")
	runs := fs.Int("runs", 1, "all-workloads mode: runs per workload, on seeds seed, seed+1, …")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for the report, span files and temporary WAL directories")
	fs.StringVar(&cfg.routerBin, "router", "", "built cmd/loom-router binary (default: build it into -out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg.trace, cfg.scale, cfg.log = *trace != 0, scaleFactor, stderr

	bf, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v (run from the repository root)\n", err)
		return 1
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(bf.RunSeconds)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		fmt.Fprintf(stderr, "benchmark: GOMAXPROCS %d exceeds the %d CPUs available; refusing to measure an oversubscribed process\n",
			runtime.GOMAXPROCS(0), n)
		return 1
	}
	if cfg.routerBin == "" {
		if cfg.routerBin, err = buildRouter(cfg.outDir, stderr); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}

	if cfg.workload == "" {
		return runAll(cfg, bf, *runs, stdout, stderr)
	}
	rec, err := runWorkload(cfg, bf)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := writeJSON(recordPath(cfg.outDir, cfg.workload, cfg.trace), rec); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printRecord(stdout, bf, rec)
	// The contract line: last on stdout, exactly these keys.
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// buildRouter builds cmd/loom-router from the checkout the benchmark runs in.
func buildRouter(outDir string, stderr io.Writer) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "loom-router"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/loom-router")
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/loom-router: %w", err)
	}
	return bin, nil
}

func recordPath(outDir, workload string, trace bool) string {
	kind := "e2e"
	if trace {
		kind = "layers"
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-%s.json", workload, kind))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRecord lists a run's metrics by name with units, in BENCHMARK.json
// order, then its checks.
func printRecord(w io.Writer, bf *benchmarkFile, rec *runRecord) {
	defs := bf.EndToEnd
	if rec.Trace {
		defs = bf.PerLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  wall %.1fs  placement %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.WallS, rec.PlacementHash)
	for _, d := range defs {
		if m, ok := rec.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, c := range rec.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; %d checks, correct=%v\n",
		rec.Attempted, rec.Failed, len(rec.Checks), rec.Correct)
	if rec.LateP99MS > millis(lateLimit) {
		fmt.Fprintf(w, "  note: the open-loop generators woke late (p99 %.2f ms > %v): this machine stalled, read the p99s with care\n",
			rec.LateP99MS, lateLimit)
	}
}

// dieCleanly makes SIGINT/SIGTERM stop the router child and remove the
// run's temporary directory before exiting; the returned func undoes it.
func (r *run) dieCleanly() (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			if c := r.child.Load(); c != nil {
				c.stop()
			}
			os.RemoveAll(r.tmp)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// environment is recorded in every report so that numbers are never read
// without the machine they came from.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Scale      float64 `json:"scale_factor"`
}

func captureEnvironment() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Scale: scaleFactor,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// report is the all-workloads runner's output, and compare's input.
type report struct {
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Runs      int              `json:"runs"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name          string                  `json:"name"`
	WallS         float64                 `json:"wall_s"` // all runs of this workload
	Attempted     int64                   `json:"attempted"`
	Failed        int64                   `json:"failed"`
	Correct       bool                    `json:"correct"`
	PlacementHash string                  `json:"placement_hash"` // first seed's
	EndToEnd      map[string]metricSeries `json:"end_to_end"`
	PerLayer      map[string]metricSeries `json:"per_layer,omitempty"`
}

// metricSeries is one metric over a workload's runs.
type metricSeries struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile distance ÷ median; 0 with fewer than two runs
}

func addValues(dst map[string]metricSeries, metrics map[string]metricValue) {
	for name, m := range metrics {
		s := dst[name]
		s.Unit = m.Unit
		s.Values = append(s.Values, m.Value)
		s.Median, s.Spread = median(s.Values), spread(s.Values)
		dst[name] = s
	}
}

// runAll runs every workload in a child process of its own, one after the
// other, so that peak_rss_mb belongs to one workload and nothing contends
// with the measured process but its own router child.
func runAll(cfg config, bf *benchmarkFile, runs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rep := report{Env: captureEnvironment(), Seed: cfg.seed, Runs: runs, Seconds: cfg.seconds}
	code := 0
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Correct: true,
			EndToEnd: map[string]metricSeries{}, PerLayer: map[string]metricSeries{}}
		traces := []bool{false}
		if cfg.trace {
			traces = append(traces, true)
		}
		for i := range runs {
			for _, traced := range traces {
				args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed + int64(i)),
					"-seconds", fmt.Sprint(cfg.seconds), "-out", cfg.outDir, "-router", cfg.routerBin}
				if traced {
					args = append(args, "-trace", "1")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = stdout, stderr
				runErr := cmd.Run()
				var rec runRecord
				data, err := os.ReadFile(recordPath(cfg.outDir, w.name, traced))
				if err == nil {
					err = json.Unmarshal(data, &rec)
				}
				if runErr != nil || err != nil {
					fmt.Fprintf(stderr, "benchmark: %s failed: run %v, record %v\n", w.name, runErr, err)
					wr.Correct, code = false, 1
					continue
				}
				wr.WallS += rec.WallS
				wr.Attempted += rec.Attempted
				wr.Failed += rec.Failed
				wr.Correct = wr.Correct && rec.Correct
				if traced {
					addValues(wr.PerLayer, rec.Metrics)
				} else {
					addValues(wr.EndToEnd, rec.Metrics)
					if i == 0 {
						wr.PlacementHash = rec.PlacementHash
					}
				}
			}
		}
		if !wr.Correct {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	path := filepath.Join(cfg.outDir, "report.json")
	if err := writeJSON(path, &rep); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printReport(stdout, bf, &rep)
	fmt.Fprintf(stdout, "report written to %s\n", path)
	return code
}

// printReport is the summary table: one row per workload × end-to-end metric.
func printReport(w io.Writer, bf *benchmarkFile, rep *report) {
	fmt.Fprintf(w, "\n%s  go %s  %d CPUs (%s)  GOMAXPROCS %d  scale %g  seed %d  %d run(s) × %gs\n",
		rep.Env.Commit, rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.CPUModel, rep.Env.GOMAXPROCS, rep.Env.Scale,
		rep.Seed, rep.Runs, rep.Seconds)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%s  (wall %.0fs, %d/%d operations failed, correct=%v, placement %s)\n",
			wr.Name, wr.WallS, wr.Failed, wr.Attempted, wr.Correct, wr.PlacementHash)
		for _, d := range bf.EndToEnd {
			if s, ok := wr.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %14.4f %-8s spread %5.1f%%  bound %4.0f%%\n", d.Name, s.Median, s.Unit, 100*s.Spread, 100*d.Bound)
			}
		}
		names := make([]string, 0, len(wr.PerLayer))
		for name := range wr.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := wr.PerLayer[name]
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, s.Median, s.Unit)
		}
	}
}
