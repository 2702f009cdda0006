package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadContract(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestContractFile holds BENCHMARK.json to the limits the acceptance driver
// states and to the workloads this program defines.
func TestContractFile(t *testing.T) {
	bf := loadContract(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner defines %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the runner", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	haveSetup := false
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		haveSetup = haveSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !haveSetup {
		t.Error("setup_s (s, lower) is missing from end_to_end")
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

// TestEveryWorkload runs each workload untraced and traced at a hundredth of
// full scale — child router start and stop included — and checks that each
// run emits exactly the metrics BENCHMARK.json declares for it, finite and in
// the declared unit, fails no operation or check, and leaves nothing behind.
func TestEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the router child eight times")
	}
	bf := loadContract(t)
	routerBin := filepath.Join(t.TempDir(), "loom-router")
	if out, err := exec.Command("go", "build", "-o", routerBin, "loom/cmd/loom-router").CombinedOutput(); err != nil {
		t.Fatalf("build loom-router: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/e2e"
			defs := bf.EndToEnd
			if traced {
				name, defs = w.name+"/layers", bf.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				rec, err := runWorkload(config{
					workload: w.name, seed: 1, seconds: 1, trace: traced, scale: 0.01,
					outDir: out, routerBin: routerBin, log: io.Discard,
				}, bf)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range rec.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("correct=%v, %d of %d operations failed", rec.Correct, rec.Failed, rec.Attempted)
				}
				if len(rec.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(rec.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rec.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s in %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", d.Name, m.Value)
					}
				}
				left, _ := filepath.Glob(filepath.Join(out, "tmp-*"))
				if len(left) != 0 {
					t.Errorf("temporary directories left behind: %v", left)
				}
				if traced {
					if st, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil || st.Size() == 0 {
						t.Errorf("span file missing or empty: %v", err)
					}
				}
			})
		}
	}
}

func TestReportRoundTrips(t *testing.T) {
	wr := workloadReport{Name: "w", Correct: true, Attempted: 7, PlacementHash: "00ff",
		EndToEnd: map[string]metricSeries{}, PerLayer: map[string]metricSeries{}}
	for _, v := range []float64{3, 1, 2} {
		addValues(wr.EndToEnd, map[string]metricValue{"setup_s": {Value: v, Unit: "s"}})
	}
	if s := wr.EndToEnd["setup_s"]; s.Median != 2 || len(s.Values) != 3 || s.Unit != "s" {
		t.Fatalf("series %+v", s)
	}
	rep := report{Env: captureEnvironment(), Seed: 1, Runs: 3, Seconds: 20, Workloads: []workloadReport{wr}}
	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	back.Workloads[0].PerLayer = map[string]metricSeries{} // omitted when empty
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("report changed in a JSON round trip:\n%+v\n%+v", rep, back)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	s := func(median, spread float64) metricSeries { return metricSeries{Median: median, Spread: spread} }
	for _, c := range []struct {
		a, b metricSeries
		d    metricDef
		want string
	}{
		{s(100, 0.02), s(105, 0.02), lower, "same"},
		{s(100, 0.02), s(115, 0.02), lower, "worse"},
		{s(100, 0.02), s(90, 0.02), lower, "better"},
		{s(100, 0.02), s(115, 0.02), higher, "better"},
		{s(100, 0.02), s(85, 0.02), higher, "worse"},
		{s(100, 0.20), s(150, 0.02), lower, "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", c.a.Median, c.b.Median, c.d.Better, got, c.want)
		}
	}
}
