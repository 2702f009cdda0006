package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict judges one workload × metric row. worse: B's median is beyond the
// bound on the wrong side of A's. unresolved: either side's run-to-run
// spread is wider than the bound, so the medians cannot settle it. better:
// B improved by more than both spreads. Anything else is "same".
func verdict(a, b metricSeries, d metricDef) (string, float64) {
	if a.Median == 0 {
		return "unresolved", 0
	}
	worsening := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		worsening = -worsening
	}
	noise := max(a.Spread, b.Spread)
	switch {
	case noise > d.Bound:
		return "unresolved", worsening
	case worsening > d.Bound:
		return "worse", worsening
	case -worsening > noise:
		return "better", worsening
	}
	return "same", worsening
}

// compareMain implements `benchmark compare A.json B.json`: A is the parent,
// B the change. It exits non-zero on any worse row or a higher share of
// failed operations.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	bf, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v (run from the repository root)\n", err)
		return 1
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	code := 0
	fmt.Fprintf(stdout, "%-20s %-28s %14s %14s %-8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "unit", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-20s missing from %s\n", wa.Name, args[1])
			code = 1
			continue
		}
		for _, d := range bf.EndToEnd {
			sa, oka := wa.EndToEnd[d.Name]
			sb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				fmt.Fprintf(stdout, "%-20s %-28s missing from a report\n", wa.Name, d.Name)
				code = 1
				continue
			}
			v, worsening := verdict(sa, sb, d)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-20s %-28s %14.4f %14.4f %-8s %+7.1f%% %5.0f%%  %s\n",
				wa.Name, d.Name, sa.Median, sb.Median, sa.Unit, 100*worsening, 100*d.Bound, v)
		}
		shareA := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		shareB := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		if shareB > shareA {
			fmt.Fprintf(stdout, "%-20s failed operations rose from %d/%d to %d/%d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			code = 1
		}
		if wa.PlacementHash != wb.PlacementHash {
			fmt.Fprintf(stdout, "%-20s placement changed: %s → %s (not a gate)\n", wa.Name, wa.PlacementHash, wb.PlacementHash)
		}
	}
	return code
}
