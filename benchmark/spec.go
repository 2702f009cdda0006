package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// scaleFactor shrinks every workload's input from the sizes ISSUE 11 timed
// (10⁶-scale datasets) so that the 4 + 22 × 4 runs the acceptance driver
// makes, with set-up and builds, fit its total-time cap. It is one constant
// for all workloads: inputs keep their relative sizes.
const scaleFactor = 0.1

// fullScale is the dataset scale parameter every workload uses at
// scaleFactor 1.
const fullScale = 1_000_000

// Library options under test are the defaults a user gets, except these.
const (
	partitions   = 8
	maxImbalance = 1.1 // loom.Options' default, restated for the balance check
	windowSize   = 10_000
	// supportThreshold is the default motif threshold T, restated for the
	// layers the traced run drives directly.
	supportThreshold = 0.40
)

// workloadSpec is one benchmark input. Every workload runs the same phases
// (in-memory ingest against same-run Hash, evaluation, durable ingest with
// checkpoint and recovery, then serving over a socket beside steady ingest);
// they differ only in what is fed in.
type workloadSpec struct {
	name    string
	dataset string // generator and query workload; also the child router's -dataset
	batch   int    // AddBatch size for closed-loop (bulk) ingest
	// noise is the share of offered edges that are at-least-once
	// re-deliveries of earlier edges or self-loops, which ingest drops.
	noise float64
	// Phase-B request mix: shares of POST /route/batch and GET
	// /route/scatter (the rest is GET /route/{v}), and the share of route
	// targets that were never streamed.
	batchShare, scatterShare, unseenShare float64
}

var workloads = []workloadSpec{
	{name: "ingest-motif-heavy", dataset: "dblp", batch: 256, batchShare: 0.01, scatterShare: 0.01},
	{name: "ingest-motif-light", dataset: "musicbrainz", batch: 256, batchShare: 0.01, scatterShare: 0.01},
	{name: "ingest-bulk-noisy", dataset: "provgen", batch: 4096, noise: 0.25, batchShare: 0.01, scatterShare: 0.01},
	{name: "serve-e2e", dataset: "provgen", batch: 256, batchShare: 0.10, scatterShare: 0.10, unseenShare: 0.02},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// benchmarkFile is BENCHMARK.json, the contract this program is held to. It
// is the single list of metric names, units, directions and bounds: the
// runner takes units from it and refuses to emit a name it does not list.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// metricValue is one emitted metric in the contract's output shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSink collects one run's metrics against the declared list: setting
// an undeclared name, setting a name twice, a non-finite value or a missing
// name is an error, so every run emits each declared metric exactly once.
type metricSink struct {
	defs   map[string]metricDef
	values map[string]metricValue
	errs   []string
}

func newMetricSink(defs []metricDef) *metricSink {
	s := &metricSink{defs: map[string]metricDef{}, values: map[string]metricValue{}}
	for _, d := range defs {
		s.defs[d.Name] = d
	}
	return s
}

func (s *metricSink) set(name string, v float64) {
	d, ok := s.defs[name]
	switch {
	case !ok:
		s.errs = append(s.errs, fmt.Sprintf("metric %q is not declared in BENCHMARK.json", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		s.errs = append(s.errs, fmt.Sprintf("metric %q is not finite", name))
	default:
		if _, dup := s.values[name]; dup {
			s.errs = append(s.errs, fmt.Sprintf("metric %q set twice", name))
		}
		s.values[name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// finish reports every problem seen, including declared metrics never set.
func (s *metricSink) finish() error {
	for name := range s.defs {
		if _, ok := s.values[name]; !ok {
			s.errs = append(s.errs, fmt.Sprintf("metric %q was not measured", name))
		}
	}
	if len(s.errs) == 0 {
		return nil
	}
	sort.Strings(s.errs)
	return fmt.Errorf("metrics: %v", s.errs)
}
