package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"loom"
)

// config is one run's arguments.
type config struct {
	workload  string
	seed      int64
	seconds   float64 // measurement budget; phases take fixed shares of it
	trace     bool
	scale     float64 // scaleFactor, lowered only by the smoke test
	outDir    string  // spans and run records; temp dirs live under it
	routerBin string  // built cmd/loom-router
	log       io.Writer
}

// How a run's --seconds are spent. The time-boxed phases take these shares;
// the rest is left for the fixed-size work (four Evaluate calls, the durable
// cycles, the correctness sweep).
const (
	memoryShare = 0.25 // alternating Loom / Hash in-memory trials
	steadyShare = 0.35 // phase B, open loop
	closedShare = 0.10 // phase C, closed loop
	// setupRounds is how many times a run sets up; setup_s is their median.
	setupRounds   = 3
	durableCycles = 3
)

// check is one output-correctness check; any failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// opCounter counts operations attempted against the system and how many
// failed: ingest, durability and recovery calls, and every HTTP request.
type opCounter struct{ attempted, failed atomic.Int64 }

func (o *opCounter) did(err error) {
	o.attempted.Add(1)
	if err != nil {
		o.failed.Add(1)
	}
}

// run is the state of one workload run.
type run struct {
	cfg    config
	spec   workloadSpec
	in     *input
	tr     *tracer // nil when untraced
	tmp    string  // removed when the run ends
	ops    opCounter
	checks []check
	sink   *metricSink
	child  atomic.Pointer[routerChild] // set while the router child is alive, for the signal handler
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// e2e sets an end-to-end metric; the traced run, whose numbers carry the
// tracing cost, reports none.
func (r *run) e2e(name string, v float64) {
	if r.tr == nil {
		r.sink.set(name, v)
	}
}

// layer sets a per-layer metric (traced run only).
func (r *run) layer(name string, v float64) {
	if r.tr != nil {
		r.sink.set(name, v)
	}
}

// runRecord is everything one run produced; the contract line on stdout is
// cut from it and the all-workloads runner reads the whole of it back.
type runRecord struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Trace         bool                   `json:"trace"`
	Seconds       float64                `json:"seconds"`
	ScaleFactor   float64                `json:"scale_factor"`
	WallS         float64                `json:"wall_s"`
	Correct       bool                   `json:"correct"`
	Attempted     int64                  `json:"attempted"`
	Failed        int64                  `json:"failed"`
	Checks        []check                `json:"checks"`
	PlacementHash string                 `json:"placement_hash"`
	LateP99MS     float64                `json:"generator_late_p99_ms"` // how late the open-loop generators woke
	Metrics       map[string]metricValue `json:"metrics"`
}

// runWorkload executes one workload run end to end.
func runWorkload(cfg config, bf *benchmarkFile) (*runRecord, error) {
	began := time.Now()
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, spec: spec}
	if cfg.trace {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d", spec.name, cfg.seed))
		r.sink = newMetricSink(bf.PerLayer)
	} else {
		r.sink = newMetricSink(bf.EndToEnd)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	r.tmp = tmp
	defer os.RemoveAll(tmp)
	stopSignals := r.dieCleanly()
	defer stopSignals()

	// Set-up, several times over; the last round's input is the one used.
	var setups []time.Duration
	for range setupRounds {
		id := r.tr.begin("setup", 0)
		t0 := time.Now()
		if r.in, err = makeInput(spec, int(fullScale*cfg.scale), cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// The last step of set-up is constructing the partitioner a user
		// would, which builds the workload's motif trie.
		if _, err := loom.New(r.in.options(""), r.in.wl); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		r.tr.end(id, int64(len(r.in.edges)))
	}
	r.e2e("setup_s", medianDur(setups).Seconds())
	fmt.Fprintf(cfg.log, "%s seed %d: %d offered edges, %d vertices, set-up %.2fs\n",
		spec.name, cfg.seed, len(r.in.edges), len(r.in.verts), medianDur(setups).Seconds())

	budget := func(share float64) time.Duration { return time.Duration(share * cfg.seconds * float64(time.Second)) }
	mem, err := r.memoryPhase(budget(memoryShare))
	if err != nil {
		return nil, fmt.Errorf("in-memory phase: %w", err)
	}
	cycles := durableCycles
	steady, closed := budget(steadyShare), budget(closedShare)
	if cfg.trace {
		// The traced run spends its time on the layer replays instead.
		cycles, steady, closed = 1, steady/2, closed/2
	}
	dur, err := r.durablePhase(cycles)
	if err != nil {
		return nil, err
	}
	srv, err := r.servePhase(steady, closed)
	if err != nil {
		return nil, fmt.Errorf("serve phase: %w", err)
	}
	r.endToEndMetrics(mem, dur, srv)
	if cfg.trace {
		if err := r.layerMetrics(mem, srv); err != nil {
			return nil, fmt.Errorf("layer replays: %w", err)
		}
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+spec.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	if err := r.sink.finish(); err != nil {
		return nil, err
	}

	lateP99 := percentile(durs(slices.Concat(srv.late, srv.ingestLate), time.Millisecond), 99)
	rec := &runRecord{
		Workload: spec.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, ScaleFactor: cfg.scale,
		WallS:   time.Since(began).Seconds(),
		Correct: true, Attempted: r.ops.attempted.Load(), Failed: r.ops.failed.Load(),
		Checks: r.checks, PlacementHash: fmt.Sprintf("%016x", mem.placementHash),
		LateP99MS: lateP99, Metrics: r.sink.values,
	}
	for _, c := range r.checks {
		rec.Correct = rec.Correct && c.OK
	}
	return rec, nil
}

// endToEndMetrics sets the numbers a user of the stack would see.
func (r *run) endToEndMetrics(mem *memResult, dur []durableResult, srv *serveResult) {
	offered := len(r.in.edges)
	r.e2e("ingest_edges_per_s", float64(offered)/mem.loomWall.Seconds())
	r.e2e("loom_x_hash", float64(mem.loomWall)/float64(mem.hashWall))
	r.e2e("ipt_pct_of_hash", 100*mem.loomEval.IPT/mem.hashEval.IPT)
	r.e2e("evaluate_s", mem.loomEvalWall.Seconds())
	r.e2e("graph_bytes_per_edge", mem.mem.BytesPerEdge(mem.recorded))
	r.e2e("peak_rss_mb", mem.peakRSSMB)

	var ingest []float64
	var ckpt, recov []time.Duration
	for _, d := range dur {
		ingest = append(ingest, float64(d.prefixEdges)/d.ingest.Seconds())
		ckpt = append(ckpt, d.checkpoint...)
		recov = append(recov, d.recover...)
	}
	r.e2e("durable_ingest_edges_per_s", median(ingest))
	r.e2e("checkpoint_s", medianDur(ckpt).Seconds())
	r.e2e("recover_s", medianDur(recov).Seconds())

	route := durs(srv.route, time.Microsecond)
	r.e2e("route_p50_us", median(route))
	r.e2e("route_qps", median(srv.closedLoop))
	vis := durs(srv.visibility, time.Millisecond)
	r.e2e("visibility_lag_p50_ms", median(vis))
	r.e2e("visibility_lag_p90_ms", percentile(vis, 90))
}
