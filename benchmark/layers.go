package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"loom"
	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/intern"
	"loom/internal/partition"
	"loom/internal/signature"
	"loom/internal/tpstry"
	"loom/internal/wal"
	"loom/internal/window"
	"loom/internal/workload"
	"loom/router"
)

// layerRun is the state the per-layer replays share. Every replay drives
// one layer's public functions with the run's own stream, from this file:
// nothing inside the product is instrumented.
type layerRun struct {
	*run
	root     int                // parent span of every replay
	stream   []graph.StreamEdge // the offered stream in the internal edge type
	n        int                // offered edges
	capacity float64            // per-partition capacity C, as loom.New derives it
}

// timed runs f under a span and returns its duration.
func (l *layerRun) timed(name string, n int, f func()) time.Duration {
	id := l.tr.begin(name, l.root)
	f()
	return l.tr.end(id, int64(n))
}

// eachBatch calls f with consecutive workload-sized batches of the stream.
func (l *layerRun) eachBatch(f func(batch []graph.StreamEdge)) {
	for i := 0; i < l.n; i += l.spec.batch {
		f(l.stream[i:min(i+l.spec.batch, l.n)])
	}
}

func (l *layerRun) newTrie() (*tpstry.Trie, error) {
	iwl, err := workload.ForDataset(l.spec.dataset)
	if err != nil {
		return nil, err
	}
	return iwl.BuildTrie(signature.NewScheme(signature.DefaultP, 1))
}

// layerMetrics replays the stream through each layer in turn and sets every
// per-layer metric.
func (r *run) layerMetrics(mem *memResult, srv *serveResult) error {
	l := &layerRun{run: r, n: len(r.in.edges),
		capacity: partition.CapacityFor(len(r.in.verts), partitions, maxImbalance)}
	l.root = r.tr.begin("phase.layers", 0)
	defer func() { r.tr.end(l.root, 0) }()
	l.stream = make([]graph.StreamEdge, l.n)
	for i, e := range r.in.edges {
		l.stream[i] = graph.StreamEdge{U: graph.VertexID(e.U), LU: graph.Label(e.LU), V: graph.VertexID(e.V), LV: graph.Label(e.LV)}
	}

	r.layer("dataset.generate_s", r.in.generate.Seconds())
	r.layer("dataset.order_s", r.in.order.Seconds())
	r.layer("dataset.edges", float64(l.n))
	r.layer("dataset.vertices", float64(len(r.in.verts)))

	if err := l.trieLayer(); err != nil {
		return err
	}
	l.internLayer()
	ensureNS := l.graphLayer()
	if err := l.windowLayer(); err != nil {
		return err
	}
	hashIPT := mem.hashEval.IPT
	if err := l.partitionLayer(hashIPT); err != nil {
		return err
	}
	coreNS, publishNS, err := l.coreLayer()
	if err != nil {
		return err
	}
	if err := l.loomLayer(mem, coreNS, ensureNS, publishNS); err != nil {
		return err
	}

	r.layer("workload.hash_evaluate_s", mem.hashEvalWall.Seconds())
	r.layer("workload.edge_cut_pct", 100*float64(mem.loomEval.EdgeCut)/float64(mem.recorded))
	r.layer("workload.imbalance", mem.loomEval.Imbalance)

	r.layer("runtime.allocs_per_edge", float64(mem.after.Mallocs-mem.before.Mallocs)/float64(l.n))
	r.layer("runtime.alloc_bytes_per_edge", float64(mem.after.TotalAlloc-mem.before.TotalAlloc)/float64(l.n))
	r.layer("runtime.gc_cycles", float64(mem.after.NumGC-mem.before.NumGC))
	r.layer("runtime.gc_pause_ms", float64(mem.after.PauseTotalNs-mem.before.PauseTotalNs)/1e6)
	r.layer("runtime.heap_live_mb", float64(mem.after.HeapAlloc)/(1<<20))

	events, err := l.durableLayer(mem)
	if err != nil {
		return err
	}
	handlerP50, err := l.routerLayer(events, srv)
	if err != nil {
		return err
	}

	// The two p99s sit here, under their end-to-end names, because on this
	// machine they do not repeat well enough to carry a bound.
	route := durs(srv.route, time.Microsecond)
	r.layer("route_p99_us", percentile(route, 99))
	r.layer("visibility_lag_p99_ms", percentile(durs(srv.visibility, time.Millisecond), 99))
	r.layer("loom-router.socket_share", 1-handlerP50/median(route))
	r.layer("loom-router.batch_p50_us", median(durs(srv.batch, time.Microsecond)))
	r.layer("loom-router.scatter_p50_us", median(durs(srv.scatter, time.Microsecond)))
	r.layer("loom-router.shed", float64(srv.stats.Server.Shed))
	r.layer("loom-router.polls", float64(srv.stats.Supervisor.Polls))
	r.layer("loom-router.records_per_poll", float64(srv.stats.Supervisor.Records)/float64(max(srv.stats.Supervisor.Polls, 1)))
	r.layer("loom-router.catchup_s", srv.catchup.Seconds())
	r.layer("loom-router.rss_mb", srv.rssMB)
	r.layer("loom-router.gen_late_p99_ms", percentile(durs(srv.late, time.Millisecond), 99))
	return nil
}

func (l *layerRun) trieLayer() error {
	var trie *tpstry.Trie
	var err error
	d := l.timed("workload.BuildTrie", 0, func() { trie, err = l.newTrie() })
	if err != nil {
		return err
	}
	l.layer("tpstry.build_ms", millis(d))
	l.layer("tpstry.nodes", float64(trie.Size()))
	l.layer("tpstry.motifs", float64(len(trie.Motifs(supportThreshold))))
	return nil
}

func (l *layerRun) internLayer() {
	vt := intern.NewVertexTable(len(l.in.verts))
	d := l.timed("intern.VertexTable.Intern", 2*l.n, func() {
		for i := range l.stream {
			vt.Intern(int64(l.stream[i].U))
			vt.Intern(int64(l.stream[i].V))
		}
	})
	l.layer("intern.vertex_ns_per_edge", perEdge(d, l.n))
	l.layer("intern.new_vertex_share", float64(vt.Len())/float64(2*l.n))
	l.layer("intern.vertex_bytes", float64(vt.MemBytes()))
	lt := intern.NewLabelTable()
	d = l.timed("intern.LabelTable.Intern", 2*l.n, func() {
		for i := range l.stream {
			lt.Intern(string(l.stream[i].LU))
			lt.Intern(string(l.stream[i].LV))
		}
	})
	l.layer("intern.label_ns_per_edge", perEdge(d, l.n))
}

// graphLayer records the stream into a fresh graph exactly as AddBatch does
// and returns EnsureEdge's cost per offered edge.
func (l *layerRun) graphLayer() (ensureNS float64) {
	g := graph.New()
	g.Reserve(l.n)
	var firstErr error
	d := l.timed("graph.EnsureEdge", l.n, func() {
		for i := range l.stream {
			e := &l.stream[i]
			if _, err := g.EnsureEdge(e.U, e.LU, e.V, e.LV); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	l.ops.did(firstErr)
	ensureNS = perEdge(d, l.n)
	rec := g.NumEdges()
	l.layer("graph.ensure_ns_per_edge", ensureNS)
	l.layer("graph.dup_share", 1-float64(rec)/float64(l.n))
	m := g.Mem()
	l.layer("graph.vertex_bytes_per_edge", float64(m.VertexBytes+m.LabelBytes)/float64(rec))
	l.layer("graph.adj_bytes_per_edge", float64(m.AdjBytes)/float64(rec))
	l.layer("graph.eset_bytes_per_edge", float64(m.EdgeSetBytes)/float64(rec))
	l.layer("graph.log_bytes_per_edge", float64(m.LogBytes)/float64(rec))
	d = l.timed("graph.Compact", 0, func() { l.ops.did(g.Compact()) })
	l.layer("graph.compact_ms", millis(d))
	d = l.timed("graph.Replay.Each", rec, func() {
		l.ops.did(g.CaptureReplay().Each(func(graph.StreamEdge) error { return nil }))
	})
	l.layer("graph.replay_ns_per_edge", perEdge(d, rec))
	return ensureNS
}

// windowLayer drives the matching window alone: the single-edge motif gate
// over the whole stream, then Insert for the edges that pass, with a plain
// FIFO drain (no bidding) holding the window at its capacity.
func (l *layerRun) windowLayer() error {
	trie, err := l.newTrie()
	if err != nil {
		return err
	}
	m := window.NewMatcher(trie, supportThreshold, windowSize)
	pass := make([]bool, l.n)
	gated, passed := 0, 0
	d := l.timed("window.SingleEdgeMotif", l.n, func() {
		for i := range l.stream {
			if l.stream[i].U == l.stream[i].V {
				continue
			}
			gated++
			if _, ok := m.SingleEdgeMotif(l.stream[i]); ok {
				pass[i] = true
				passed++
			}
		}
	})
	l.layer("window.gate_ns_per_edge", perEdge(d, gated))
	l.layer("window.gate_pass_share", float64(passed)/float64(gated))

	var insertD, removeD time.Duration
	inserts, created, removed, peak := 0, 0, 0, 0
	var buf []*window.Match
	one := make([]window.IEdge, 1)
	id := l.tr.begin("window.Insert+drain", l.root)
	for i := range l.stream {
		if !pass[i] {
			continue
		}
		before := m.NumMatches()
		t0 := time.Now()
		err := m.Insert(l.stream[i])
		t1 := time.Now()
		insertD += t1.Sub(t0)
		inserts++
		if err != nil {
			continue // a re-delivery of an edge still in the window
		}
		created += m.NumMatches() - before
		peak = max(peak, m.NumMatches())
		if !m.OverCapacity() {
			continue
		}
		for m.OverCapacity() {
			old, _ := m.OldestIdx()
			buf = m.MatchesContainingI(old, buf[:0])
			one[0] = old
			m.RemoveIEdges(one)
			removed++
		}
		removeD += time.Since(t1)
	}
	l.tr.end(id, int64(inserts))
	l.layer("window.insert_ns_per_edge", perEdge(insertD, inserts))
	l.layer("window.matches_per_insert", float64(created)/float64(max(inserts, 1)))
	l.layer("window.remove_ns_per_edge", perEdge(removeD, removed))
	l.layer("window.peak_matches", float64(peak))
	return nil
}

// partitionLayer runs the three baselines bare — no recorded graph, no
// epoch publish — and scores LDG and Fennel as the fidelity reference for
// ipt_pct_of_hash.
func (l *layerRun) partitionLayer(hashIPT float64) error {
	bare := func(name string, s partition.Streamer) float64 {
		d := l.timed(name, l.n, func() {
			l.eachBatch(s.ProcessEdges)
			s.Flush()
		})
		return perEdge(d, l.n)
	}
	h := partition.NewHash(partitions, l.capacity)
	l.layer("partition.hash_ns_per_edge", bare("partition.Hash.ProcessEdges", h))
	l.layer("partition.ldg_ns_per_edge", bare("partition.LDG.ProcessEdges", partition.NewLDG(partitions, l.capacity)))
	l.layer("partition.fennel_ns_per_edge", bare("partition.Fennel.ProcessEdges",
		partition.NewFennel(partitions, len(l.in.verts), l.n)))

	e := h.Tracker().Publish()
	const lookups = 1 << 18
	verts := l.in.verts
	d := l.timed("partition.Epoch.Of", lookups, func() {
		for i := range lookups {
			e.Of(graph.VertexID(verts[(i*7919)%len(verts)]))
		}
	})
	l.layer("partition.epoch_of_ns", float64(d.Nanoseconds())/lookups)

	for _, algo := range []string{"ldg", "fennel"} {
		p, err := loom.NewBaseline(algo, l.in.options(""), l.in.wl)
		if err != nil {
			return err
		}
		l.ingestAll(p)
		var ev loom.Evaluation
		l.timed(algo+".Evaluate", 0, func() { ev, err = p.Evaluate() })
		l.ops.did(err)
		if err != nil {
			return err
		}
		l.layer("partition."+algo+"_ipt_pct_of_hash", 100*ev.IPT/hashIPT)
	}
	return nil
}

// coreLayer drives the placement core directly, once single-threaded and
// once as loom.New configures it (Workers = GOMAXPROCS, the batch
// pipeline), publishing an epoch after every batch as AddBatch does. It
// returns the default configuration's core and publish cost per edge.
func (l *layerRun) coreLayer() (coreNS, publishNS float64, err error) {
	newCore := func(workers int) (*core.Loom, error) {
		trie, err := l.newTrie()
		if err != nil {
			return nil, err
		}
		return core.New(core.Config{K: partitions, Capacity: l.capacity, WindowSize: windowSize, Workers: workers}, trie)
	}
	serial, err := newCore(1)
	if err != nil {
		return 0, 0, err
	}
	d := l.timed("core.ProcessEdges.serial", l.n, func() { l.eachBatch(serial.ProcessEdges) })
	serialNS := perEdge(d, l.n)
	st := serial.Stats()
	l.layer("core.serial_ns_per_edge", serialNS)
	l.layer("core.immediate_share", float64(st.ImmediateEdges)/float64(st.EdgesProcessed))
	l.layer("core.evictions_per_edge", float64(st.Evictions)/float64(st.EdgesProcessed))

	// Draining the window is eviction bidding and nothing else.
	var evict []time.Duration
	d = l.timed("core.EvictOne.drain", 0, func() {
		for {
			t0 := time.Now()
			if !serial.EvictOne() {
				return
			}
			evict = append(evict, time.Since(t0))
		}
	})
	l.layer("core.evict_us_p50", median(durs(evict, time.Microsecond)))
	l.layer("core.evict_us_p99", percentile(durs(evict, time.Microsecond), 99))
	l.layer("core.flush_ms", millis(d))

	def, err := newCore(0)
	if err != nil {
		return 0, 0, err
	}
	var coreD, publishD time.Duration
	batches := 0
	id := l.tr.begin("core.ProcessBatchFunc+Publish", l.root)
	l.eachBatch(func(b []graph.StreamEdge) {
		t0 := time.Now()
		def.ProcessBatchFunc(len(b), func(i int) graph.StreamEdge { return b[i] }, nil)
		t1 := time.Now()
		def.Publish()
		publishD += time.Since(t1)
		coreD += t1.Sub(t0)
		batches++
	})
	l.tr.end(id, int64(l.n))
	coreNS, publishNS = perEdge(coreD, l.n), perEdge(publishD, l.n)
	l.layer("core.default_ns_per_edge", coreNS)
	l.layer("core.pipeline_speedup", serialNS/coreNS)
	l.layer("partition.publish_us_per_batch", float64(publishD.Microseconds())/float64(batches))
	return coreNS, publishNS, nil
}

// loomLayer reports the root API spans of the traced in-memory trial and
// attributes them: what AddBatch costs beyond the core, graph recording and
// epoch publish it is known to contain is the root's self time.
func (l *layerRun) loomLayer(mem *memResult, coreNS, ensureNS, publishNS float64) error {
	var total time.Duration
	for _, d := range mem.batches {
		total += d
	}
	addBatchNS := perEdge(total, l.n)
	us := durs(mem.batches, time.Microsecond)
	l.layer("loom.addbatch_ns_per_edge", addBatchNS)
	l.layer("loom.addbatch_us_p50", median(us))
	l.layer("loom.addbatch_us_p99", percentile(us, 99))
	l.layer("loom.api_self_ns_per_edge", addBatchNS-coreNS-ensureNS-publishNS)
	l.layer("partition.publish_share", publishNS/addBatchNS)
	l.layer("loom.flush_ms", millis(mem.flush))
	l.layer("loom.snapshot_ns", mem.snapshotNS)
	l.layer("loom.partitionof_ns", mem.partOfNS)
	l.layer("loom.trace_overhead_pct", 100*(float64(mem.tracedWall)-float64(mem.loomWall))/float64(mem.loomWall))
	fmt.Fprintf(l.cfg.log, "attribution of loom.AddBatch (%.0f ns/edge): core %.1f%%, graph %.1f%%, publish %.1f%%, api self %.1f%%\n",
		addBatchNS, 100*coreNS/addBatchNS, 100*ensureNS/addBatchNS, 100*publishNS/addBatchNS,
		100*(addBatchNS-coreNS-ensureNS-publishNS)/addBatchNS)

	// The same layers through the other ingest call: per-edge AddEdgeE.
	p, err := loom.New(l.in.options(""), l.in.wl)
	if err != nil {
		return err
	}
	prefix := l.in.edges[:l.n/10]
	d := l.timed("loom.AddEdgeE", len(prefix), func() {
		for i := range prefix {
			e := &prefix[i]
			l.ops.did(p.AddEdgeE(e.U, e.LU, e.V, e.LV))
		}
	})
	l.layer("loom.addedge_ns_per_edge", perEdge(d, len(prefix)))
	return nil
}

// durableLayer separates durable.go's costs with a primary, a raw log
// tailer and an in-process follower on one directory, then replays the
// captured log records into a fresh wal.Log to time the wal layer alone.
// It returns the placement events the follower emitted.
func (l *layerRun) durableLayer(mem *memResult) ([]loom.PlacementEvent, error) {
	dir := filepath.Join(l.tmp, "layers-wal")
	defer os.RemoveAll(dir)
	opt := l.in.options(dir)
	p, _, err := loom.Open(opt, l.in.wl)
	l.ops.did(err)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	tailer, _, err := wal.OpenTailer(wal.OS(), dir)
	if err != nil {
		return nil, err
	}
	fol, _, err := loom.Follow(opt, l.in.wl)
	l.ops.did(err)
	if err != nil {
		return nil, err
	}
	defer fol.Close()
	var events []loom.PlacementEvent
	fol.Partitioner().Subscribe(func(ev loom.PlacementEvent) { events = append(events, ev) })

	d := l.timed("durable.ingest.full", l.n, func() {
		l.addBatches(p, 0, l.n)
		p.Flush()
		l.ops.did(p.Sync())
	})
	l.layer("durable.overhead_x", perEdge(d, l.n)/perEdge(mem.loomWall, l.n))

	var records [][]byte
	d = l.timed("wal.Tailer.Poll", 0, func() { records, err = tailer.Poll() })
	if err != nil {
		return nil, err
	}
	l.layer("wal.tail_poll_ns_per_record", perEdge(d, len(records)))
	d = l.timed("loom.Follower.Poll", l.n, func() { _, err = fol.Poll() })
	l.ops.did(err)
	if err != nil {
		return nil, err
	}
	l.layer("durable.follower_poll_ns_per_edge", perEdge(d, l.n))
	if err := p.Close(); err != nil {
		return nil, err
	}

	// Recovery by full log replay, then by checkpoint alone.
	var q *loom.Partitioner
	d = l.timed("loom.Open.replay", l.n, func() { q, _, err = loom.Open(opt, l.in.wl) })
	l.ops.did(err)
	if err != nil {
		return nil, err
	}
	l.layer("durable.replay_ns_per_edge", perEdge(d, l.n))
	ckptBytes, err := q.Checkpoint()
	l.ops.did(err)
	if err != nil {
		q.Close()
		return nil, err
	}
	l.layer("durable.checkpoint_bytes", float64(ckptBytes))
	if err := q.Close(); err != nil {
		return nil, err
	}
	d = l.timed("loom.Open.checkpoint", 0, func() { q, _, err = loom.Open(opt, l.in.wl) })
	l.ops.did(err)
	if err != nil {
		return nil, err
	}
	q.Close()
	l.layer("durable.recover_checkpoint_ms", millis(d))

	return events, l.walLayer(records, int(ckptBytes))
}

// walLayer appends the captured records to a fresh log: the first half as a
// bulk load leaves them (group commit only), the second half with a Sync
// after each record, as steady-state ingest does.
func (l *layerRun) walLayer(records [][]byte, ckptBytes int) error {
	const frame = 8 // wal.AppendFramed's length/CRC hole
	dir := filepath.Join(l.tmp, "layers-wal-replay")
	defer os.RemoveAll(dir)
	framed := make([][]byte, len(records))
	bytesTotal := 0
	for i, rec := range records {
		framed[i] = append(make([]byte, frame, frame+len(rec)), rec...)
		bytesTotal += len(framed[i])
	}
	log, _, err := wal.Open(wal.OS(), wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer log.Close()
	var appendD time.Duration
	var syncs []time.Duration
	id := l.tr.begin("wal.AppendFramed+Sync", l.root)
	for i, b := range framed {
		t0 := time.Now()
		_, err := log.AppendFramed(b)
		t1 := time.Now()
		appendD += t1.Sub(t0)
		if err == nil && i >= len(framed)/2 {
			err = log.Sync()
			syncs = append(syncs, time.Since(t1))
		}
		l.ops.did(err)
		if err != nil {
			return err
		}
	}
	l.tr.end(id, int64(len(framed)))
	l.layer("wal.append_ns_per_edge", perEdge(appendD, l.n))
	l.layer("wal.bytes_per_edge", float64(bytesTotal)/float64(l.n))
	l.layer("wal.syncs", float64(len(syncs)))
	l.layer("wal.sync_ms_p50", median(durs(syncs, time.Millisecond)))
	l.layer("wal.sync_ms_p99", percentile(durs(syncs, time.Millisecond), 99))
	payload := make([]byte, ckptBytes)
	d := l.timed("wal.WriteCheckpoint", ckptBytes, func() { _, err = log.WriteCheckpoint(payload) })
	l.ops.did(err)
	if err != nil {
		return err
	}
	l.layer("wal.checkpoint_write_ms", millis(d))
	return log.Close()
}

// routerLayer drives the router package in process — no socket: the mirror
// on the captured event feed, the planner, and the HTTP handlers into a
// recorder. It returns the GET /route handler's median in microseconds.
func (l *layerRun) routerLayer(events []loom.PlacementEvent, srv *serveResult) (handlerP50 float64, err error) {
	m := router.New()
	d := l.timed("router.Mirror.Apply", len(events), func() {
		for i := range events {
			m.Apply(events[i])
		}
	})
	m.SetReady(true)
	l.layer("router.apply_ns_per_event", perEdge(d, len(events)))

	// The request mix of this workload's steady phase, against the whole
	// streamed graph.
	const samples = 2000
	reqs := l.makeRequests(64*samples, l.n)
	var ids []int64
	for i := range reqs {
		if reqs[i].kind == kindRoute {
			ids = append(ids, reqs[i].vertex)
		}
	}
	d = l.timed("router.Mirror.Lookup", len(ids), func() {
		for _, v := range ids {
			m.Lookup(v)
		}
	})
	l.layer("router.lookup_ns", perEdge(d, len(ids)))
	d = l.timed("router.Mirror.LookupBatch", len(ids), func() {
		for i := 0; i+routeBatchIDs <= len(ids); i += routeBatchIDs {
			m.LookupBatch(ids[i : i+routeBatchIDs])
		}
	})
	l.layer("router.lookup_batch_ns_per_id", perEdge(d, len(ids)/routeBatchIDs*routeBatchIDs))

	pl := router.NewPlanner(m, l.in.wl.Queries(), partitions)
	motif := l.in.wl.Queries()[0].Name
	var scatter []time.Duration
	fanout := 0
	id := l.tr.begin("router.Planner.Scatter", l.root)
	for _, v := range ids[:samples] {
		t0 := time.Now()
		plan, err := pl.Scatter(v, motif)
		scatter = append(scatter, time.Since(t0))
		if err != nil {
			return 0, err
		}
		fanout += plan.Fanout
	}
	l.tr.end(id, samples)
	l.layer("router.scatter_us_p50", median(durs(scatter, time.Microsecond)))
	l.layer("router.scatter_fanout_mean", float64(fanout)/samples)

	// Handlers without the socket: what remains of route_p50_us is the
	// network stack, the HTTP server loop and the client.
	h := router.NewServer(m, pl)
	handler := func(kind requestKind) (float64, error) {
		var ds []time.Duration
		for i := range reqs {
			if reqs[i].kind != kind {
				continue
			}
			method, body := http.MethodGet, bytes.NewReader(nil)
			if reqs[i].body != nil {
				method, body = http.MethodPost, bytes.NewReader(reqs[i].body)
			}
			req := httptest.NewRequest(method, reqs[i].path, body)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			ds = append(ds, time.Since(t0))
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("handler %s: status %d", reqs[i].path, rec.Code)
			}
			if len(ds) == samples {
				break
			}
		}
		return median(durs(ds, time.Microsecond)), nil
	}
	for kind, name := range []string{kindRoute: "route", kindBatch: "batch", kindScatter: "scatter"} {
		id := l.tr.begin("router.Server.ServeHTTP."+name, l.root)
		p50, err := handler(requestKind(kind))
		l.tr.end(id, samples)
		if err != nil {
			return 0, err
		}
		l.layer("router.handler_"+name+"_us_p50", p50)
		if requestKind(kind) == kindRoute {
			handlerP50 = p50
		}
	}
	// How the real process's lookups resolved: vertices placed before its
	// bootstrap checkpoint come from the pinned snapshot, not the mirror.
	lookups := float64(max(srv.stats.Mirror.Lookups, 1))
	l.layer("router.mirror_hit_share", float64(srv.stats.Mirror.MirrorHits)/lookups)
	l.layer("router.miss_share", float64(srv.stats.Mirror.Misses)/lookups)
	return handlerP50, nil
}
