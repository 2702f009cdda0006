// Batch ingest pipeline: ProcessBatchFunc splits a batch into a parallel
// prepare pre-pass and the sequential placement core.
//
// Loom's per-edge pipeline (§4) is inherently order-sensitive — every
// placement decision reads state written by the previous one — so the
// placement core cannot be parallelised without changing results. What CAN
// run concurrently is everything before the first state mutation: fetching
// and converting the raw edge, resolving its endpoints and labels against
// the (grow-only) interning tables, and evaluating the memoised single-edge
// motif gate. The caller-supplied validate hook (graph recording +
// corrupt-edge drops) runs first, alone on the driver goroutine: the
// recorded graph interns into the same vertex space the workers read, and
// the label table admits concurrent readers only while nothing interns
// (see internal/intern), so it must finish before the fan-out starts. The
// pipeline then runs three phases per batch:
//
//  1. Prepare (parallel): worker goroutines claim chunks of the batch and
//     fill a pooled per-batch scratch of preparedEdge records — the
//     converted stream edge, self-loop flag, dense endpoint indices and
//     label codes for already-interned vertices (read-only table lookups),
//     and the gate verdict for already-memoised label pairs (read-only memo
//     probes). Nothing is written outside each worker's own records.
//  2. Finish (serial): one in-order pass interns the vertices, labels and
//     gate entries the stream has never seen before. Because this pass
//     walks the batch in arrival order, dense indices and label codes are
//     assigned in exactly the first-seen order a purely sequential ingest
//     would produce — the keystone of bit-identical placements.
//  3. Place (serial): the unchanged placement core consumes the prepared
//     records (processResolved), performing window insertion, eviction
//     bidding and assignment. Eviction rounds with long match lists borrow
//     the idle worker gang to scatter bid counts (see scatterAll); the
//     bid reduction itself stays serial and order-fixed.
//
// The worker gang lives only for the duration of one ProcessBatchFunc call:
// spawning workers per batch costs a few microseconds — amortised to
// nanoseconds per edge at real batch sizes — and guarantees no goroutine
// outlives the call (Loom has no Close, and a parked pool would leak).
package core

import (
	"sync/atomic"

	"loom/internal/graph"
	"loom/internal/tpstry"
)

// MinParallelBatch is the batch length below which ProcessBatchFunc stays
// on the serial path: under it, spawning the gang costs more than the
// prepare work it would parallelise.
const MinParallelBatch = 64

// defaultScatterMin is the default eviction match-list length above which
// the bid scatter is fanned across the gang (see Loom.SetScatterMin).
const defaultScatterMin = 48

// prepFlag records which preparedEdge fields the parallel pre-pass managed
// to resolve; the serial finish pass completes the rest.
type prepFlag uint8

const (
	pfSelfLoop prepFlag = 1 << iota // degenerate edge: counted and skipped
	pfU                             // ui is resolved
	pfV                             // vi is resolved
	pfCU                            // cu is resolved
	pfCV                            // cv is resolved
	pfGate                          // gate verdict is resolved
	pfMotif                         // gate verdict: single-edge motif (node != nil)
)

const pfResolved = pfU | pfV | pfCU | pfCV | pfGate

// preparedEdge is one batch edge with every order-insensitive computation
// already done: the placement core consumes it without touching a hash
// table or the trie.
type preparedEdge struct {
	se     graph.StreamEdge
	node   *tpstry.Node // single-edge motif node; nil unless pfMotif
	ui, vi uint32
	cu, cv uint16
	flags  prepFlag
}

// gang is a fork-join pool of parked worker goroutines, alive for one
// batch: run hands a task to every worker, runs the caller's share and
// waits for the rest. The task handoff and completion signals ride
// channels, so all writes made by a worker happen-before run returns.
type gang struct {
	n     int // total workers, caller included
	fn    func(worker int)
	start []chan struct{} // one per spawned worker, buffered
	done  chan struct{}
}

// spawnGang starts n-1 parked workers (the caller is worker 0).
func spawnGang(n int) *gang {
	g := &gang{n: n, done: make(chan struct{}, n-1)}
	g.start = make([]chan struct{}, n-1)
	for i := range g.start {
		ch := make(chan struct{}, 1)
		g.start[i] = ch
		w := i + 1
		go func() {
			for range ch {
				g.fn(w)
				g.done <- struct{}{}
			}
		}()
	}
	return g
}

// run executes fn across the whole gang, the caller as worker 0, and
// returns when every worker is done.
func (g *gang) run(fn func(worker int)) {
	g.fn = fn
	for _, ch := range g.start {
		ch <- struct{}{}
	}
	fn(0)
	for range g.start {
		<-g.done
	}
	g.fn = nil
}

// stop releases the workers; the gang must be idle.
func (g *gang) stop() {
	for _, ch := range g.start {
		close(ch)
	}
}

// prepScratch is the pooled per-batch scratch: recycled across batches so
// steady-state parallel ingest allocates nothing per edge.
type prepScratch struct {
	recs []preparedEdge
	drop []bool
}

// ensure returns the record scratch sized for n edges.
func (p *prepScratch) ensure(n int) []preparedEdge {
	if cap(p.recs) < n {
		p.recs = make([]preparedEdge, n)
	}
	p.recs = p.recs[:n]
	return p.recs
}

// runValidate calls validate, if any, and returns the mask of the edges it
// rejected — nil when it rejected none.
func (l *Loom) runValidate(n int, validate func(reject func(int))) []bool {
	if validate == nil {
		return nil
	}
	if cap(l.prep.drop) < n {
		l.prep.drop = make([]bool, n)
	}
	drop := l.prep.drop[:n]
	clear(drop)
	dropped := false
	validate(func(i int) {
		if uint(i) < uint(n) {
			drop[i] = true
			dropped = true
		}
	})
	if !dropped {
		return nil
	}
	return drop
}

// ProcessBatchFunc ingests n stream edges in arrival order through the
// two-stage pipeline, with placements bit-identical to calling ProcessEdge
// once per element. at(i) must return the i-th edge of the batch and be
// safe to call from multiple goroutines (it is a pure read of caller
// state). validate, when non-nil, is called once, serially, on the calling
// goroutine before anything else: it may inspect the batch (e.g. record
// edges into a graph built on the core's Space), and reject(i) drops edge
// i entirely — it is neither interned by the core nor placed, matching a
// per-edge ingest that skips it.
//
// With Workers == 1 (or a batch under MinParallelBatch) the whole pipeline
// degenerates to the serial per-edge path; no goroutine is spawned.
func (l *Loom) ProcessBatchFunc(n int, at func(int) graph.StreamEdge, validate func(reject func(int))) {
	if n <= 0 {
		return
	}
	drop := l.runValidate(n, validate)
	if l.cfg.Workers <= 1 || n < MinParallelBatch {
		for i := 0; i < n; i++ {
			if drop == nil || !drop[i] {
				l.ProcessEdge(at(i))
			}
		}
		return
	}
	recs := l.prep.ensure(n)

	// The gate memo must be valid before concurrent read-only probes.
	l.win.GateSync()

	g := spawnGang(l.cfg.Workers)
	l.gang = g // lets eviction rounds in the place phase borrow the gang
	defer func() {
		l.gang = nil
		g.stop()
	}()

	// Phase 1: parallel prepare. Work is claimed in chunks off an atomic
	// counter; each record is written by exactly one worker.
	chunk := n / (4 * g.n)
	if chunk < 64 {
		chunk = 64
	}
	var next atomic.Int64
	g.run(func(int) {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			l.prepareRange(recs[lo:hi:hi], at, lo)
		}
	})

	// Phase 2: serial finish — intern the unseen, in arrival order.
	l.finishPrepare(recs, drop)

	// Phase 3: sequential placement core.
	for i := range recs {
		if drop != nil && drop[i] {
			continue
		}
		pe := &recs[i]
		l.stats.EdgesProcessed++
		if pe.flags&pfSelfLoop != 0 {
			l.stats.SelfLoops++
			continue
		}
		l.processResolved(pe.se, pe.ui, pe.vi, pe.cu, pe.cv, pe.node, pe.flags&pfMotif != 0)
	}
}

// prepareRange fills the prepared records for batch positions
// [base, base+len(recs)): conversion, self-loop detection, read-only
// vertex/label resolution and read-only gate probes. Runs on worker
// goroutines; it must not write anything but its own records.
func (l *Loom) prepareRange(recs []preparedEdge, at func(int) graph.StreamEdge, base int) {
	for j := range recs {
		rec := &recs[j]
		se := at(base + j)
		rec.se = se
		rec.node = nil
		if se.U == se.V {
			rec.flags = pfSelfLoop
			continue
		}
		var f prepFlag
		if ui, ok := l.verts.Lookup(int64(se.U)); ok {
			rec.ui = ui
			f |= pfU
			if c, ok := l.sp.Code(ui); ok {
				rec.cu = c
				f |= pfCU
			}
		}
		if vi, ok := l.verts.Lookup(int64(se.V)); ok {
			rec.vi = vi
			f |= pfV
			if c, ok := l.sp.Code(vi); ok {
				rec.cv = c
				f |= pfCV
			}
		}
		if f&(pfCU|pfCV) == pfCU|pfCV {
			if node, motif, known := l.win.GateProbe(rec.cu, rec.cv); known {
				f |= pfGate
				if motif {
					f |= pfMotif
					rec.node = node
				}
			}
		}
		rec.flags = f
	}
}

// finishPrepare completes records the parallel pre-pass could not resolve:
// vertices, labels and gate entries first seen in this batch. It walks the
// batch strictly in arrival order and resolves each edge in the same
// sub-order as ProcessEdge (U, V, then labels, then the gate), so the
// interning tables end up byte-for-byte as a sequential ingest would build
// them — later batches then resolve these entries in the parallel phase.
func (l *Loom) finishPrepare(recs []preparedEdge, drop []bool) {
	for i := range recs {
		rec := &recs[i]
		if rec.flags&pfSelfLoop != 0 || (drop != nil && drop[i]) {
			continue
		}
		if rec.flags&pfResolved == pfResolved {
			continue
		}
		if rec.flags&pfU == 0 {
			rec.ui = l.tr.Intern(rec.se.U)
		}
		if rec.flags&pfV == 0 {
			rec.vi = l.tr.Intern(rec.se.V)
		}
		if rec.flags&pfCU == 0 {
			rec.cu = l.labelCodeOf(rec.ui, rec.se.LU)
		}
		if rec.flags&pfCV == 0 {
			rec.cv = l.labelCodeOf(rec.vi, rec.se.LV)
		}
		if rec.flags&pfGate == 0 {
			if node, ok := l.win.SingleEdgeMotifCodes(rec.cu, rec.cv); ok {
				rec.node = node
				rec.flags |= pfMotif
			}
		}
		rec.flags |= pfResolved
	}
}
