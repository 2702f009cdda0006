package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"loom"
)

// durableResult is one durable cycle: WAL-backed bulk ingest of the first
// three quarters of the stream, a checkpoint, the rest of the stream as the
// log tail, then Close and a recovering Open (checkpoint + tail replay).
type durableResult struct {
	prefixEdges int
	ingest      time.Duration   // bulk ingest of the prefix, through the final Sync
	checkpoint  []time.Duration // checkpointsPerCycle calls on the same state
	recover     []time.Duration // recoveriesPerCycle Opens of the same directory
}

// Checkpoint and the recovering Open are short next to the machine's
// stalls, so each cycle takes several samples of both: a checkpoint of
// unchanged state rewrites the same snapshot, and reopening a recovered
// directory replays the same checkpoint and tail.
const (
	checkpointsPerCycle = 9
	recoveriesPerCycle  = 2
)

// checkpointAt is the share of the stream ingested before the checkpoint;
// the remainder is what recovery replays from the log.
const checkpointAt = 0.75

// addBatches feeds edges[from:to] closed-loop in the workload's batch size.
func (r *run) addBatches(p *loom.Partitioner, from, to int) {
	for i := from; i < to; i += r.spec.batch {
		r.ops.did(p.AddBatch(r.in.edges[i:min(i+r.spec.batch, to)]))
	}
}

func (r *run) durableCycle(dir string, parent int) (durableResult, error) {
	var res durableResult
	opt := r.in.options(dir)
	p, _, err := loom.Open(opt, r.in.wl)
	r.ops.did(err)
	if err != nil {
		return res, err
	}
	defer p.Close() // harmless after the explicit Close on the success path
	n := len(r.in.edges)
	res.prefixEdges = int(checkpointAt * float64(n))

	id := r.tr.begin("durable.ingest", parent)
	t0 := time.Now()
	r.addBatches(p, 0, res.prefixEdges)
	r.ops.did(p.Sync())
	res.ingest = time.Since(t0)
	r.tr.end(id, int64(res.prefixEdges))

	for range checkpointsPerCycle {
		id = r.tr.begin("loom.Checkpoint", parent)
		t0 = time.Now()
		size, err := p.Checkpoint()
		res.checkpoint = append(res.checkpoint, time.Since(t0))
		r.tr.end(id, size)
		r.ops.did(err)
		if err != nil {
			return res, err
		}
	}

	r.addBatches(p, res.prefixEdges, n)
	p.Flush()
	want := placementHash(p.Snapshot())
	err = p.Close()
	r.ops.did(err)
	if err != nil {
		return res, err
	}

	for range recoveriesPerCycle {
		id = r.tr.begin("loom.Open.recover", parent)
		t0 = time.Now()
		q, info, err := loom.Open(opt, r.in.wl)
		res.recover = append(res.recover, time.Since(t0))
		r.tr.end(id, int64(n-res.prefixEdges))
		r.ops.did(err)
		if err != nil {
			return res, err
		}
		got := placementHash(q.Snapshot())
		r.check("recovered-placement", got == want && info.Recovered && !info.TornTail,
			"recovered hash %016x, pre-Close hash %016x, info %+v", got, want, info)
		if err := q.Close(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// durablePhase runs cycles durable cycles, each in a fresh directory that
// is removed afterwards, and returns them all; metrics take medians.
func (r *run) durablePhase(cycles int) ([]durableResult, error) {
	phase := r.tr.begin("phase.durable", 0)
	defer func() { r.tr.end(phase, int64(cycles)) }()
	var out []durableResult
	for c := range cycles {
		dir := filepath.Join(r.tmp, fmt.Sprintf("durable-%d", c))
		res, err := r.durableCycle(dir, phase)
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, fmt.Errorf("durable cycle %d: %w", c, err)
		}
		out = append(out, res)
	}
	return out, nil
}
