package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"loom"
	"loom/internal/graph"
)

// memResult is what the in-memory phase hands to the metrics.
type memResult struct {
	loomWall, hashWall         time.Duration // median AddBatch…Flush wall per algorithm
	loomEval, hashEval         loom.Evaluation
	loomEvalWall, hashEvalWall time.Duration
	mem                        graph.MemStats
	recorded                   int // edges the recorded graph kept
	peakRSSMB                  float64
	placementHash              uint64

	// Traced run only.
	tracedWall time.Duration   // median wall of the span-recording trials
	batches    []time.Duration // every loom.AddBatch span of the first traced trial
	flush      time.Duration   // its loom.Flush span
	snapshotNS float64         // sampled between batches
	partOfNS   float64
	before     runtime.MemStats // around the first Loom trial
	after      runtime.MemStats
}

// ingestAll feeds the whole stream through AddBatch in the workload's batch
// size and flushes, returning the wall time. Loom and the Hash baseline both
// go through this loop, so their ratio is free of loop differences.
func (r *run) ingestAll(p *loom.Partitioner) time.Duration {
	edges, bs := r.in.edges, r.spec.batch
	t0 := time.Now()
	for i := 0; i < len(edges); i += bs {
		r.ops.did(p.AddBatch(edges[i:min(i+bs, len(edges))]))
	}
	p.Flush()
	return time.Since(t0)
}

// ingestTraced is ingestAll with a span around every AddBatch and the Flush.
// With keep set it also keeps the batch spans' durations and samples the
// read path between batches, readSamples times over the stream; the sampling
// is not part of the returned wall time.
func (r *run) ingestTraced(p *loom.Partitioner, parent int, keep *memResult) time.Duration {
	const readSamples = 16
	edges, bs := r.in.edges, r.spec.batch
	sampleEvery := max(len(edges)/bs/readSamples, 1)
	var snapNS, partNS []float64
	var sampling time.Duration
	t0 := time.Now()
	for i, b := 0, 0; i < len(edges); i, b = i+bs, b+1 {
		end := min(i+bs, len(edges))
		id := r.tr.begin("loom.AddBatch", parent)
		err := p.AddBatch(edges[i:end])
		d := r.tr.end(id, int64(end-i))
		r.ops.did(err)
		if keep == nil {
			continue
		}
		keep.batches = append(keep.batches, d)
		if b%sampleEvery == sampleEvery-1 {
			s0 := time.Now()
			sn, pn := r.sampleReads(p, end)
			snapNS, partNS = append(snapNS, sn), append(partNS, pn)
			sampling += time.Since(s0)
		}
	}
	id := r.tr.begin("loom.Flush", parent)
	p.Flush()
	d := r.tr.end(id, 0)
	if keep != nil {
		keep.flush, keep.snapshotNS, keep.partOfNS = d, median(snapNS), median(partNS)
	}
	return time.Since(t0) - sampling
}

// sampleReads times the two lock-free reads a router issues between
// batches: Snapshot, and PartitionOf over vertices of the streamed prefix.
func (r *run) sampleReads(p *loom.Partitioner, streamed int) (snapshotNS, partOfNS float64) {
	const snaps, lookups = 64, 512
	id := r.tr.begin("loom.Snapshot", 0)
	for range snaps {
		_ = p.Snapshot()
	}
	snapshotNS = float64(r.tr.end(id, snaps)) / snaps
	n := int(r.in.vertsAt[streamed])
	id = r.tr.begin("loom.PartitionOf", 0)
	for i := range lookups {
		p.PartitionOf(r.in.verts[(i*7919)%n])
	}
	partOfNS = float64(r.tr.end(id, lookups)) / lookups
	return snapshotNS, partOfNS
}

// memoryPhase runs Loom and the same-run Hash baseline over the stream in
// alternating trials for the phase's time budget (at least minPairs pairs),
// then evaluates both. The first Loom trial also yields the memory figures,
// the placement checks and the placement hash.
func (r *run) memoryPhase(budget time.Duration) (*memResult, error) {
	const minPairs, evaluateRounds = 3, 3
	res := &memResult{}
	opt := r.in.options("")
	phase := r.tr.begin("phase.memory", 0)
	defer func() { r.tr.end(phase, int64(len(r.in.edges))) }()

	var loomWalls, hashWalls, tracedWalls []time.Duration
	var first, firstHash *loom.Partitioner
	start := time.Now()
	for pair := 0; ; pair++ {
		if r.tr != nil {
			if pair >= 2 {
				break
			}
		} else if pair >= minPairs && time.Since(start) >= budget {
			break
		}
		// Untraced Loom trial: the end-to-end numbers, and the base the
		// tracing overhead is measured against.
		p, err := loom.New(opt, r.in.wl)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if pair == 0 {
			resetPeakRSS()
			if r.tr != nil {
				runtime.ReadMemStats(&res.before)
			}
		}
		loomWalls = append(loomWalls, r.ingestAll(p))
		if pair == 0 {
			res.peakRSSMB = peakRSSMB()
			if r.tr != nil {
				runtime.ReadMemStats(&res.after)
			}
			first = p
		}

		if r.tr != nil {
			tp, err := loom.New(opt, r.in.wl)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			id := r.tr.begin("loom.ingest", phase)
			var keep *memResult
			if pair == 0 {
				keep = res
			}
			tracedWalls = append(tracedWalls, r.ingestTraced(tp, id, keep))
			r.tr.end(id, int64(len(r.in.edges)))
		}

		h, err := loom.NewBaseline("hash", opt, r.in.wl)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		hashWalls = append(hashWalls, r.ingestAll(h))
		if pair == 0 {
			firstHash = h
		}
	}
	res.loomWall, res.hashWall, res.tracedWall = medianDur(loomWalls), medianDur(hashWalls), medianDur(tracedWalls)

	// Outputs of the first Loom trial.
	r.ops.did(first.Err())
	snap := first.Snapshot()
	r.checkPlacement("loom", snap)
	res.placementHash = placementHash(snap)
	res.mem, _ = first.GraphMemory()
	_, res.recorded, _ = first.GraphSize()

	// Evaluate is one long call, so Loom's is timed evaluateRounds times.
	evaluate := func(name string, p *loom.Partitioner, rounds int) (ev loom.Evaluation, wall time.Duration, err error) {
		var walls []time.Duration
		for range rounds {
			id := r.tr.begin(name, phase)
			t0 := time.Now()
			ev, err = p.Evaluate()
			walls = append(walls, time.Since(t0))
			r.tr.end(id, int64(res.recorded))
			r.ops.did(err)
			if err != nil {
				return ev, 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		return ev, medianDur(walls), nil
	}
	var err error
	if res.loomEval, res.loomEvalWall, err = evaluate("loom.Evaluate", first, evaluateRounds); err != nil {
		return nil, err
	}
	r.checkPlacement("hash", firstHash.Snapshot())
	if res.hashEval, res.hashEvalWall, err = evaluate("hash.Evaluate", firstHash, 1); err != nil {
		return nil, err
	}
	r.check("ipt-positive", res.loomEval.IPT > 0 && res.hashEval.IPT > 0,
		"ipt loom %.0f hash %.0f", res.loomEval.IPT, res.hashEval.IPT)
	return res, nil
}

// checkPlacement holds a flushed partitioner's snapshot to the placement
// contract: every streamed vertex is assigned, the sizes add up, and the
// balance bound the options promise is kept.
func (r *run) checkPlacement(algo string, snap *loom.Snapshot) {
	unassigned := 0
	for _, v := range r.in.verts {
		if _, ok := snap.PartitionOf(v); !ok {
			unassigned++
		}
	}
	r.check(algo+"-all-assigned", unassigned == 0 && snap.NumAssigned() == len(r.in.verts),
		"%d of %d streamed vertices unassigned, %d assigned in total", unassigned, len(r.in.verts), snap.NumAssigned())
	sum := 0
	for _, s := range snap.Sizes() {
		sum += s
	}
	r.check(algo+"-sizes-sum", sum == snap.NumAssigned(), "sum(Sizes) %d, NumAssigned %d", sum, snap.NumAssigned())
	// The capacity is a real number and partitions hold whole vertices, so
	// allow one vertex per partition over the bound.
	limit := maxImbalance - 1 + float64(partitions)/float64(len(r.in.verts)) + 1e-9
	r.check(algo+"-balanced", snap.Imbalance() <= limit, "imbalance %.5f, limit %.5f", snap.Imbalance(), limit)
}

// placementHash fingerprints an assignment in first-seen order. It is not a
// gate — the report carries it so that a placement change shows in a diff.
func placementHash(snap *loom.Snapshot) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	snap.Each(func(v int64, part int) {
		for i := range 8 {
			buf[i] = byte(v >> (8 * i))
		}
		buf[8] = byte(part)
		h.Write(buf[:])
	})
	return h.Sum64()
}

// resetPeakRSS restarts the kernel's high-water mark for this process at
// its current resident size, after returning freed heap to the OS, so that
// the peak read after the next phase belongs to that phase and not to input
// generation. Where the reset is not permitted the peak simply stays
// cumulative.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func peakRSSMB() float64 { return procStatusKB("/proc/self/status", "VmHWM") / 1024 }

// procStatusKB reads one kB-valued field of a /proc/<pid>/status file (0
// when unreadable).
func procStatusKB(path, field string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb
			}
		}
	}
	return 0
}
