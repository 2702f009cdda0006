package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"loom/internal/graph"
	"loom/internal/partition"
)

// pipelineStream builds a deterministic synthetic stream that exercises
// every per-edge path: motif edges (a-b and friends from paperTrie),
// non-motif edges, self-loops, exact duplicates, and vertices whose first
// sighting happens mid-batch.
func pipelineStream(n int, seed int64) []graph.StreamEdge {
	rng := rand.New(rand.NewSource(seed))
	labels := []graph.Label{"a", "b", "c", "d"}
	out := make([]graph.StreamEdge, 0, n)
	for len(out) < n {
		u := graph.VertexID(rng.Intn(n / 4))
		v := graph.VertexID(rng.Intn(n / 4))
		lu := labels[int(u)%len(labels)]
		lv := labels[int(v)%len(labels)]
		out = append(out, graph.StreamEdge{U: u, LU: lu, V: v, LV: lv})
		if rng.Intn(16) == 0 && len(out) > 1 { // sprinkle exact duplicates
			out = append(out, out[rng.Intn(len(out))])
		}
		if rng.Intn(32) == 0 { // and self-loops
			out = append(out, graph.StreamEdge{U: u, LU: lu, V: u, LV: lu})
		}
	}
	return out[:n]
}

// replaySerial ingests the stream edge by edge and returns the core.
func replaySerial(t *testing.T, cfg Config, stream []graph.StreamEdge) *Loom {
	t.Helper()
	l := mustLoom(t, cfg, paperTrie(t))
	for _, se := range stream {
		l.ProcessEdge(se)
	}
	l.Flush()
	return l
}

// assertIdentical fails unless two cores agree on every placement, every
// partition size and every stats counter — the bit-identity contract of
// the batch pipeline.
func assertIdentical(t *testing.T, label string, want, got *Loom) {
	t.Helper()
	if w, g := want.Stats(), got.Stats(); w != g {
		t.Fatalf("%s: stats diverged:\nwant %+v\ngot  %+v", label, w, g)
	}
	wa, ga := want.Assignment(), got.Assignment()
	if wa.NumAssigned() != ga.NumAssigned() {
		t.Fatalf("%s: %d vs %d assigned", label, wa.NumAssigned(), ga.NumAssigned())
	}
	for i, ws := range wa.Sizes {
		if ga.Sizes[i] != ws {
			t.Fatalf("%s: partition %d size %d, want %d", label, i, ga.Sizes[i], ws)
		}
	}
	wa.Each(func(v graph.VertexID, p partition.ID) {
		if gp := ga.Of(v); gp != p {
			t.Fatalf("%s: vertex %d placed in %d, want %d", label, v, gp, p)
		}
	})
}

// TestProcessBatchFuncGolden: the parallel pipeline must be bit-identical
// to per-edge replay for every worker count, across uneven batch splits
// that straddle evictions, duplicates and self-loops.
func TestProcessBatchFuncGolden(t *testing.T) {
	cfg := Config{K: 4, Capacity: 400, WindowSize: 64, MaxImbalance: 2.0}
	stream := pipelineStream(4000, 7)
	want := replaySerial(t, cfg, stream)

	for _, workers := range []int{2, 4, 8} {
		for _, batch := range []int{MinParallelBatch, 193, 1024, len(stream)} {
			wcfg := cfg
			wcfg.Workers = workers
			l := mustLoom(t, wcfg, paperTrie(t))
			for lo := 0; lo < len(stream); lo += batch {
				hi := lo + batch
				if hi > len(stream) {
					hi = len(stream)
				}
				part := stream[lo:hi]
				l.ProcessBatchFunc(len(part), func(i int) graph.StreamEdge { return part[i] }, nil)
			}
			l.Flush()
			assertIdentical(t, fmt.Sprintf("workers=%d batch=%d", workers, batch), want, l)
		}
	}
}

// TestProcessBatchFuncSmallBatch: under MinParallelBatch the pipeline must
// fall back to the serial path (no gang) and still match per-edge replay.
func TestProcessBatchFuncSmallBatch(t *testing.T) {
	cfg := Config{K: 2, Capacity: 100, WindowSize: 16, MaxImbalance: 2.0}
	stream := pipelineStream(MinParallelBatch-1, 11)
	want := replaySerial(t, cfg, stream)

	wcfg := cfg
	wcfg.Workers = 4
	l := mustLoom(t, wcfg, paperTrie(t))
	l.ProcessBatchFunc(len(stream), func(i int) graph.StreamEdge { return stream[i] }, nil)
	l.Flush()
	assertIdentical(t, "small batch", want, l)
}

// TestProcessBatchFuncValidateDrops: edges rejected by the validate hook
// must be skipped entirely — not interned, not placed, not counted — in
// both the serial and parallel pipelines, exactly as a per-edge caller
// that never submits them.
func TestProcessBatchFuncValidateDrops(t *testing.T) {
	cfg := Config{K: 3, Capacity: 300, WindowSize: 32, MaxImbalance: 2.0}
	stream := pipelineStream(1500, 13)
	rejected := func(i int) bool { return i%7 == 3 }

	var kept []graph.StreamEdge
	for i, se := range stream {
		if !rejected(i) {
			kept = append(kept, se)
		}
	}
	want := replaySerial(t, cfg, kept)

	for _, workers := range []int{1, 4} {
		wcfg := cfg
		wcfg.Workers = workers
		l := mustLoom(t, wcfg, paperTrie(t))
		var validated atomic.Int32
		l.ProcessBatchFunc(len(stream),
			func(i int) graph.StreamEdge { return stream[i] },
			func(reject func(int)) {
				validated.Add(1)
				for i := range stream {
					if rejected(i) {
						reject(i)
					}
				}
				reject(-1)          // out-of-range rejects must be ignored
				reject(len(stream)) // (defensive caller contract)
			})
		l.Flush()
		if validated.Load() != 1 {
			t.Fatalf("workers=%d: validate called %d times, want 1", workers, validated.Load())
		}
		assertIdentical(t, fmt.Sprintf("drops workers=%d", workers), want, l)
	}
}

// TestParallelScatterGolden forces eviction rounds through the parallel
// bid scatter (scatterMin=1, so every equal-opportunism round fans out to
// the gang) and requires placements identical to the serial scatter.
func TestParallelScatterGolden(t *testing.T) {
	cfg := Config{K: 4, Capacity: 400, WindowSize: 128, MaxImbalance: 2.0}
	// All-motif labels maximise window residency and match-list length.
	rng := rand.New(rand.NewSource(17))
	stream := make([]graph.StreamEdge, 3000)
	for i := range stream {
		u := graph.VertexID(rng.Intn(300))
		v := graph.VertexID(300 + rng.Intn(300))
		stream[i] = graph.StreamEdge{U: u, LU: "a", V: v, LV: "b"}
	}
	want := replaySerial(t, cfg, stream)

	wcfg := cfg
	wcfg.Workers = 4
	l := mustLoom(t, wcfg, paperTrie(t))
	l.SetScatterMin(1)
	l.ProcessBatchFunc(len(stream), func(i int) graph.StreamEdge { return stream[i] }, nil)
	l.Flush()
	if l.Stats().Evictions == 0 {
		t.Fatal("degenerate run: no evictions — parallel scatter never exercised")
	}
	assertIdentical(t, "parallel scatter", want, l)
}

// TestProcessBatchFuncMidBatchFirstSeen pins the trickiest intern case: a
// vertex unknown at batch start appearing twice in one batch (first
// sighting mid-batch) must get one dense index, assigned at its first
// position, with its first label winning — just as sequential ingest does.
func TestProcessBatchFuncMidBatchFirstSeen(t *testing.T) {
	cfg := Config{K: 2, Capacity: 100, WindowSize: 8, MaxImbalance: 2.0}
	var stream []graph.StreamEdge
	// Enough known-vertex padding to clear MinParallelBatch, then a fresh
	// vertex (900) used twice in quick succession.
	for i := 0; i < MinParallelBatch; i++ {
		stream = append(stream, graph.StreamEdge{
			U: graph.VertexID(i % 8), LU: "a",
			V: graph.VertexID(8 + i%8), LV: "b",
		})
	}
	stream = append(stream,
		graph.StreamEdge{U: 900, LU: "a", V: 1, LV: "a"}, // first sighting: label a
		graph.StreamEdge{U: 900, LU: "a", V: 8, LV: "b"}, // reuse, motif edge
	)
	want := replaySerial(t, cfg, stream)

	wcfg := cfg
	wcfg.Workers = 4
	l := mustLoom(t, wcfg, paperTrie(t))
	l.ProcessBatchFunc(len(stream), func(i int) graph.StreamEdge { return stream[i] }, nil)
	l.Flush()
	assertIdentical(t, "mid-batch first-seen", want, l)
}

// TestGang: the fork-join pool covers every index exactly once per run,
// supports post/join with overlapped caller work, and is reusable.
func TestGang(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		g := spawnGang(n)
		for round := 0; round < 3; round++ {
			const items = 1000
			var hits [items]atomic.Int32
			var next atomic.Int64
			g.run(func(int) {
				for {
					i := int(next.Add(1)) - 1
					if i >= items {
						return
					}
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d round=%d: item %d visited %d times", n, round, i, got)
				}
			}
		}
		g.stop()
	}
}

// TestConfigWorkersValidation: 0 defaults to GOMAXPROCS, negatives are
// rejected.
func TestConfigWorkersValidation(t *testing.T) {
	trie := paperTrie(t)
	if _, err := New(Config{K: 2, Capacity: 10, Workers: -1}, trie); err == nil {
		t.Error("Workers=-1: want error")
	}
	l := mustLoom(t, Config{K: 2, Capacity: 10}, trie)
	if l.Config().Workers < 1 {
		t.Errorf("Workers default %d, want >= 1", l.Config().Workers)
	}
	l = mustLoom(t, Config{K: 2, Capacity: 10, Workers: 6}, trie)
	if l.Config().Workers != 6 {
		t.Errorf("Workers = %d, want 6", l.Config().Workers)
	}
}
