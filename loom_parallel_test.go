package loom_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"loom"
)

// Tests for the stage-parallel AddBatch pipeline (Options.Workers > 1):
// golden bit-identity with single-threaded replay on the ipt dataset
// fixtures, event-stream equivalence, sticky-error semantics through the
// parallel validate path, and multi-producer ingest under the race
// detector.

// parallelFixture returns one dataset's workload and bfs-ordered stream —
// the same fixtures the ipt golden tests replay.
func parallelFixture(t testing.TB, dataset string, scale int) (*loom.Workload, []loom.StreamEdge) {
	t.Helper()
	wl, err := loom.DatasetWorkload(dataset)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := loom.GenerateDataset(dataset, scale, 3)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := loom.OrderStream(edges, "bfs", 5)
	if err != nil {
		t.Fatal(err)
	}
	return wl, ordered
}

// ingestBatches feeds the stream via AddBatch in fixed-size chunks and
// flushes.
func ingestBatches(t testing.TB, p *loom.Partitioner, edges []loom.StreamEdge, batch int) {
	t.Helper()
	for _, b := range chunk(edges, batch) {
		if err := p.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
}

// TestAddBatchParallelGolden: for workers ∈ {2, 4, 8}, parallel AddBatch
// must produce placements, sizes and stats bit-identical to the workers=1
// sequential replay, on both an immediate-heavy and a motif-heavy fixture.
// Runs under -race in CI.
func TestAddBatchParallelGolden(t *testing.T) {
	for _, dataset := range []string{"provgen", "musicbrainz"} {
		wl, edges := parallelFixture(t, dataset, 1500)
		n := distinctVertices(edges)
		opt := loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 128, Workers: 1}
		seq, err := loom.New(opt, wl)
		if err != nil {
			t.Fatal(err)
		}
		ingestBatches(t, seq, edges, 211)
		want := seq.Assignments()
		wantStats := seq.Stats()
		wantSizes := seq.Sizes()

		for _, workers := range []int{2, 4, 8} {
			popt := opt
			popt.Workers = workers
			par, err := loom.New(popt, wl)
			if err != nil {
				t.Fatal(err)
			}
			ingestBatches(t, par, edges, 211)
			label := fmt.Sprintf("%s workers=%d", dataset, workers)
			if got := par.Stats(); got != wantStats {
				t.Fatalf("%s: stats diverged:\nwant %+v\ngot  %+v", label, wantStats, got)
			}
			for i, s := range par.Sizes() {
				if s != wantSizes[i] {
					t.Fatalf("%s: partition %d size %d, want %d", label, i, s, wantSizes[i])
				}
			}
			got := par.Assignments()
			if len(got) != len(want) {
				t.Fatalf("%s: %d assigned, want %d", label, len(got), len(want))
			}
			for v, part := range want {
				if got[v] != part {
					t.Fatalf("%s: vertex %d placed in %d, want %d", label, v, got[v], part)
				}
			}
		}
	}
}

// TestAddBatchParallelEvents: the placement-event feed (order, sequence
// numbers, payloads) must be identical between sequential and parallel
// ingest — a query router mirroring either sees the same history.
func TestAddBatchParallelEvents(t *testing.T) {
	wl, edges := parallelFixture(t, "provgen", 1200)
	n := distinctVertices(edges)
	run := func(workers int) []loom.PlacementEvent {
		p, err := loom.New(loom.Options{
			Partitions: 4, ExpectedVertices: n, WindowSize: 64, Workers: workers,
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		var events []loom.PlacementEvent
		p.Subscribe(func(ev loom.PlacementEvent) { events = append(events, ev) })
		ingestBatches(t, p, edges, 137)
		return events
	}
	want := run(1)
	got := run(4)
	if len(got) != len(want) {
		t.Fatalf("%d events parallel, %d sequential", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d diverged: parallel %+v, sequential %+v", i, got[i], want[i])
		}
	}
}

// TestAddBatchParallelStickyErrors: corrupt edges inside a large batch
// must be dropped by the parallel validate pass with the same returned
// error, sticky Err and surviving placements as the sequential path.
func TestAddBatchParallelStickyErrors(t *testing.T) {
	wl := loom.NewWorkload("social")
	wl.Add("fof", loom.Path("person", "person", "person"), 1.0)

	build := func(workers int) *loom.Partitioner {
		p, err := loom.New(loom.Options{
			Partitions: 2, ExpectedVertices: 512, WindowSize: 16, Workers: workers,
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// A batch well past the parallel threshold with two corrupt edges.
	var batch []loom.StreamEdge
	for i := int64(0); i < 256; i++ {
		batch = append(batch, loom.StreamEdge{U: i, LU: "person", V: i + 1, LV: "person"})
	}
	batch[100] = loom.StreamEdge{U: 7, LU: "city", V: 300, LV: "person"}  // vertex 7 relabelled
	batch[200] = loom.StreamEdge{U: 301, LU: "person", V: 9, LV: "venue"} // vertex 9 relabelled

	seq := build(1)
	seqErr := seq.AddBatch(batch)
	seq.Flush()

	par := build(4)
	parErr := par.AddBatch(batch)
	par.Flush()

	if seqErr == nil || parErr == nil {
		t.Fatalf("want errors from both paths, got seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("first batch error diverged:\nseq %v\npar %v", seqErr, parErr)
	}
	if !strings.Contains(parErr.Error(), "label") {
		t.Errorf("error should describe the conflict, got %v", parErr)
	}
	if got := par.Err(); got == nil || got.Error() != parErr.Error() {
		t.Errorf("sticky Err() = %v, want %v", got, parErr)
	}
	want, got := seq.Assignments(), par.Assignments()
	if len(want) != len(got) {
		t.Fatalf("%d assigned sequential vs %d parallel", len(want), len(got))
	}
	for v, part := range want {
		if got[v] != part {
			t.Fatalf("vertex %d placed in %d parallel, %d sequential", v, got[v], part)
		}
	}
	// The corrupt edges' fresh endpoints must not have been placed.
	for _, v := range []int64{300, 301} {
		if _, ok := par.PartitionOf(v); ok {
			t.Errorf("vertex %d from a dropped edge was placed", v)
		}
	}
}

// TestAddBatchParallelConcurrentProducers: N producers feeding a Workers>1
// partitioner while readers snapshot — the pipeline must stay inside the
// ingest lock's exclusion. Run under -race in CI.
func TestAddBatchParallelConcurrentProducers(t *testing.T) {
	wl, edges := parallelFixture(t, "provgen", 1500)
	n := distinctVertices(edges)
	p, err := loom.New(loom.Options{
		Partitions: 4, ExpectedVertices: n, WindowSize: 128, Workers: 4,
	}, wl)
	if err != nil {
		t.Fatal(err)
	}

	const producers = 4
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []loom.StreamEdge
			for i := w; i < len(edges); i += producers {
				mine = append(mine, edges[i])
			}
			for _, b := range chunk(mine, 97) {
				if err := p.AddBatch(b); err != nil {
					t.Errorf("producer %d: %v", w, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := p.Snapshot()
			total := 0
			for _, s := range snap.Sizes() {
				total += s
			}
			if total != snap.NumAssigned() {
				t.Errorf("snapshot sizes sum %d != assigned %d", total, snap.NumAssigned())
				return
			}
			p.PartitionOf(edges[0].U)
			p.Stats()
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	p.Flush()

	if err := p.Err(); err != nil {
		t.Fatalf("ingest error: %v", err)
	}
	if got := p.Snapshot().NumAssigned(); got != n {
		t.Fatalf("assigned %d of %d vertices", got, n)
	}
}

// TestOptionsWorkersValidation: the public knob rejects negatives and
// defaults 0 to GOMAXPROCS.
func TestOptionsWorkersValidation(t *testing.T) {
	wl := loom.NewWorkload("w")
	wl.Add("q", loom.Path("a", "b"), 1.0)
	if _, err := loom.New(loom.Options{Partitions: 2, ExpectedVertices: 8, Workers: -2}, wl); err == nil {
		t.Error("Workers=-2: want error")
	}
	if _, err := loom.New(loom.Options{Partitions: 2, ExpectedVertices: 8}, wl); err != nil {
		t.Errorf("Workers=0 (default): %v", err)
	}
	if _, err := loom.NewBaseline("ldg", loom.Options{Partitions: 2, ExpectedVertices: 8, Workers: 8}, nil); err != nil {
		t.Errorf("baseline with Workers set: %v", err)
	}
}
