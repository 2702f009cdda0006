package loom_test

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"loom"
)

// Tests for the concurrent, batch-first public API: AddBatch golden
// equivalence with the historical per-edge path, N-producer ingest under
// the race detector, snapshot consistency, placement-event completeness
// and the sticky-error surface.

func concurrencyWorkload(t testing.TB) *loom.Workload {
	t.Helper()
	wl, err := loom.DatasetWorkload("provgen")
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func concurrencyStream(t testing.TB, scale int) []loom.StreamEdge {
	t.Helper()
	edges, err := loom.GenerateDataset("provgen", scale, 3)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := loom.OrderStream(edges, "bfs", 5)
	if err != nil {
		t.Fatal(err)
	}
	return ordered
}

func distinctVertices(edges []loom.StreamEdge) int {
	seen := map[int64]bool{}
	for _, e := range edges {
		seen[e.U], seen[e.V] = true, true
	}
	return len(seen)
}

// chunk splits edges into batches of at most n.
func chunk(edges []loom.StreamEdge, n int) [][]loom.StreamEdge {
	var out [][]loom.StreamEdge
	for i := 0; i < len(edges); i += n {
		end := i + n
		if end > len(edges) {
			end = len(edges)
		}
		out = append(out, edges[i:end])
	}
	return out
}

// TestAddBatchGoldenIdentical: a single-threaded AddBatch replay must
// produce bit-identical placements to the old per-edge AddEdge path, for
// Loom and for a baseline.
func TestAddBatchGoldenIdentical(t *testing.T) {
	wl := concurrencyWorkload(t)
	edges := concurrencyStream(t, 1500)
	n := distinctVertices(edges)
	opt := loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 128}

	build := func(algo string) *loom.Partitioner {
		var p *loom.Partitioner
		var err error
		if algo == "loom" {
			p, err = loom.New(opt, wl)
		} else {
			p, err = loom.NewBaseline(algo, opt, wl)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, algo := range []string{"loom", "fennel"} {
		perEdge := build(algo)
		for _, e := range edges {
			perEdge.AddStreamEdge(e)
		}
		perEdge.Flush()

		batched := build(algo)
		for _, b := range chunk(edges, 37) { // odd size: batches straddle evictions
			if err := batched.AddBatch(b); err != nil {
				t.Fatalf("%s: AddBatch: %v", algo, err)
			}
		}
		batched.Flush()

		want := perEdge.Assignments()
		got := batched.Assignments()
		if len(want) != len(got) {
			t.Fatalf("%s: %d assigned per-edge vs %d batched", algo, len(want), len(got))
		}
		for v, part := range want {
			if got[v] != part {
				t.Fatalf("%s: vertex %d placed in %d per-edge but %d batched", algo, v, part, got[v])
			}
		}
	}
}

// TestConcurrentProducers: N producers feed one partitioner via AddBatch
// while readers snapshot and query placements; run under -race in CI.
func TestConcurrentProducers(t *testing.T) {
	wl := concurrencyWorkload(t)
	edges := concurrencyStream(t, 2000)
	n := distinctVertices(edges)
	p, err := loom.New(loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 128}, wl)
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
			// Stride-partition the stream so producers interleave.
			var mine []loom.StreamEdge
			for i := w; i < len(edges); i += producers {
				mine = append(mine, edges[i])
			}
			for _, b := range chunk(mine, 61) {
				if err := p.AddBatch(b); err != nil {
					t.Errorf("producer %d: %v", w, err)
					return
				}
			}
		}()
	}

	// Concurrent readers exercise every read path during ingest.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
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
				sizes := snap.Sizes()
				total := 0
				for _, s := range sizes {
					total += s
				}
				if total != snap.NumAssigned() {
					t.Errorf("snapshot sizes sum %d != assigned %d", total, snap.NumAssigned())
					return
				}
				p.PartitionOf(edges[0].U)
				p.Sizes()
				p.Stats()
				p.Err()
			}
		}()
	}

	wg.Wait()
	close(done)
	readers.Wait()
	p.Flush()

	if err := p.Err(); err != nil {
		t.Fatalf("ingest error: %v", err)
	}
	snap := p.Snapshot()
	if snap.NumAssigned() != n {
		t.Fatalf("assigned %d of %d vertices", snap.NumAssigned(), n)
	}
	total := 0
	for _, s := range p.Sizes() {
		total += s
	}
	if total != n {
		t.Fatalf("sizes sum %d != %d", total, n)
	}
}

// TestSnapshotIsPrefixState: because batches apply atomically, any snapshot
// taken mid-stream must equal the state of a single-threaded replay of some
// whole-batch prefix of the stream.
func TestSnapshotIsPrefixState(t *testing.T) {
	wl := concurrencyWorkload(t)
	edges := concurrencyStream(t, 1200)
	n := distinctVertices(edges)
	opt := loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 64}
	batches := chunk(edges, 50)

	// Single-threaded replay: record the full assignment after every batch.
	replay, err := loom.New(opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	prefix := make([]map[int64]int, 0, len(batches)+1)
	prefix = append(prefix, replay.Assignments()) // zero-batch state
	for _, b := range batches {
		if err := replay.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, replay.Assignments())
	}

	// Live partitioner: one producer, one concurrent snapshotter.
	p, err := loom.New(opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for _, b := range batches {
			if err := p.AddBatch(b); err != nil {
				t.Errorf("AddBatch: %v", err)
				return
			}
		}
	}()

	var snaps []map[int64]int
	for alive := true; alive; {
		select {
		case <-producerDone:
			alive = false
		default:
		}
		snaps = append(snaps, p.Snapshot().Assignments())
	}

	matches := func(snap map[int64]int) bool {
		for _, state := range prefix {
			if len(state) != len(snap) {
				continue
			}
			equal := true
			for v, part := range snap {
				if got, ok := state[v]; !ok || got != part {
					equal = false
					break
				}
			}
			if equal {
				return true
			}
		}
		return false
	}
	for i, snap := range snaps {
		if !matches(snap) {
			t.Fatalf("snapshot %d (%d assigned) equals no whole-batch prefix state", i, len(snap))
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken")
	}
}

// TestReadersUnderIngest: the lock-free read path under fire. One producer
// streams batches while N reader goroutines hammer PartitionOf and Snapshot;
// every observed snapshot must equal a whole-batch-prefix replay, and every
// observed placement must agree with the final assignment (placements are
// immutable in one-pass streaming). Run under -race in CI.
func TestReadersUnderIngest(t *testing.T) {
	wl := concurrencyWorkload(t)
	edges := concurrencyStream(t, 1500)
	n := distinctVertices(edges)
	opt := loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 64}
	batches := chunk(edges, 40)

	// Single-threaded replay of every whole-batch prefix.
	replay, err := loom.New(opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	prefix := make([]map[int64]int, 0, len(batches)+1)
	prefix = append(prefix, replay.Assignments())
	for _, b := range batches {
		if err := replay.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, replay.Assignments())
	}

	// One producer keeps the batch-prefix set linear; the readers race it.
	p, err := loom.New(opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for _, b := range batches {
			if err := p.AddBatch(b); err != nil {
				t.Errorf("AddBatch: %v", err)
				return
			}
		}
	}()

	type placement struct {
		v    int64
		part int
	}
	const readers = 4
	snaps := make([][]map[int64]int, readers)
	placed := make([][]placement, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for alive := true; alive; i++ {
				select {
				case <-producerDone:
					alive = false
				default:
				}
				// Hammer the point-read path on a sliding set of vertices.
				for j := 0; j < 64; j++ {
					v := edges[(i*64+j*17+r)%len(edges)].U
					if part, ok := p.PartitionOf(v); ok {
						if part < 0 || part >= 4 {
							t.Errorf("reader %d: PartitionOf(%d) = %d out of range", r, v, part)
							return
						}
						if i%8 == 0 {
							placed[r] = append(placed[r], placement{v, part})
						}
					}
				}
				// Periodically capture a full snapshot for prefix checking.
				if i%4 == 0 && len(snaps[r]) < 64 {
					snaps[r] = append(snaps[r], p.Snapshot().Assignments())
				}
			}
		}()
	}
	wg.Wait()
	p.Flush()
	if err := p.Err(); err != nil {
		t.Fatalf("ingest error: %v", err)
	}

	final := p.Assignments()
	matches := func(snap map[int64]int) bool {
		for _, state := range prefix {
			if len(state) != len(snap) {
				continue
			}
			equal := true
			for v, part := range snap {
				if got, ok := state[v]; !ok || got != part {
					equal = false
					break
				}
			}
			if equal {
				return true
			}
		}
		return false
	}
	totalSnaps, totalPlaced := 0, 0
	for r := 0; r < readers; r++ {
		for i, snap := range snaps[r] {
			if !matches(snap) {
				t.Fatalf("reader %d snapshot %d (%d assigned) equals no whole-batch prefix", r, i, len(snap))
			}
		}
		totalSnaps += len(snaps[r])
		for _, pl := range placed[r] {
			if got, ok := final[pl.v]; !ok || got != pl.part {
				t.Fatalf("reader %d saw vertex %d in partition %d, final says %d (ok=%v)",
					r, pl.v, pl.part, got, ok)
			}
		}
		totalPlaced += len(placed[r])
	}
	if totalSnaps == 0 || totalPlaced == 0 {
		t.Fatalf("degenerate run: %d snapshots, %d placements observed", totalSnaps, totalPlaced)
	}
	if len(final) != n {
		t.Fatalf("final assignment has %d of %d vertices", len(final), n)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:"). Placement events are delivered on the
// ingesting goroutine, so a handler can tell whose call reported them.
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, err := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestOneReadPathUnderIngest: a per-edge producer (AddEdgeE) and a batch
// producer (AddBatch) ingest while readers hammer PartitionOf and Snapshot,
// all served by the one lock-free read path. Once AddEdgeE returns, the
// same goroutine's PartitionOf shows every placement its call reported to
// the subscriber; every snapshot agrees with itself (NumAssigned = Each
// visits = Σ Sizes); and after Refine, PartitionOf, Snapshot, Sizes,
// Assignments and Evaluate all read the refined assignment. TestReaders-
// UnderIngest keeps the whole-batch-prefix check, which needs a single
// batch producer. Run under -race in CI.
func TestOneReadPathUnderIngest(t *testing.T) {
	wl := concurrencyWorkload(t)
	edges := concurrencyStream(t, 1500)
	n := distinctVertices(edges)
	p, err := loom.New(loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 64}, wl)
	if err != nil {
		t.Fatal(err)
	}

	// own collects the placements reported during the per-edge producer's
	// calls; the handler runs on the ingesting goroutine, so only that
	// producer's goroutine ever touches it.
	var edgeG atomic.Uint64
	var own []loom.PlacementEvent
	p.Subscribe(func(ev loom.PlacementEvent) {
		if ev.Kind == loom.EventPlace && goid() == edgeG.Load() {
			own = append(own, ev)
		}
	})

	var producers sync.WaitGroup
	producers.Add(2)
	checked := 0
	go func() { // per-edge producer: even stream positions
		defer producers.Done()
		edgeG.Store(goid())
		for i := 0; i < len(edges); i += 2 {
			e := edges[i]
			if err := p.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
				t.Errorf("AddEdgeE: %v", err)
				return
			}
			for _, ev := range own {
				if part, ok := p.PartitionOf(ev.V); !ok || part != ev.Partition {
					t.Errorf("after AddEdgeE returned, PartitionOf(%d) = %d, %v; its event placed it in %d",
						ev.V, part, ok, ev.Partition)
					return
				}
			}
			checked += len(own)
			own = own[:0]
		}
	}()
	go func() { // batch producer: odd stream positions
		defer producers.Done()
		var mine []loom.StreamEdge
		for i := 1; i < len(edges); i += 2 {
			mine = append(mine, edges[i])
		}
		for _, b := range chunk(mine, 37) {
			if err := p.AddBatch(b); err != nil {
				t.Errorf("AddBatch: %v", err)
				return
			}
		}
	}()

	done := make(chan struct{})
	var readers sync.WaitGroup
	snaps := make([]int, 2)
	for r := range snaps {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p.PartitionOf(edges[i%len(edges)].V)
				snap := p.Snapshot()
				visits, total := 0, 0
				snap.Each(func(int64, int) { visits++ })
				for _, s := range snap.Sizes() {
					total += s
				}
				if visits != snap.NumAssigned() || total != snap.NumAssigned() {
					t.Errorf("snapshot: NumAssigned %d, Each visits %d, Σ Sizes %d",
						snap.NumAssigned(), visits, total)
					return
				}
				snaps[r]++
			}
		}()
	}
	producers.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}
	if checked == 0 || snaps[0]+snaps[1] == 0 {
		t.Fatalf("degenerate run: %d own placements checked, %v snapshots", checked, snaps)
	}
	p.Flush()
	if err := p.Err(); err != nil {
		t.Fatalf("ingest error: %v", err)
	}

	before := p.Assignments()
	st, err := p.Refine(5)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	after := snap.Assignments()
	moved := 0
	for v, part := range after {
		if part != before[v] {
			moved++
		}
		if got, ok := p.PartitionOf(v); !ok || got != part {
			t.Fatalf("after Refine: PartitionOf(%d) = %d, %v; snapshot says %d", v, got, ok, part)
		}
	}
	if st.Moves == 0 || moved == 0 || len(after) != len(before) {
		t.Fatalf("Refine moved %d (reported %d) of %d vertices, want a visible change", moved, st.Moves, len(after))
	}
	if got := p.Assignments(); len(got) != len(after) {
		t.Fatalf("Assignments has %d vertices, snapshot %d", len(got), len(after))
	}
	for i, s := range p.Sizes() {
		if s != snap.Sizes()[i] {
			t.Fatalf("Sizes %v, snapshot %v", p.Sizes(), snap.Sizes())
		}
	}
	// Evaluate's edge cut must be the refined assignment's, recounted here
	// over the distinct non-loop stream edges.
	type key struct{ u, v int64 }
	cut, seen := 0, map[key]bool{}
	for _, e := range edges {
		k := key{min(e.U, e.V), max(e.U, e.V)}
		if e.U == e.V || seen[k] {
			continue
		}
		seen[k] = true
		if after[e.U] != after[e.V] {
			cut++
		}
	}
	ev, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.EdgeCut != cut || ev.AssignedVertices != len(after) || ev.Imbalance != snap.Imbalance() {
		t.Fatalf("Evaluate: cut %d, %d assigned, imbalance %v; refined snapshot: cut %d, %d assigned, imbalance %v",
			ev.EdgeCut, ev.AssignedVertices, ev.Imbalance, cut, len(after), snap.Imbalance())
	}
}

// TestPlacementEventsMirrorAssignment: replaying the EventPlace feed must
// reconstruct the final assignment exactly, with dense sequence numbers,
// and the evict feed must account for every windowed edge.
func TestPlacementEventsMirrorAssignment(t *testing.T) {
	wl := concurrencyWorkload(t)
	edges := concurrencyStream(t, 1200)
	n := distinctVertices(edges)
	p, err := loom.New(loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 64}, wl)
	if err != nil {
		t.Fatal(err)
	}

	// Handlers run under the partitioner's ingest lock, so plain appends
	// are already serialised; the final read happens after Flush returns.
	var events []loom.PlacementEvent
	p.Subscribe(func(ev loom.PlacementEvent) { events = append(events, ev) })
	// A second subscriber must see every event too.
	var count int
	p.Subscribe(func(loom.PlacementEvent) { count++ })

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
			for _, b := range chunk(mine, 43) {
				if err := p.AddBatch(b); err != nil {
					t.Errorf("producer %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Flush()

	if count != len(events) {
		t.Fatalf("second subscriber saw %d events, first %d", count, len(events))
	}
	mirror := map[int64]int{}
	evicted := 0
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: not dense/in order", i, ev.Seq)
		}
		switch ev.Kind {
		case loom.EventPlace:
			if _, dup := mirror[ev.V]; dup {
				t.Fatalf("vertex %d placed twice", ev.V)
			}
			mirror[ev.V] = ev.Partition
		case loom.EventEvict:
			if ev.Partition != -1 {
				t.Fatalf("evict event carries partition %d", ev.Partition)
			}
			evicted++
		default:
			t.Fatalf("unknown event kind %v", ev.Kind)
		}
	}
	want := p.Assignments()
	if len(mirror) != len(want) {
		t.Fatalf("events placed %d vertices, assignment has %d", len(mirror), len(want))
	}
	for v, part := range want {
		if mirror[v] != part {
			t.Fatalf("vertex %d: events say %d, assignment says %d", v, mirror[v], part)
		}
	}
	st := p.Stats()
	if evicted != st.WindowedEdges {
		t.Fatalf("saw %d evict events, %d edges were windowed", evicted, st.WindowedEdges)
	}
	if st.WindowedEdges == 0 {
		t.Fatal("degenerate run: no edges were windowed")
	}
}

// TestPlacementEventsBaseline: baselines emit place events too (they have
// no window, so no evict events).
func TestPlacementEventsBaseline(t *testing.T) {
	p, err := loom.NewBaseline("hash", loom.Options{Partitions: 2, ExpectedVertices: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var events []loom.PlacementEvent
	p.Subscribe(func(ev loom.PlacementEvent) { events = append(events, ev) })
	if err := p.AddBatch([]loom.StreamEdge{
		{U: 1, LU: "a", V: 2, LV: "b"},
		{U: 2, LU: "b", V: 3, LV: "a"},
	}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 placements", len(events))
	}
	for _, ev := range events {
		if ev.Kind != loom.EventPlace {
			t.Fatalf("baseline emitted non-place event %+v", ev)
		}
		if got, ok := p.PartitionOf(ev.V); !ok || got != ev.Partition {
			t.Fatalf("event %+v disagrees with PartitionOf (%d, %v)", ev, got, ok)
		}
	}
}

// TestStickyIngestErrors: corrupt input (a label conflict) is returned by
// AddBatch/AddEdgeE, retained by Err, and does not poison the rest of the
// stream; AddEdge keeps its historical panic.
func TestStickyIngestErrors(t *testing.T) {
	wl := loom.NewWorkload("social")
	wl.Add("fof", loom.Path("person", "person", "person"), 1.0)
	p, err := loom.New(loom.Options{Partitions: 2, ExpectedVertices: 16, WindowSize: 4}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("fresh partitioner has sticky error %v", err)
	}
	batch := []loom.StreamEdge{
		{U: 1, LU: "person", V: 2, LV: "person"},
		{U: 1, LU: "city", V: 3, LV: "person"}, // vertex 1 relabelled: corrupt
		{U: 2, LU: "person", V: 3, LV: "person"},
	}
	batchErr := p.AddBatch(batch)
	if batchErr == nil {
		t.Fatal("label conflict: want error from AddBatch")
	}
	if !strings.Contains(batchErr.Error(), "label") {
		t.Errorf("error should describe the conflict, got %v", batchErr)
	}
	if got := p.Err(); got == nil || got.Error() != batchErr.Error() {
		t.Errorf("Err() = %v, want the first batch error %v", got, batchErr)
	}
	// The valid edges of the batch were still processed.
	p.Flush()
	for _, v := range []int64{1, 2, 3} {
		if _, ok := p.PartitionOf(v); !ok {
			t.Errorf("vertex %d unassigned after partial batch", v)
		}
	}
	// AddEdgeE returns the error; Err keeps the first.
	if err := p.AddEdgeE(2, "city", 4, "person"); err == nil {
		t.Error("AddEdgeE label conflict: want error")
	}
	if got := p.Err(); got == nil || got.Error() != batchErr.Error() {
		t.Errorf("Err() changed to %v, want sticky first error", got)
	}
	// AddEdge still panics for compatibility.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddEdge on corrupt input should panic")
			}
		}()
		p.AddEdge(3, "city", 5, "person")
	}()
}

// TestSnapshotImmutable: a snapshot must not change as ingest continues.
func TestSnapshotImmutable(t *testing.T) {
	wl := concurrencyWorkload(t)
	edges := concurrencyStream(t, 1000)
	n := distinctVertices(edges)
	p, err := loom.New(loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 32}, wl)
	if err != nil {
		t.Fatal(err)
	}
	half := edges[:len(edges)/2]
	if err := p.AddBatch(half); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	before := snap.Assignments()
	beforeSizes := snap.Sizes()

	if err := p.AddBatch(edges[len(edges)/2:]); err != nil {
		t.Fatal(err)
	}
	p.Flush()

	after := snap.Assignments()
	if len(after) != len(before) {
		t.Fatalf("snapshot grew from %d to %d assignments", len(before), len(after))
	}
	for v, part := range before {
		if after[v] != part {
			t.Fatalf("snapshot placement of %d changed %d → %d", v, part, after[v])
		}
	}
	for i, s := range snap.Sizes() {
		if s != beforeSizes[i] {
			t.Fatalf("snapshot sizes changed: %v → %v", beforeSizes, snap.Sizes())
		}
	}
	if snap.Partitions() != 4 || snap.Name() != "loom" {
		t.Errorf("snapshot metadata: k=%d name=%q", snap.Partitions(), snap.Name())
	}
	if snap.Imbalance() < 0 {
		t.Errorf("negative imbalance %v", snap.Imbalance())
	}
	// Each enumerates exactly the snapshot's assignments.
	seen := 0
	snap.Each(func(v int64, part int) {
		seen++
		if before[v] != part {
			t.Fatalf("Each(%d)=%d disagrees with Assignments %d", v, part, before[v])
		}
	})
	if seen != len(before) {
		t.Fatalf("Each visited %d, want %d", seen, len(before))
	}
}
