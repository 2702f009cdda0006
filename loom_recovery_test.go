package loom_test

// Crash-recovery golden tests (ISSUE 7): a durable partitioner that is
// killed mid-stream and reopened must land on exactly the pinned golden
// placements of the uninterrupted, non-durable run — same assignment
// hash, vertex count, sizes, stats and event sequence — at every worker
// count. The WAL layer's fault-injection sweep (loom_fault_test.go)
// proves the on-disk states these tests recover from are the ones real
// crashes produce; here the crashes are process-kill shaped (the handle
// is abandoned without Close, all written bytes survive) and each run
// calls Sync before dying so the whole acknowledged prefix must replay —
// the log group-commits, so un-synced staged records may die with the
// process by design.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"loom"
)

func durableOpts(dir string, n, workers int) loom.Options {
	return loom.Options{
		Partitions: 8, ExpectedVertices: n, WindowSize: 512, Seed: 42, Workers: workers,
		WALDir: dir,
	}
}

// ingestRange feeds edges[from:to] the same way the golden tests do:
// per-edge for workers=1, 311-edge batches otherwise.
func ingestRange(t testing.TB, p *loom.Partitioner, edges []loom.StreamEdge, from, to, workers int) {
	t.Helper()
	if workers == 1 {
		for _, e := range edges[from:to] {
			if err := p.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	const batch = 311
	for i := from; i < to; i += batch {
		end := min(i+batch, to)
		if err := p.AddBatch(edges[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

func snapshotHash(p *loom.Partitioner) (uint64, int) {
	type pair struct {
		v int64
		p int
	}
	var ps []pair
	p.Snapshot().Each(func(v int64, part int) { ps = append(ps, pair{v, part}) })
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	h := fnv.New64a()
	for _, kv := range ps {
		fmt.Fprintf(h, "%d:%d;", kv.v, kv.p)
	}
	return h.Sum64(), len(ps)
}

// TestRecoveryGoldenPlacements: open durable, ingest two thirds with a
// checkpoint after the first third, crash (abandon without Close or
// Flush), reopen — which restores the checkpoint and replays the logged
// third — finish the stream, and require the pinned golden hash. The
// uninterrupted golden run never touches a WAL, so passing here proves
// both that logging does not perturb placement and that recovery is
// bit-exact.
func TestRecoveryGoldenPlacements(t *testing.T) {
	for ds, want := range goldenPlacements {
		t.Run(ds, func(t *testing.T) {
			wl, edges, n := goldenFixture(t, ds)
			for _, workers := range []int{1, 2, 4, 8} {
				dir := t.TempDir()
				third, twoThirds := len(edges)/3, 2*len(edges)/3

				p1, info, err := loom.Open(durableOpts(dir, n, workers), wl)
				if err != nil {
					t.Fatal(err)
				}
				if info.Recovered {
					t.Fatalf("workers=%d: fresh dir reported recovery: %+v", workers, info)
				}
				ingestRange(t, p1, edges, 0, third, workers)
				if _, err := p1.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				ingestRange(t, p1, edges, third, twoThirds, workers)
				// Crash: p1 is abandoned mid-stream, un-Closed, un-Flushed.
				// Sync first so the whole ingested prefix must replay —
				// without it the group-commit buffer legitimately dies
				// with the process (the fault-injection tests cover those
				// partial-tail crashes at every byte offset).
				if err := p1.Sync(); err != nil {
					t.Fatal(err)
				}

				p2, info, err := loom.Open(durableOpts(dir, n, workers), wl)
				if err != nil {
					t.Fatal(err)
				}
				if !info.Recovered || info.CheckpointLSN == 0 || info.ReplayedRecords == 0 {
					t.Fatalf("workers=%d: expected checkpoint+replay recovery, got %+v", workers, info)
				}
				ingestRange(t, p2, edges, twoThirds, len(edges), workers)
				p2.Flush()
				if err := p2.Err(); err != nil {
					t.Fatal(err)
				}
				got, vertices := snapshotHash(p2)
				if uint64(vertices) != want.vertices || got != want.hash {
					t.Fatalf("workers=%d: recovered run hash %#x/%d vertices, want %#x/%d",
						workers, got, vertices, want.hash, want.vertices)
				}
				if err := p2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRecoveryStateEquality goes beyond the placement hash: sizes, stats
// and the full assignment map of a crashed-and-recovered partitioner must
// equal the uninterrupted run's exactly.
func TestRecoveryStateEquality(t *testing.T) {
	wl, edges, n := goldenFixture(t, "provgen")
	half := len(edges) / 2

	ref, err := loom.New(loom.Options{
		Partitions: 8, ExpectedVertices: n, WindowSize: 512, Seed: 42,
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, ref, edges, 0, len(edges), 1)
	ref.Flush()

	dir := t.TempDir()
	p1, _, err := loom.Open(durableOpts(dir, n, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, 0, half, 1)
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash immediately after the checkpoint: replay is empty, the
	// checkpoint alone must carry the full mid-window state.
	p2, info, err := loom.Open(durableOpts(dir, n, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered || info.ReplayedRecords != 0 {
		t.Fatalf("expected pure-checkpoint recovery, got %+v", info)
	}
	ingestRange(t, p2, edges, half, len(edges), 1)
	p2.Flush()
	defer p2.Close()

	if !slices.Equal(ref.Sizes(), p2.Sizes()) {
		t.Errorf("sizes diverged: %v vs %v", ref.Sizes(), p2.Sizes())
	}
	if ref.Stats() != p2.Stats() {
		t.Errorf("stats diverged:\nuninterrupted %+v\nrecovered     %+v", ref.Stats(), p2.Stats())
	}
	if !reflect.DeepEqual(ref.Assignments(), p2.Assignments()) {
		t.Error("assignment maps diverged")
	}
	re, err := ref.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	pe, err := p2.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if re != pe {
		t.Errorf("evaluations diverged: %+v vs %+v", re, pe)
	}
}

// TestRecoveryEventStreamContinuity: the Subscribe event feed across a
// crash — everything delivered before the crash plus everything delivered
// after the reopen — must be the uninterrupted run's event stream, with
// one dense Seq numbering and no replayed duplicates (recovery advances
// the sequence through replay without fanning out).
func TestRecoveryEventStreamContinuity(t *testing.T) {
	wl, edges, n := goldenFixture(t, "dblp")
	half, threeQ := len(edges)/2, 3*len(edges)/4

	ref, err := loom.New(loom.Options{
		Partitions: 8, ExpectedVertices: n, WindowSize: 512, Seed: 42,
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	var want []loom.PlacementEvent
	ref.Subscribe(func(ev loom.PlacementEvent) { want = append(want, ev) })
	ingestRange(t, ref, edges, 0, len(edges), 1)
	ref.Flush()

	dir := t.TempDir()
	var got []loom.PlacementEvent
	p1, _, err := loom.Open(durableOpts(dir, n, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	p1.Subscribe(func(ev loom.PlacementEvent) { got = append(got, ev) })
	ingestRange(t, p1, edges, 0, half, 1)
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, half, threeQ, 1)
	// Crash. The events for (half, threeQ] were delivered live and their
	// records will be replayed on reopen — but not re-delivered. Sync
	// first so the crash cannot take the staged group-commit tail with it.
	if err := p1.Sync(); err != nil {
		t.Fatal(err)
	}
	p2, _, err := loom.Open(durableOpts(dir, n, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	p2.Subscribe(func(ev loom.PlacementEvent) { got = append(got, ev) })
	ingestRange(t, p2, edges, threeQ, len(edges), 1)
	p2.Flush()

	if len(got) != len(want) {
		t.Fatalf("event stream across crash has %d events, uninterrupted has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, got[i], want[i])
		}
		if got[i].Seq != uint64(i) {
			t.Fatalf("event %d carries seq %d — numbering not dense across the crash", i, got[i].Seq)
		}
	}
}

// TestRecoveryWithAddedQueries: AddQuery calls are logged and
// checkpointed like edges; a crash between query additions must recover
// the evolved workload (and the matcher state referencing its trie
// nodes) exactly.
func TestRecoveryWithAddedQueries(t *testing.T) {
	mkwl := func() *loom.Workload {
		wl, err := loom.DatasetWorkload("dblp")
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	_, edges, n := goldenFixture(t, "dblp")
	extra := func() *loom.Pattern {
		return loom.NewPattern().
			AddEdge(0, "author", 1, "paper").
			AddEdge(1, "paper", 2, "venue").
			AddEdge(0, "author", 3, "paper")
	}
	third, twoThirds := len(edges)/3, 2*len(edges)/3

	ref, err := loom.New(loom.Options{
		Partitions: 8, ExpectedVertices: n, WindowSize: 512, Seed: 42,
	}, mkwl())
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, ref, edges, 0, third, 1)
	if err := ref.AddQuery("fanout", extra(), 0.5); err != nil {
		t.Fatal(err)
	}
	ingestRange(t, ref, edges, third, len(edges), 1)
	ref.Flush()
	wantHash, wantN := snapshotHash(ref)

	dir := t.TempDir()
	p1, _, err := loom.Open(durableOpts(dir, n, 1), mkwl())
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, 0, third, 1)
	if err := p1.AddQuery("fanout", extra(), 0.5); err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, third, twoThirds, 1)
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash after the checkpoint (which carries the query tail).
	p2, info, err := loom.Open(durableOpts(dir, n, 1), mkwl())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !info.Recovered {
		t.Fatalf("no recovery: %+v", info)
	}
	ingestRange(t, p2, edges, twoThirds, len(edges), 1)
	p2.Flush()
	if got, gotN := snapshotHash(p2); got != wantHash || gotN != wantN {
		t.Fatalf("recovered run with added query: %#x/%d, want %#x/%d", got, gotN, wantHash, wantN)
	}
}

// walFiles lists dir entries with the given suffix, sorted ascending.
func walFiles(t *testing.T, dir, suffix string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), suffix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 || off >= int64(len(data)) {
		t.Fatalf("flip %s@%d: file is %d bytes", path, off, len(data))
	}
	data[off] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptLogTruncatesWithWarning: a flipped bit mid-log is detected
// by the record CRC; recovery truncates at the last intact record,
// reports it, and the partitioner stays fully usable — degradation, not
// failure.
func TestCorruptLogTruncatesWithWarning(t *testing.T) {
	wl, edges, n := goldenFixture(t, "dblp")
	dir := t.TempDir()
	opt := durableOpts(dir, n, 1)
	opt.WALSync = loom.WALSyncAlways

	p1, _, err := loom.Open(opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, 0, 400, 1)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	segs := walFiles(t, dir, ".seg")
	if len(segs) == 0 {
		t.Fatal("no segment files written")
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, segs[0], st.Size()*2/3)

	p2, info, err := loom.Open(opt, wl)
	if err != nil {
		t.Fatalf("corrupt mid-log must degrade, not fail: %v", err)
	}
	defer p2.Close()
	if !info.TornTail || len(info.Warnings) == 0 {
		t.Fatalf("truncation not surfaced: %+v", info)
	}
	if info.LastLSN == 0 || info.LastLSN >= 400 {
		t.Fatalf("LastLSN %d: want a strict prefix of the 400 records", info.LastLSN)
	}
	if err := p2.AddEdgeE(999_999, "author", 999_998, "paper"); err != nil {
		t.Fatalf("partitioner unusable after degraded recovery: %v", err)
	}
	if err := p2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCheckpointFallsBack: when the newest checkpoint is damaged,
// recovery drops to the previous one and replays the longer log tail —
// landing on the same final state, since every record past the older
// checkpoint is still retained.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	wl, edges, n := goldenFixture(t, "provgen")
	want := goldenPlacements["provgen"]
	dir := t.TempDir()
	third, twoThirds := len(edges)/3, 2*len(edges)/3

	p1, _, err := loom.Open(durableOpts(dir, n, 2), wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, 0, third, 2)
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, third, twoThirds, 2)
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, twoThirds, len(edges), 2)
	p1.Flush()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	ckpts := walFiles(t, dir, ".ckpt")
	if len(ckpts) != 2 {
		t.Fatalf("expected 2 retained checkpoints, found %v", ckpts)
	}
	flipByte(t, ckpts[len(ckpts)-1], 64) // newest (names sort by LSN)

	p2, info, err := loom.Open(durableOpts(dir, n, 2), wl)
	if err != nil {
		t.Fatalf("corrupt newest checkpoint must fall back, not fail: %v", err)
	}
	defer p2.Close()
	if !info.CheckpointFallback || len(info.Warnings) == 0 {
		t.Fatalf("fallback not surfaced: %+v", info)
	}
	if got, vertices := snapshotHash(p2); got != want.hash || uint64(vertices) != want.vertices {
		t.Fatalf("fallback recovery diverged: %#x/%d, want %#x/%d", got, vertices, want.hash, want.vertices)
	}
}

// TestMissingSegmentIsTypedError: a gap in the segment chain cannot be
// recovered through; Open must surface loom.ErrWALGap — an error, never
// a panic or a silently shortened stream.
func TestMissingSegmentIsTypedError(t *testing.T) {
	wl, edges, n := goldenFixture(t, "dblp")
	dir := t.TempDir()
	opt := durableOpts(dir, n, 1)
	opt.WALSegmentBytes = 2048 // force several segments

	p1, _, err := loom.Open(opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, 0, 600, 1)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walFiles(t, dir, ".seg")
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments for a mid-chain gap, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	_, _, err = loom.Open(opt, wl)
	if !errors.Is(err, loom.ErrWALGap) {
		t.Fatalf("Open over a gapped log = %v, want ErrWALGap", err)
	}
}

// TestMidChainDamageIsTypedError: a flipped bit in a segment that has
// intact segments after it is not a torn tail. Open must fail with
// loom.ErrWALCorrupt, name the damaged file through DamagedSegment, and
// leave every segment in place rather than discard acknowledged records.
func TestMidChainDamageIsTypedError(t *testing.T) {
	wl, edges, n := goldenFixture(t, "dblp")
	dir := t.TempDir()
	opt := durableOpts(dir, n, 1)
	opt.WALSegmentBytes = 2048 // force several segments

	p1, _, err := loom.Open(opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, 0, 600, 1)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walFiles(t, dir, ".seg")
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments for mid-chain damage, got %d", len(segs))
	}
	flipByte(t, segs[0], 100) // inside the first segment's records

	_, _, err = loom.Open(opt, wl)
	if !errors.Is(err, loom.ErrWALCorrupt) {
		t.Fatalf("Open over mid-chain damage = %v, want ErrWALCorrupt", err)
	}
	if name, ok := loom.DamagedSegment(err); !ok || name != filepath.Base(segs[0]) {
		t.Fatalf("DamagedSegment = %q, %v; want %q", name, ok, filepath.Base(segs[0]))
	}
	if after := walFiles(t, dir, ".seg"); !slices.Equal(after, segs) {
		t.Fatalf("refused Open changed the segments:\nbefore %v\nafter  %v", segs, after)
	}
}

// TestMismatchedConfigIsTypedError: a checkpoint is only valid against
// the Options and base workload that produced it; both mismatches are
// ErrWALConfig — a configuration error, distinct from corruption.
func TestMismatchedConfigIsTypedError(t *testing.T) {
	wl, edges, n := goldenFixture(t, "dblp")
	dir := t.TempDir()
	p1, _, err := loom.Open(durableOpts(dir, n, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, 0, 200, 1)
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	badOpt := durableOpts(dir, n, 1)
	badOpt.Partitions = 16
	if _, _, err := loom.Open(badOpt, wl); !errors.Is(err, loom.ErrWALConfig) {
		t.Fatalf("Open with different Partitions = %v, want ErrWALConfig", err)
	}

	otherWL, err := loom.DatasetWorkload("lubm")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loom.Open(durableOpts(dir, n, 1), otherWL); !errors.Is(err, loom.ErrWALConfig) {
		t.Fatalf("Open with different workload = %v, want ErrWALConfig", err)
	}

	// The matching config still opens fine.
	p2, _, err := loom.Open(durableOpts(dir, n, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()
}

// TestCheckpointPortableAcrossWorkers: Workers shapes only scheduling,
// never placement (PR 4's bit-identity), so a checkpoint written under
// one worker count must restore under another and still hit the golden
// hash.
func TestCheckpointPortableAcrossWorkers(t *testing.T) {
	wl, edges, n := goldenFixture(t, "lubm")
	want := goldenPlacements["lubm"]
	dir := t.TempDir()
	half := len(edges) / 2

	p1, _, err := loom.Open(durableOpts(dir, n, 4), wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p1, edges, 0, half, 4)
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, info, err := loom.Open(durableOpts(dir, n, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !info.Recovered {
		t.Fatalf("no recovery: %+v", info)
	}
	ingestRange(t, p2, edges, half, len(edges), 1)
	p2.Flush()
	if got, vertices := snapshotHash(p2); got != want.hash || uint64(vertices) != want.vertices {
		t.Fatalf("cross-worker recovery diverged: %#x/%d, want %#x/%d", got, vertices, want.hash, want.vertices)
	}
}

// TestClosedPartitionerRefusesIngest: Close ends ingest deterministically
// (reads keep working) — an append after Close must not silently succeed
// in memory while the log no longer records it.
func TestClosedPartitionerRefusesIngest(t *testing.T) {
	wl, edges, n := goldenFixture(t, "dblp")
	dir := t.TempDir()
	p, _, err := loom.Open(durableOpts(dir, n, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p, edges, 0, 100, 1)
	p.Flush()
	wantHash, _ := snapshotHash(p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdgeE(1, "author", 2, "paper"); err == nil {
		t.Fatal("AddEdgeE after Close must fail")
	}
	if err := p.AddBatch(edges[100:101]); err == nil {
		t.Fatal("AddBatch after Close must fail")
	}
	if _, err := p.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close must fail")
	}
	if err := p.AddQuery("late", loom.Path("Person", "Paper"), 0.1); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("AddQuery after Close = %v, want a closed error", err)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("refused AddBatch/AddQuery latched the sticky Err: %v", err)
	}
	p.Flush()
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Flush after Close: sticky Err = %v, want a closed error", err)
	}
	if got, _ := snapshotHash(p); got != wantHash {
		t.Fatal("reads changed after Close")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestRecoverySchemeValuesSurviveCheckpoint is the regression test for a
// real divergence: signature r-values are drawn in label first-use order,
// so a label whose edges are all non-motif (dblp's "Year") never enters
// the window and is absent from the restored window state. Before the
// scheme's values and generator position were checkpointed, recovery
// re-drew that label lazily during replay — at a different generator
// position, so with a different r-value — flipping the single-edge motif
// gate and windowing edges the primary had placed immediately. The
// natural-order dblp stream at the examples/router configuration
// reproduces it; the golden fixtures (bfs order, window 512) never did.
func TestRecoverySchemeValuesSurviveCheckpoint(t *testing.T) {
	wl, err := loom.DatasetWorkload("dblp")
	if err != nil {
		t.Fatal(err)
	}
	edges, err := loom.GenerateDataset("dblp", 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	opts := func(dir string) loom.Options {
		return loom.Options{
			Partitions: 4, ExpectedVertices: 4000, WindowSize: 256,
			WALDir: filepath.Join(root, dir),
		}
	}

	// Primary: checkpoint at half, one more synced batch in the log tail,
	// then ship the directory (checkpoint + tail) to a replica.
	p, _, err := loom.Open(opts("primary"), wl)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 128
	half := len(edges) / 2
	for i := 0; i < half; i += batch {
		if err := p.AddBatch(edges[i:min(i+batch, half)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.AddBatch(edges[half : half+batch]); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(root, "primary"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(root, "primary", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(root, "replica")
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The replica restores the checkpoint and replays the tail; both sides
	// then finish the stream identically and must agree exactly.
	r, info, err := loom.Open(opts("replica"), wl)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered || info.ReplayedRecords == 0 {
		t.Fatalf("replica should recover a checkpoint plus a logged tail, got %+v", info)
	}
	for _, part := range []*loom.Partitioner{p, r} {
		for i := half + batch; i < len(edges); i += batch {
			if err := part.AddBatch(edges[i:min(i+batch, len(edges))]); err != nil {
				t.Fatal(err)
			}
		}
		part.Flush()
		if err := part.Err(); err != nil {
			t.Fatal(err)
		}
	}
	wantHash, wantN := snapshotHash(p)
	gotHash, gotN := snapshotHash(r)
	if gotHash != wantHash || gotN != wantN {
		t.Fatalf("replica placements (%d vertices, hash %016x) diverge from primary (%d, %016x)",
			gotN, gotHash, wantN, wantHash)
	}
	if want, got := p.Stats(), r.Stats(); !reflect.DeepEqual(want, got) {
		t.Fatalf("stats diverge:\nprimary %+v\nreplica %+v", want, got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
