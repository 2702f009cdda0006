package loom

// Fault-injection sweep (ISSUE 7, satellite a): crash the WAL writer at
// arbitrary byte offsets — every record boundary of a small stream, plus
// mid-record and mid-checkpoint offsets — resolve the crash both as a
// power loss (unsynced bytes vanish) and a process kill (they survive),
// and require recovery to land bit-identically on the longest
// fully-persisted prefix of the stream. Runs under -race in CI.
//
// The sweep drives OpenFS over a deterministic in-memory filesystem
// (wal.MemFS) whose write budget tears the stream at an exact byte; a dry
// run records the cumulative bytes written after each ingest call, which
// makes every record boundary addressable without knowing the encoding.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"loom/internal/wal"
)

// faultStream builds the sweep fixture: a 120-edge prefix of the dblp
// stream against a 64-edge window, small enough to sweep every boundary
// but large enough that evictions — and therefore placements — happen
// throughout.
func faultStream(t testing.TB) (*Workload, []StreamEdge, Options) {
	t.Helper()
	wl, err := DatasetWorkload("dblp")
	if err != nil {
		t.Fatal(err)
	}
	edges, err := GenerateDataset("dblp", 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := OrderStream(edges, "bfs", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered) < 120 {
		t.Fatalf("fixture too small: %d edges", len(ordered))
	}
	opt := Options{
		Partitions: 4, ExpectedVertices: 256, WindowSize: 64, Seed: 42,
		WALDir: "wal", WALSync: WALSyncAlways,
	}
	return wl, ordered[:120], opt
}

func faultHash(p *Partitioner) uint64 {
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
	return h.Sum64()
}

// prefixGolden computes (and memoises) the reference state after the
// first n edges, via a plain in-memory partitioner that never sees a WAL.
type prefixGolden struct {
	t     testing.TB
	wl    *Workload
	edges []StreamEdge
	opt   Options
	memo  map[int]goldenState
}

type goldenState struct {
	hash  uint64
	stats Stats
}

func (g *prefixGolden) at(n int) goldenState {
	if s, ok := g.memo[n]; ok {
		return s
	}
	opt := g.opt
	opt.WALDir = ""
	p, err := New(opt, g.wl)
	if err != nil {
		g.t.Fatal(err)
	}
	for _, e := range g.edges[:n] {
		if err := p.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
			g.t.Fatal(err)
		}
	}
	s := goldenState{hash: faultHash(p), stats: p.Stats()}
	g.memo[n] = s
	return s
}

// dryRun ingests the whole stream uncrashed and returns the cumulative
// fs.Written() watermark after each edge's append — boundaries[i] is the
// exact byte total once edge i is fully on disk.
func dryRun(t *testing.T, wl *Workload, edges []StreamEdge, opt Options) []int64 {
	fs := wal.NewMemFS()
	p, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := make([]int64, len(edges))
	for i, e := range edges {
		if err := p.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
			t.Fatal(err)
		}
		boundaries[i] = fs.Written()
	}
	return boundaries
}

// crashRecoverCompare ingests the stream into a budgeted MemFS until the
// crash fires, resolves it with resolve, reopens, and requires the
// recovered partitioner to equal the golden prefix of expect edges.
func crashRecoverCompare(t *testing.T, wl *Workload, edges []StreamEdge, opt Options,
	budget int64, resolve func(*wal.MemFS), expect int, golden *prefixGolden) {
	t.Helper()
	fs := wal.NewMemFS()
	p1, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	// budget is an absolute watermark from dryRun; SetBudget is relative
	// to what this fs has already written (the open-time segment header).
	fs.SetBudget(budget - fs.Written())
	for _, e := range edges {
		if err := p1.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
			break // the crash fired; the writer is down
		}
	}
	resolve(fs)

	p2, info, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatalf("budget %d: recovery failed: %v", budget, err)
	}
	if info.LastLSN != uint64(expect) {
		t.Fatalf("budget %d: recovered to LSN %d, want %d (torn=%v, warnings=%v)",
			budget, info.LastLSN, expect, info.TornTail, info.Warnings)
	}
	want := golden.at(expect)
	if got := faultHash(p2); got != want.hash {
		t.Fatalf("budget %d: recovered hash %#x != golden prefix(%d) %#x", budget, got, expect, want.hash)
	}
	if got := p2.Stats(); got != want.stats {
		t.Fatalf("budget %d: recovered stats %+v != golden prefix(%d) %+v", budget, got, expect, want.stats)
	}
	// The recovered partitioner must also still ingest.
	rest := edges[expect:]
	if len(rest) > 0 {
		e := rest[0]
		if err := p2.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
			t.Fatalf("budget %d: recovered partitioner refuses ingest: %v", budget, err)
		}
	}
}

// TestFaultSweepEveryRecordBoundary crashes the writer at, just before,
// and just after every record boundary of the stream, under both crash
// resolutions. With WALSyncAlways every completed append is synced, so
// the recoverable prefix is identical for power loss and process kill:
// exactly the records whose bytes fit the budget.
func TestFaultSweepEveryRecordBoundary(t *testing.T) {
	wl, edges, opt := faultStream(t)
	boundaries := dryRun(t, wl, edges, opt)
	golden := &prefixGolden{t: t, wl: wl, edges: edges, opt: opt, memo: map[int]goldenState{}}

	// prefixAt returns how many records are fully written within budget b.
	prefixAt := func(b int64) int {
		n := 0
		for n < len(boundaries) && boundaries[n] <= b {
			n++
		}
		return n
	}
	resolutions := []struct {
		name    string
		resolve func(*wal.MemFS)
	}{
		{"power-loss", func(m *wal.MemFS) { m.CrashLose() }},
		{"process-kill", func(m *wal.MemFS) { m.CrashKeep() }},
	}
	for _, res := range resolutions {
		t.Run(res.name, func(t *testing.T) {
			for i, b := range boundaries {
				// Exactly at the boundary: edge i fully persisted.
				crashRecoverCompare(t, wl, edges, opt, b, res.resolve, i+1, golden)
				// Mid-record: a torn tail that must truncate back to edge i-1.
				if mid := b - 3; mid >= 0 {
					crashRecoverCompare(t, wl, edges, opt, mid, res.resolve, prefixAt(mid), golden)
				}
				// A few bytes into the next record's frame.
				if i+1 < len(boundaries) {
					crashRecoverCompare(t, wl, edges, opt, b+2, res.resolve, i+1, golden)
				}
			}
		})
	}
}

// TestFaultSweepCheckpointWrite crashes at every byte region of a
// checkpoint write — the header, the payload, the trailing CRC — and
// requires recovery to fall back to the log alone (the atomic
// temp+rename means a torn checkpoint simply never exists), landing on
// the full pre-checkpoint state.
func TestFaultSweepCheckpointWrite(t *testing.T) {
	wl, edges, opt := faultStream(t)
	golden := &prefixGolden{t: t, wl: wl, edges: edges, opt: opt, memo: map[int]goldenState{}}
	const half = 60

	// Dry run to find the checkpoint's byte window [w0, w1).
	fs := wal.NewMemFS()
	p, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges[:half] {
		if err := p.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
			t.Fatal(err)
		}
	}
	w0 := fs.Written()
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w1 := fs.Written()
	if w1 <= w0+100 {
		t.Fatalf("checkpoint window too small to sweep: [%d, %d)", w0, w1)
	}

	// Budgets are bytes allowed past the point the crash is armed — i.e.
	// offsets into the checkpoint write itself: the temp-file header, the
	// payload at several depths, and the trailing CRC.
	span := w1 - w0
	offsets := []int64{0, 4, 12, span / 4, span / 2, 3 * span / 4, span - 4, span - 1}
	for _, res := range []struct {
		name    string
		resolve func(*wal.MemFS)
	}{
		{"power-loss", func(m *wal.MemFS) { m.CrashLose() }},
		{"process-kill", func(m *wal.MemFS) { m.CrashKeep() }},
	} {
		t.Run(res.name, func(t *testing.T) {
			for _, budget := range offsets {
				fs := wal.NewMemFS()
				p1, _, err := OpenFS(fs, opt, wl)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range edges[:half] {
					if err := p1.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
						t.Fatal(err)
					}
				}
				fs.SetBudget(budget)
				if _, err := p1.Checkpoint(); err == nil {
					t.Fatalf("budget %d: checkpoint should have crashed", budget)
				}
				res.resolve(fs)

				p2, info, err := OpenFS(fs, opt, wl)
				if err != nil {
					t.Fatalf("budget %d: recovery failed: %v", budget, err)
				}
				if info.CheckpointLSN != 0 {
					t.Fatalf("budget %d: a torn checkpoint became visible", budget)
				}
				if info.LastLSN != half {
					t.Fatalf("budget %d: recovered to LSN %d, want %d", budget, info.LastLSN, half)
				}
				want := golden.at(half)
				if got := faultHash(p2); got != want.hash {
					t.Fatalf("budget %d: recovered hash %#x != golden %#x", budget, got, want.hash)
				}
			}
		})
	}

	// And the positive case: a checkpoint whose rename was covered by the
	// directory sync survives even a power loss with nothing else synced.
	fs2 := wal.NewMemFS()
	p1, _, err := OpenFS(fs2, opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges[:half] {
		if err := p1.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs2.CrashLose()
	p2, info, err := OpenFS(fs2, opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !(info.CheckpointLSN != 0) || info.CheckpointLSN != half {
		t.Fatalf("durable checkpoint lost on power loss: %+v", info)
	}
	if got := faultHash(p2); got != golden.at(half).hash {
		t.Fatal("checkpoint-only recovery diverged")
	}
}

// TestLostSpillChunkIsAnError: a spilled edge-log chunk that disappears
// from the spill directory makes every call that replays the recorded
// graph fail with an error instead of a panic, and a failed checkpoint
// writes nothing and leaves the partitioner ingesting.
func TestLostSpillChunkIsAnError(t *testing.T) {
	wl, err := DatasetWorkload("dblp")
	if err != nil {
		t.Fatal(err)
	}
	edges, err := GenerateDataset("dblp", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	walDir, spillDir := t.TempDir(), t.TempDir()
	p, _, err := Open(Options{Partitions: 4, ExpectedVertices: 3000, WALDir: walDir, SpillDir: spillDir}, wl)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.AddBatch(edges); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	chunks, _ := filepath.Glob(filepath.Join(spillDir, "elog-*.chk"))
	if len(chunks) == 0 {
		t.Fatalf("%d edges spilled no edge-log chunk", len(edges))
	}
	for _, c := range chunks {
		if err := os.Remove(c); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := p.Checkpoint(); err == nil {
		t.Fatal("Checkpoint with a lost chunk: want error")
	}
	if ckpts, _ := filepath.Glob(filepath.Join(walDir, "*.ckpt")); len(ckpts) != 0 {
		t.Fatalf("failed Checkpoint wrote %v", ckpts)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("failed Checkpoint latched the sticky Err: %v", err)
	}
	if err := p.AddBatch([]StreamEdge{{U: 1 << 40, LU: "Person", V: 1<<40 + 1, LV: "Paper"}}); err != nil {
		t.Fatalf("AddBatch after a failed Checkpoint: %v", err)
	}
	if _, err := p.Evaluate(); err == nil {
		t.Error("Evaluate with a lost chunk: want error")
	}
	if _, err := p.Simulate(1, 1000); err == nil {
		t.Error("Simulate with a lost chunk: want error")
	}
	if _, err := p.Refine(2); err == nil {
		t.Error("Refine with a lost chunk: want error")
	}
	// Refine released its read lock: ingest still goes through.
	p.Flush()
	if err := p.Err(); err != nil {
		t.Fatalf("sticky Err after the failed replays: %v", err)
	}
}
