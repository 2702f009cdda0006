package wal

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func payload(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%37)))
}

func mustOpen(t testing.TB, fsys FS, opt Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(fsys, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func appendN(t testing.TB, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func wantRecords(t *testing.T, rec *Recovered, from, n int) {
	t.Helper()
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if want := string(payload(from + i)); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, rec := mustOpen(t, fs, opt)
	if rec.HaveCheckpoint || len(rec.Records) != 0 || rec.LastLSN != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	appendN(t, l, 0, 25)
	if got := l.LSN(); got != 25 {
		t.Fatalf("LSN = %d, want 25", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := mustOpen(t, fs, opt)
	defer l2.Close()
	wantRecords(t, rec2, 0, 25)
	if rec2.LastLSN != 25 || rec2.TornTail || rec2.HaveCheckpoint {
		t.Fatalf("recovered %+v", rec2)
	}
	// Appends continue the LSN sequence in a fresh segment.
	if lsn, err := l2.Append(payload(25)); err != nil || lsn != 26 {
		t.Fatalf("Append after reopen: lsn %d err %v", lsn, err)
	}
}

func TestRotationAcrossSegments(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", SegmentBytes: 256, Policy: SyncNone}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 60)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := 0
	for _, n := range fs.DumpNames() {
		if strings.HasSuffix(n, ".seg") {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", segs)
	}
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	wantRecords(t, rec, 0, 60)
}

func TestCheckpointRecoveryAndPruning(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", SegmentBytes: 256, KeepCheckpoints: 2}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 30)
	if _, err := l.WriteCheckpoint([]byte("ckpt-at-30")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	appendN(t, l, 30, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := mustOpen(t, fs, opt)
	if !rec.HaveCheckpoint || string(rec.Checkpoint) != "ckpt-at-30" {
		t.Fatalf("checkpoint not recovered: %+v", rec)
	}
	if rec.CheckpointLSN != 30 || rec.LastLSN != 40 {
		t.Fatalf("LSNs: ckpt %d last %d, want 30/40", rec.CheckpointLSN, rec.LastLSN)
	}
	wantRecords(t, rec, 30, 10)

	// A second and third checkpoint: with KeepCheckpoints=2 the first is
	// pruned, and segments fully covered by the oldest kept one go too.
	appendN(t, l2, 40, 30)
	if _, err := l2.WriteCheckpoint([]byte("ckpt-at-70")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	appendN(t, l2, 70, 30)
	if _, err := l2.WriteCheckpoint([]byte("ckpt-at-100")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var ckpts, firstSeg []string
	for _, n := range fs.DumpNames() {
		if strings.HasSuffix(n, ".ckpt") {
			ckpts = append(ckpts, n)
		}
		if strings.HasSuffix(n, ".seg") {
			firstSeg = append(firstSeg, n)
		}
	}
	if len(ckpts) != 2 {
		t.Fatalf("retained %d checkpoints (%v), want 2", len(ckpts), ckpts)
	}
	if first := firstSeg[0]; first <= "wal/"+segName(30) {
		t.Fatalf("segments not pruned past the oldest kept checkpoint: %v", firstSeg)
	}

	l3, rec3 := mustOpen(t, fs, opt)
	defer l3.Close()
	if string(rec3.Checkpoint) != "ckpt-at-100" || len(rec3.Records) != 0 || rec3.LastLSN != 100 {
		t.Fatalf("final recovery: %+v", rec3)
	}
}

func TestCheckpointFallback(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal"}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)
	if _, err := l.WriteCheckpoint([]byte("good-old")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 10)
	if _, err := l.WriteCheckpoint([]byte("bad-new")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Rot a bit in the newest checkpoint's payload.
	if err := fs.FlipBit("wal/"+ckptName(20), 20); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	if !rec.HaveCheckpoint || string(rec.Checkpoint) != "good-old" {
		t.Fatalf("fallback did not land on older checkpoint: %+v", rec)
	}
	if !rec.CheckpointFallback || len(rec.Warnings) == 0 {
		t.Fatalf("fallback not surfaced: %+v", rec)
	}
	// Replay resumes from the older checkpoint: records 11..25.
	wantRecords(t, rec, 10, 15)
}

func TestAllCheckpointsCorruptFullLogSurvives(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal"}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)
	if _, err := l.WriteCheckpoint([]byte("only")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.FlipBit("wal/"+ckptName(10), 15); err != nil {
		t.Fatal(err)
	}
	// The log still reaches back to LSN 1 (KeepCheckpoints=2 default kept
	// every segment), so recovery degrades to a full-log replay.
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	if rec.HaveCheckpoint {
		t.Fatalf("no checkpoint should have been usable: %+v", rec)
	}
	wantRecords(t, rec, 0, 15)
}

func TestAllCheckpointsCorruptTruncatedLogFails(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", SegmentBytes: 256, KeepCheckpoints: 1}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 40)
	if _, err := l.WriteCheckpoint([]byte("c1")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 40, 40)
	if _, err := l.WriteCheckpoint([]byte("c2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Early segments were pruned; corrupting the sole checkpoint leaves
	// nothing to rebuild from — a typed, sticky error, not a panic.
	if err := fs.FlipBit("wal/"+ckptName(80), 14); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(fs, opt)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Open = %v, want ErrNoCheckpoint", err)
	}
}

func TestTornTailTruncates(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := "wal/" + segName(1)
	size := fs.Size(seg)
	// Chop the last 3 bytes off the final record: a torn write.
	if err := fs.Truncate(seg, size-3); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, fs, opt)
	if !rec.TornTail || len(rec.Warnings) == 0 {
		t.Fatalf("torn tail not detected: %+v", rec)
	}
	wantRecords(t, rec, 0, 9)
	if rec.LastLSN != 9 {
		t.Fatalf("LastLSN = %d, want 9", rec.LastLSN)
	}
	// The log is usable again and the torn LSN is re-issued.
	if lsn, err := l2.Append(payload(9)); err != nil || lsn != 10 {
		t.Fatalf("Append after torn tail: lsn %d err %v", lsn, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := mustOpen(t, fs, opt)
	defer l3.Close()
	wantRecords(t, rec3, 0, 10)
	if rec3.TornTail {
		t.Fatalf("tail should be clean after rewrite: %+v", rec3)
	}
}

func TestFlippedBitTruncatesMidLog(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := "wal/" + segName(1)
	// Flip a payload bit roughly mid-file: every record from there on is
	// discarded, cleanly, with a warning.
	if err := fs.FlipBit(seg, fs.Size(seg)/2); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	if !rec.TornTail {
		t.Fatalf("CRC mismatch not handled as torn tail: %+v", rec)
	}
	if len(rec.Records) >= 10 || len(rec.Records) == 0 {
		t.Fatalf("recovered %d records, want a strict mid-log prefix", len(rec.Records))
	}
	wantRecords(t, rec, 0, len(rec.Records))
}

func TestMissingSegmentIsGap(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", SegmentBytes: 256, Policy: SyncNone}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 60)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range fs.DumpNames() {
		if strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	if err := fs.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(fs, opt)
	if !errors.Is(err, ErrGap) {
		t.Fatalf("Open = %v, want ErrGap", err)
	}
}

func TestBrokenLatchAfterFailedAppend(t *testing.T) {
	// SyncAlways writes each record through immediately, so the torn
	// write surfaces on the Append itself (under the group-commit
	// policies it would surface at the next write-out; see
	// TestBrokenLatchAfterFailedSync).
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 5)
	fs.SetBudget(4) // next append tears mid-frame
	if _, err := l.Append(payload(5)); err == nil {
		t.Fatal("Append should fail once the budget is exhausted")
	}
	fs.CrashKeep() // FS is healthy again...
	if _, err := l.Append(payload(6)); err == nil {
		t.Fatal("Append after a write failure must keep failing (broken latch)")
	}
	// ...but the log stays latched: a success here would sit beyond a torn
	// hole and be silently dropped by recovery.
	l.Close()
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	wantRecords(t, rec, 0, 5)
}

func TestBrokenLatchAfterFailedSync(t *testing.T) {
	// Under a group-commit policy the failed write happens at the sync
	// point, tearing the staged group; the latch must still engage and
	// later appends must keep failing.
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncNone}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 5)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 3) // staged, not yet written
	fs.SetBudget(4)     // the group write tears mid-frame
	if err := l.Sync(); err == nil {
		t.Fatal("Sync should fail once the budget is exhausted")
	}
	fs.CrashKeep()
	if _, err := l.Append(payload(8)); err == nil {
		t.Fatal("Append after a failed group write must fail (broken latch)")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync after a failed group write must fail (broken latch)")
	}
	l.Close()
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	// The synced prefix survives; the torn group is truncated away.
	wantRecords(t, rec, 0, 5)
}

func TestGroupCommitStagesUntilThreshold(t *testing.T) {
	// Under SyncBatch nothing reaches the filesystem until GroupBytes of
	// records have staged; the group then lands in one write. A kill
	// before the first group write therefore recovers only the records
	// made durable by explicit sync points.
	fs := NewMemFS()
	opt := Options{Dir: "wal", GroupBytes: 1 << 20}
	l, _ := mustOpen(t, fs, opt)
	w0 := fs.Written()
	appendN(t, l, 0, 50)
	if got := fs.Written(); got != w0 {
		t.Fatalf("staged appends wrote %d bytes before the group threshold", got-w0)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Written(); got == w0 {
		t.Fatal("Sync did not write the staged group out")
	}
	appendN(t, l, 50, 10) // staged after the sync point, then killed
	fs.CrashLose()
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	wantRecords(t, rec, 0, 50)
}

func TestClosedLog(t *testing.T) {
	fs := NewMemFS()
	l, _ := mustOpen(t, fs, Options{Dir: "wal"})
	appendN(t, l, 0, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(payload(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log = %v, want ErrClosed", err)
	}
	if _, err := l.WriteCheckpoint(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteCheckpoint on closed log = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestSyncNoneLosesUnsyncedOnPowerLoss(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncNone}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 10) // never synced
	fs.CrashLose()        // power loss: unsynced bytes vanish
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	// Exactly the synced prefix survives — no torn tail, because the
	// truncation landed on the group-commit boundary.
	wantRecords(t, rec, 0, 10)
}

func TestSyncAlwaysSurvivesPowerLoss(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)
	fs.CrashLose() // no Close, no final sync — every record must survive
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	wantRecords(t, rec, 0, 10)
}

func TestCheckpointCrashMidRename(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 8)
	if _, err := l.WriteCheckpoint([]byte("stable")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 8, 4)

	// Crash while the second checkpoint's temp file is being written: the
	// rename never happens, recovery uses the stable checkpoint.
	fs.SetBudget(30)
	if _, err := l.WriteCheckpoint([]byte("never-lands-because-it-is-long")); err == nil {
		t.Fatal("WriteCheckpoint should have crashed")
	}
	fs.CrashLose()
	l2, rec := mustOpen(t, fs, opt)
	if string(rec.Checkpoint) != "stable" || rec.CheckpointFallback {
		t.Fatalf("mid-write crash recovery: %+v", rec)
	}
	wantRecords(t, rec, 8, 4)
	// The orphaned temp file was cleaned up.
	for _, n := range fs.DumpNames() {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("leftover temp file %s", n)
		}
	}
	// And the crash-kept variant: the rename completed but was never
	// covered by a directory sync; the checkpoint is whole, so it is used.
	appendN(t, l2, 12, 4)
	fs.SetBudget(1 << 20)
	if _, err := l2.WriteCheckpoint([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	fs.CrashKeep()
	l3, rec3 := mustOpen(t, fs, opt)
	defer l3.Close()
	if string(rec3.Checkpoint) != "kept" || rec3.CheckpointLSN != 16 {
		t.Fatalf("crash-keep recovery: %+v", rec3)
	}
}

func TestEmptyPayloadAndLargeRecord(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", SegmentBytes: 1024}
	l, _ := mustOpen(t, fs, opt)
	big := strings.Repeat("B", 10_000) // single record larger than a segment
	for _, p := range []string{"", big, "tail"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append %d bytes: %v", len(p), err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, fs, opt)
	defer l2.Close()
	if len(rec.Records) != 3 || len(rec.Records[0]) != 0 ||
		string(rec.Records[1]) != big || string(rec.Records[2]) != "tail" {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
}

// TestOpenRefusesMidChainDamage: a flipped bit in a segment with intact
// segments after it cannot be a crashed writer's torn tail (segments are
// fsynced before their successor exists), so Open must refuse it as
// ErrCorrupt naming the segment — and must not delete the intact
// segments behind it, which hold acknowledged records.
func TestOpenRefusesMidChainDamage(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways, SegmentBytes: 128}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 30) // spans several 128-byte segments
	l.Close()
	before := fs.DumpNames()
	if len(before) < 3 {
		t.Fatalf("need several segments, got %v", before)
	}

	if err := fs.FlipBit("wal/"+segName(1), int64(segHeaderSize+recordFrameSize+2)); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	_, _, err := Open(fs, opt)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-chain damage = %v, want ErrCorrupt", err)
	}
	var se *SegmentError
	if !errors.As(err, &se) || se.Name != segName(1) {
		t.Fatalf("corruption not attributed to %s: %v", segName(1), err)
	}
	if after := fs.DumpNames(); !slices.Equal(after, before) {
		t.Fatalf("refused Open changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// TestReopenEmptyLogKeepsActiveSegment: a log closed with no records
// leaves a header-only final segment named after the next LSN, which the
// next Open recreates as its active segment. A checkpoint after that
// reopen must not prune the active segment along with the old ones, or
// every record appended after the checkpoint is lost.
func TestReopenEmptyLogKeepsActiveSegment(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, _ := mustOpen(t, fs, opt)
	l.Close()
	l, _ = mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)
	if _, err := l.WriteCheckpoint([]byte("at-10")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 5)
	l.Close()
	_, rec := mustOpen(t, fs, opt)
	if rec.CheckpointLSN != 10 {
		t.Fatalf("CheckpointLSN = %d, want 10", rec.CheckpointLSN)
	}
	wantRecords(t, rec, 10, 5)
}
