package wal

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func mustTail(t *testing.T, fsys FS, dir string) (*Tailer, *Recovered) {
	t.Helper()
	tl, rec, err := OpenTailer(fsys, dir)
	if err != nil {
		t.Fatalf("OpenTailer: %v", err)
	}
	return tl, rec
}

func TestTailerSeesWriterRecords(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)

	// Bootstrapping mid-stream: the tailer recovers the same view Open
	// would, without writing anything.
	before := len(fs.DumpNames())
	tl, rec := mustTail(t, fs, "wal")
	if rec.HaveCheckpoint {
		t.Fatalf("no checkpoint written, but tailer found one")
	}
	wantRecords(t, rec, 0, 10)
	if got := len(fs.DumpNames()); got != before {
		t.Fatalf("read-only open changed the directory: %d files, was %d", got, before)
	}

	// The log grows; Poll picks up exactly the new records.
	appendN(t, l, 10, 7)
	more, err := tl.Poll()
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if len(more) != 7 {
		t.Fatalf("Poll returned %d records, want 7", len(more))
	}
	for i, r := range more {
		if want := string(payload(10 + i)); string(r) != want {
			t.Fatalf("polled record %d = %q, want %q", i, r, want)
		}
	}
	// Idle polls return nothing.
	if more, err = tl.Poll(); err != nil || len(more) != 0 {
		t.Fatalf("idle Poll = %d records, err %v", len(more), err)
	}
	if tl.LSN() != l.LSN() {
		t.Fatalf("tailer LSN %d != writer LSN %d", tl.LSN(), l.LSN())
	}
	l.Close()
}

func TestTailerBootstrapsFromCheckpoint(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways, SegmentBytes: 256}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 20)
	if _, err := l.WriteCheckpoint([]byte("state@20")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	appendN(t, l, 20, 5)

	tl, rec := mustTail(t, fs, "wal")
	if !rec.HaveCheckpoint || string(rec.Checkpoint) != "state@20" {
		t.Fatalf("checkpoint not recovered: %+v", rec)
	}
	if rec.CheckpointLSN != 20 {
		t.Fatalf("CheckpointLSN = %d, want 20", rec.CheckpointLSN)
	}
	wantRecords(t, rec, 20, 5)

	appendN(t, l, 25, 3)
	more, err := tl.Poll()
	if err != nil || len(more) != 3 {
		t.Fatalf("Poll after growth = %d records, err %v", len(more), err)
	}
	l.Close()
}

func TestTailerToleratesInFlightTail(t *testing.T) {
	fs := NewMemFS()
	// SyncNone with a large group: records stage in the writer's buffer,
	// so the tailer sees only what has been written out.
	opt := Options{Dir: "wal", Policy: SyncNone, GroupBytes: 1 << 20}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 10)

	tl, rec := mustTail(t, fs, "wal")
	if len(rec.Records) != 0 {
		t.Fatalf("staged records visible before writeout: %d", len(rec.Records))
	}

	// A torn frame at the end of the segment (half a record) must stop the
	// scan silently, then be delivered once completed.
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	seg := "wal/" + segName(1)
	full, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := fs.Truncate(seg, int64(len(full)-3)); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	got, err := tl.Poll()
	if err != nil {
		t.Fatalf("Poll over torn tail: %v", err)
	}
	if len(got) != 9 {
		t.Fatalf("Poll over torn tail = %d records, want 9", len(got))
	}
	// Restore the full bytes (the writer finishing its flush) and re-poll.
	f, err := fs.Create(seg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write(full); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	f.Close()
	got, err = tl.Poll()
	if err != nil || len(got) != 1 {
		t.Fatalf("Poll after tail completed = %d records, err %v", len(got), err)
	}
	if string(got[0]) != string(payload(9)) {
		t.Fatalf("completed tail record = %q, want %q", got[0], payload(9))
	}
}

func TestTailerGapAfterPrune(t *testing.T) {
	fs := NewMemFS()
	// Small segments so checkpoint pruning actually removes files.
	opt := Options{Dir: "wal", Policy: SyncAlways, SegmentBytes: 128, KeepCheckpoints: 1}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 4)

	tl, _ := mustTail(t, fs, "wal")

	// The primary races far ahead and checkpoints twice; segments holding
	// the records the tailer never read are pruned.
	appendN(t, l, 4, 40)
	if _, err := l.WriteCheckpoint([]byte("ckpt-a")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	appendN(t, l, 44, 40)
	if _, err := l.WriteCheckpoint([]byte("ckpt-b")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if _, err := tl.Poll(); !errors.Is(err, ErrGap) {
		t.Fatalf("Poll after prune = %v, want ErrGap", err)
	}
	l.Close()
}

func TestTailerMidChainDamageIsCorrupt(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways, SegmentBytes: 128}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 30) // spans several 128-byte segments
	l.Close()

	// Flip a bit inside the FIRST segment's record area: intact segments
	// follow, so this cannot be an in-flight tail.
	if err := fs.FlipBit("wal/"+segName(1), int64(segHeaderSize+recordFrameSize+2)); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	_, _, err := OpenTailer(fs, "wal")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenTailer over mid-chain damage = %v, want ErrCorrupt", err)
	}
	// Corruption is attributed to the damaged segment by name, so a
	// supervisor can quarantine exactly that file.
	var se *SegmentError
	if !errors.As(err, &se) || se.Name != segName(1) {
		t.Fatalf("corruption not attributed to %s: %v", segName(1), err)
	}
}

// TestTailerTransientReadErrors: an injected read failure surfaces as a
// plain error — neither ErrGap nor ErrCorrupt — naming the segment, the
// tailer's position does not advance, and the very next Poll delivers
// everything once reads recover.
func TestTailerTransientReadErrors(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 6)
	tl, rec := mustTail(t, fs, "wal")
	wantRecords(t, rec, 0, 6)

	appendN(t, l, 6, 4)
	fs.SetReadFault(".seg", 2, nil)
	for i := 0; i < 2; i++ {
		_, err := tl.Poll()
		if err == nil {
			t.Fatalf("Poll %d over injected read fault did not error", i)
		}
		if errors.Is(err, ErrGap) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("transient read fault misclassified: %v", err)
		}
		var se *SegmentError
		if !errors.As(err, &se) || se.Name == "" {
			t.Fatalf("transient fault does not name its segment: %v", err)
		}
	}
	got, err := tl.Poll()
	if err != nil || len(got) != 4 {
		t.Fatalf("Poll after faults cleared = %d records, err %v — want 4, nil", len(got), err)
	}
	if tl.LSN() != l.LSN() {
		t.Fatalf("tailer LSN %d != writer LSN %d after recovery", tl.LSN(), l.LSN())
	}
	l.Close()
}

// TestTailerPruneRacesPoll: the primary checkpoints and prunes between
// the tailer's List and its ReadFile, so Poll reads a file that just
// vanished. That must be a transient error — the re-list on the next
// Poll sees the directory's true state and classifies it for real
// (here: ErrGap, because the pruned records were never delivered).
func TestTailerPruneRacesPoll(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways, SegmentBytes: 128, KeepCheckpoints: 1}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 4)
	tl, _ := mustTail(t, fs, "wal")

	// The tailer needs records from segment 1 onward. Arm a hook that,
	// on the tailer's first read of a segment, lets the primary race
	// ahead: append, checkpoint twice (pruning every old segment), and
	// only then fail the read — the file is genuinely gone.
	appendN(t, l, 4, 40)
	raced := false
	fs.SetReadHook(func(path string) error {
		if raced || !strings.HasSuffix(path, ".seg") {
			return nil
		}
		raced = true
		fs.SetReadHook(nil)
		if _, err := l.WriteCheckpoint([]byte("ckpt-a")); err != nil {
			t.Errorf("WriteCheckpoint: %v", err)
		}
		appendN(t, l, 44, 40)
		if _, err := l.WriteCheckpoint([]byte("ckpt-b")); err != nil {
			t.Errorf("WriteCheckpoint: %v", err)
		}
		return fmt.Errorf("%s: file does not exist (pruned)", path)
	})

	_, err := tl.Poll()
	if err == nil || errors.Is(err, ErrGap) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("racing Poll = %v, want a transient error", err)
	}
	if !raced {
		t.Fatal("read hook never fired")
	}
	// Next Poll re-lists: the needed segments are truly pruned → ErrGap.
	if _, err := tl.Poll(); !errors.Is(err, ErrGap) {
		t.Fatalf("Poll after raced prune = %v, want ErrGap", err)
	}
	l.Close()
}

// TestLogRetriesTransientWriteFaults: a bounded burst of write and fsync
// failures is absorbed by the append path's retry loop — no broken
// latch, no lost records.
func TestLogRetriesTransientWriteFaults(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways, Retries: 3, RetryBackoff: time.Microsecond}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 3)

	fs.SetWriteFault(".seg", 1, nil)
	appendN(t, l, 3, 1) // appendN fails the test if Append errors
	fs.SetSyncFault(".seg", 2, nil)
	appendN(t, l, 4, 1)
	if l.Broken() {
		t.Fatal("log broke despite retries")
	}
	if got := l.SyncedLSN(); got != 5 {
		t.Fatalf("SyncedLSN = %d, want 5", got)
	}
	l.Close()

	_, rec := mustOpen(t, fs, opt)
	wantRecords(t, rec, 0, 5)
}

// TestLogBreaksWhenRetriesExhausted: a persistent fsync failure defeats
// the retries, latches the log broken, and SyncedLSN keeps reporting the
// last durable record.
func TestLogBreaksWhenRetriesExhausted(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways, Retries: 2, RetryBackoff: time.Microsecond}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 3)

	fs.SetSyncFault(".seg", -1, nil)
	if _, err := l.Append(payload(3)); err == nil {
		t.Fatal("Append over persistent fsync failure did not error")
	}
	if !l.Broken() {
		t.Fatal("log not latched broken after retries exhausted")
	}
	if got := l.SyncedLSN(); got != 3 {
		t.Fatalf("SyncedLSN = %d, want 3 (last durable record)", got)
	}

	// Re-arm: with the disk healthy again, a checkpoint supersedes the
	// torn tail and appends flow again.
	fs.SetSyncFault("", 0, nil)
	if _, err := l.WriteCheckpoint([]byte("full-state")); err != nil {
		t.Fatalf("re-arming WriteCheckpoint: %v", err)
	}
	if l.Broken() {
		t.Fatal("log still broken after re-arming checkpoint")
	}
	appendN(t, l, 100, 2)
	l.Close()

	_, rec := mustOpen(t, fs, opt)
	if !rec.HaveCheckpoint || string(rec.Checkpoint) != "full-state" {
		t.Fatalf("recovery did not find the re-arming checkpoint: %+v", rec)
	}
	wantRecords(t, rec, 100, 2)
}

// TestTailerPollErrorKeepsPosition: a Poll that fails part-way through a
// multi-segment walk delivers nothing, so it must not advance past the
// records it read before the failure — the next Poll delivers them all.
func TestTailerPollErrorKeepsPosition(t *testing.T) {
	fs := NewMemFS()
	opt := Options{Dir: "wal", Policy: SyncAlways, SegmentBytes: 128}
	l, _ := mustOpen(t, fs, opt)
	appendN(t, l, 0, 2)
	tl, rec := mustTail(t, fs, "wal")
	wantRecords(t, rec, 0, 2)

	appendN(t, l, 2, 30) // rotates through several segments
	var segs []string
	for _, n := range fs.DumpNames() {
		if strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %v", segs)
	}
	// Fail the read of the last segment only: the walk has already
	// decoded the records of every segment before it.
	fs.SetReadFault(segs[len(segs)-1], 1, nil)
	if got, err := tl.Poll(); err == nil {
		t.Fatalf("Poll over injected read fault returned %d records, no error", len(got))
	}
	got, err := tl.Poll()
	if err != nil || len(got) != 30 {
		t.Fatalf("Poll after the fault = %d records, err %v — want 30, nil", len(got), err)
	}
	for i, r := range got {
		if want := string(payload(2 + i)); string(r) != want {
			t.Fatalf("polled record %d = %q, want %q", i, r, want)
		}
	}
	l.Close()
}
