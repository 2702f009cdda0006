package wal

import "fmt"

// Tailer reads a WAL directory that another process owns, strictly
// read-only: it never creates segments, never truncates torn tails and
// never prunes — the mutations Open performs to position a writer. A
// router replica uses a Tailer to bootstrap from a primary's checkpoint
// and then follow the primary's log as it grows (the "-follow" serving
// mode), without either process coordinating beyond the filesystem.
//
// OpenTailer and Poll read the log with the same scan and damage rule as
// Open; only the torn tail is handled differently. The primary may be
// mid-write when a segment is read, so damage at the end of the final
// segment is an incomplete group-commit flush (or a genuinely torn tail,
// which the next writer Open will cut off): the Tailer stops before it,
// returns what is intact, and re-examines the same record on the next
// Poll. Temp files of a checkpoint mid-publish are skipped, not removed.
//
// A Tailer is not goroutine-safe; the owning follower serialises Poll.
type Tailer struct {
	fs   FS
	dir  string
	next uint64 // LSN the next Poll starts delivering at
}

// OpenTailer scans dir read-only and returns the recovery view Open would
// produce — the newest readable checkpoint plus every intact record after
// it — without mutating the directory. The returned Tailer is positioned
// to deliver records appended after rec.LastLSN.
func OpenTailer(fsys FS, dir string) (*Tailer, *Recovered, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("wal: tailer dir is required")
	}
	d, err := listDir(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	rec, _, err := recoverDir(fsys, dir, d)
	if err != nil {
		return nil, nil, err
	}
	return &Tailer{fs: fsys, dir: dir, next: rec.LastLSN + 1}, rec, nil
}

// Poll re-lists the directory and returns the payloads of every intact
// record appended since the previous Poll (or OpenTailer), in LSN order.
// An in-flight write at the end of the log stops the scan early — those
// records are returned by a later Poll once their frames are complete. If
// the primary has checkpointed and pruned the segments the tailer still
// needs (the follower fell too far behind), Poll returns ErrGap: the
// follower must re-bootstrap from the newer checkpoint. A failed Poll
// delivers nothing and leaves the position where it was.
func (t *Tailer) Poll() ([][]byte, error) {
	d, err := listDir(t.fs, t.dir)
	if err != nil {
		return nil, err
	}
	w, err := walkSegments(t.fs, t.dir, d.segs, t.next)
	if err != nil {
		return nil, err
	}
	t.next = w.next
	return w.records, nil
}

// LSN returns the LSN of the last record the tailer has delivered.
func (t *Tailer) LSN() uint64 { return t.next - 1 }
