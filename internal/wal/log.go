package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"

	// segHeaderSize: 8-byte magic, 8-byte first LSN, 4-byte CRC of the
	// first 16 bytes.
	segHeaderSize = 20
	// recordFrameSize: 4-byte payload length, 4-byte payload CRC.
	recordFrameSize = 8
	// maxRecordBytes bounds a single record; larger length fields are
	// treated as corruption rather than allocated.
	maxRecordBytes = 1 << 30
)

func segName(firstLSN uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix) }
func ckptName(lsn uint64) string     { return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix) }
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

func buildSegHeader(firstLSN uint64) []byte {
	b := make([]byte, 0, segHeaderSize)
	b = append(b, segMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, firstLSN)
	return binary.LittleEndian.AppendUint32(b, Checksum(b))
}

func parseSegHeader(data []byte, wantFirst uint64) bool {
	if len(data) < segHeaderSize {
		return false
	}
	if string(data[:8]) != string(segMagic[:]) {
		return false
	}
	if binary.LittleEndian.Uint32(data[16:20]) != Checksum(data[:16]) {
		return false
	}
	return binary.LittleEndian.Uint64(data[8:16]) == wantFirst
}

func buildCheckpointFile(lsn uint64, payload []byte) []byte {
	var e Enc
	e.B = make([]byte, 0, 8+4+8+8+len(payload)+4)
	e.B = append(e.B, ckptMagic[:]...)
	e.U32(CheckpointVersion)
	e.U64(lsn)
	e.U64(uint64(len(payload)))
	e.B = append(e.B, payload...)
	e.U32(Checksum(e.B[8:]))
	return e.B
}

func parseCheckpointFile(data []byte) (payload []byte, lsn uint64, err error) {
	const hdr = 8 + 4 + 8 + 8
	if len(data) < hdr+4 {
		return nil, 0, fmt.Errorf("short checkpoint file (%d bytes)", len(data))
	}
	if string(data[:8]) != string(ckptMagic[:]) {
		return nil, 0, fmt.Errorf("bad checkpoint magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != CheckpointVersion {
		return nil, 0, fmt.Errorf("unsupported checkpoint version %d", v)
	}
	lsn = binary.LittleEndian.Uint64(data[12:20])
	plen := binary.LittleEndian.Uint64(data[20:28])
	if plen != uint64(len(data)-hdr-4) {
		return nil, 0, fmt.Errorf("checkpoint length mismatch (header %d, file %d)", plen, len(data)-hdr-4)
	}
	if Checksum(data[8:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, 0, fmt.Errorf("checkpoint CRC mismatch")
	}
	return data[hdr : len(data)-4], lsn, nil
}

// Log is an open write-ahead log: an append position in a segment chain
// plus the checkpoint bookkeeping for the same directory. It is not
// goroutine-safe; the owning partitioner serialises access under its
// ingest lock.
type Log struct {
	fs  FS
	opt Options

	cur      File // active segment, nil only between rotate and next write-out
	curSize  int64
	nextLSN  uint64 // LSN the next Append will get; LSNs start at 1
	unsynced int64
	// buf is the group-commit buffer: acknowledged records not yet handed
	// to the OS. One write call per group (not per record) is most of what
	// group commit buys; writeOut drains it at sync points, rotation,
	// close, and whenever GroupBytes have accumulated.
	buf    []byte
	ckpts  []uint64 // retained checkpoint LSNs, ascending
	segs   []uint64 // live segment first-LSNs, ascending
	closed bool
	broken bool   // a write failed; the tail may be torn, refuse appends
	synced uint64 // LSN of the last record covered by a successful fsync
	enc    Enc
}

func (l *Log) path(name string) string { return filepath.Join(l.opt.Dir, name) }

// Open recovers dir with the read-only scan the Tailer also uses (see the
// package comment for the rules), then makes it writable: leftover
// checkpoint temp files are removed, a torn tail is cut off the final
// segment, and a fresh segment is started after the last surviving
// record, where the returned Log appends.
func Open(fsys FS, opt Options) (*Log, *Recovered, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := fsys.MkdirAll(opt.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	d, err := listDir(fsys, opt.Dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{fs: fsys, opt: opt, ckpts: d.ckpts, segs: d.segs}
	for _, name := range d.tmps {
		// Leftover of a checkpoint that crashed before its rename; the
		// atomic-publish protocol makes it garbage by definition.
		_ = fsys.Remove(l.path(name))
	}
	rec, torn, err := recoverDir(fsys, opt.Dir, d)
	if err != nil {
		return nil, nil, err
	}
	if torn != nil {
		if err := l.cutTornTail(torn, rec); err != nil {
			return nil, nil, err
		}
	}
	l.nextLSN = rec.LastLSN + 1
	// Everything recovery handed back came off stable storage.
	l.synced = rec.LastLSN
	if n := len(l.segs); n > 0 && l.segs[n-1] == l.nextLSN {
		// The final segment holds no records (a log closed right after
		// Open): startSegment recreates that very file below. Listed twice,
		// checkpoint pruning would delete the active segment.
		l.segs = l.segs[:n-1]
	}
	// Start the tail segment now rather than on the first append: segment
	// creation carries a directory fsync, and paying it here keeps that
	// constant cost out of the ingest path.
	if err := l.startSegment(); err != nil {
		return nil, nil, err
	}
	if opt.Policy != SyncAlways {
		// The group buffer tops out at one group plus a record; growing it
		// here (not by doubling mid-ingest) keeps append allocation-free.
		l.buf = make([]byte, 0, opt.GroupBytes+4096)
	}
	return l, rec, nil
}

// cutTornTail repairs the torn tail recovery found in the final segment:
// a damaged header takes the whole file, a damaged frame is truncated
// away, so appends continue right after the last intact record.
func (l *Log) cutTornTail(t *tornTail, rec *Recovered) error {
	name := segName(t.seg)
	if t.off == 0 {
		if err := l.fs.Remove(l.path(name)); err != nil {
			return fmt.Errorf("wal: remove torn segment %s: %w", name, err)
		}
		l.segs = l.segs[:len(l.segs)-1]
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("removed segment %s", name))
		return nil
	}
	if err := l.fs.Truncate(l.path(name), int64(t.off)); err != nil {
		return fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
	}
	rec.Warnings = append(rec.Warnings, fmt.Sprintf("truncated segment %s at offset %d", name, t.off))
	return nil
}

// LSN returns the LSN of the last appended (or recovered) record.
func (l *Log) LSN() uint64 { return l.nextLSN - 1 }

// SyncedLSN returns the LSN of the last record known durable — covered by
// a successful fsync (or recovered off disk at Open). Records between
// SyncedLSN and LSN are acknowledged but staged or unsynced; a crash can
// lose them. After a write failure this is the exact watermark of what
// the disk is guaranteed to hold.
func (l *Log) SyncedLSN() uint64 { return l.synced }

// Broken reports whether a write failure has latched the log: appends are
// refused until a successful WriteCheckpoint re-arms it.
func (l *Log) Broken() bool { return l.broken }

// retryDelay is the backoff before retry attempt (0-based, capped).
func (l *Log) retryDelay(attempt int) time.Duration {
	d := l.opt.RetryBackoff
	for i := 0; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	return d
}

// Append frames payload, stages it in the group-commit buffer and applies
// the sync policy: SyncAlways writes and fsyncs the record immediately;
// SyncBatch and SyncNone let records accumulate and hand the whole group
// to the OS in one write once GroupBytes are staged (SyncBatch follows the
// group write with one fsync). On any write error the log latches broken:
// the tail may be torn, and accepting later appends after a hole would let
// the caller apply state that recovery will silently drop.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.enc.B = append(l.enc.B[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	l.enc.B = append(l.enc.B, payload...)
	return l.AppendFramed(l.enc.B)
}

// AppendFramed is Append for callers that reserve the record frame
// themselves: b's first eight bytes are overwritten with the length/CRC
// frame and the payload starts at b[8]. Encoding straight into such a
// buffer skips Append's payload copy.
func (l *Log) AppendFramed(b []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken {
		return 0, fmt.Errorf("wal: log broken by earlier write failure: %w", ErrClosed)
	}
	if len(b) < recordFrameSize {
		return 0, fmt.Errorf("wal: framed record shorter than its frame")
	}
	payload := b[recordFrameSize:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], Checksum(payload))
	l.buf = append(l.buf, b...)
	n := int64(len(b))
	l.curSize += n
	l.unsynced += n
	lsn := l.nextLSN
	l.nextLSN++

	switch l.opt.Policy {
	case SyncAlways:
		if err := l.writeSync(); err != nil {
			return 0, err
		}
	case SyncBatch:
		if l.unsynced >= l.opt.GroupBytes {
			if err := l.writeSync(); err != nil {
				return 0, err
			}
		}
	case SyncNone:
		if int64(len(l.buf)) >= l.opt.GroupBytes {
			if err := l.writeOut(); err != nil {
				return 0, err
			}
		}
	}
	if l.curSize >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			l.broken = true
			return 0, err
		}
	}
	return lsn, nil
}

// writeOut drains the group-commit buffer into the active segment. A
// segment is always active on a healthy log (Open and rotate both start
// one eagerly). A failed write is retried opt.Retries times (the OS may
// have taken a prefix; only the remainder is re-sent); once retries are
// exhausted the log latches broken: the segment tail may hold a torn
// fragment of the group.
func (l *Log) writeOut() error {
	if len(l.buf) == 0 {
		return nil
	}
	if l.cur == nil {
		l.broken = true
		return fmt.Errorf("wal: no active segment for staged records")
	}
	off := 0
	var err error
	for attempt := 0; ; attempt++ {
		var n int
		n, err = l.cur.Write(l.buf[off:])
		off += n
		if err == nil && off == len(l.buf) {
			l.buf = l.buf[:0]
			return nil
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		if attempt >= l.opt.Retries {
			break
		}
		time.Sleep(l.retryDelay(attempt))
	}
	l.broken = true
	return fmt.Errorf("wal: write record group: %w", err)
}

// writeSync drains the buffer and fsyncs the segment — one durability
// point for the whole group. A failed fsync is retried like a failed
// write; on success the synced watermark advances to the log head.
func (l *Log) writeSync() error {
	if err := l.writeOut(); err != nil {
		return err
	}
	if l.cur == nil || l.unsynced == 0 {
		return nil
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = l.cur.Sync(); err == nil {
			l.unsynced = 0
			l.synced = l.nextLSN - 1
			return nil
		}
		if attempt >= l.opt.Retries {
			break
		}
		time.Sleep(l.retryDelay(attempt))
	}
	l.broken = true
	return fmt.Errorf("wal: fsync segment: %w", err)
}

func (l *Log) startSegment() error {
	name := segName(l.nextLSN)
	f, err := l.fs.Create(l.path(name))
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	if _, err := f.Write(buildSegHeader(l.nextLSN)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header %s: %w", name, err)
	}
	// The directory entry must be durable before any record in the file
	// can be considered durable.
	if err := l.fs.SyncDir(l.opt.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir for segment %s: %w", name, err)
	}
	l.cur = f
	// curSize already counts any records staged since the last rotation;
	// the header joins them.
	l.curSize += segHeaderSize
	l.segs = append(l.segs, l.nextLSN)
	return nil
}

func (l *Log) rotate() error {
	if l.cur == nil {
		return nil
	}
	// Rotation is a durability point under every policy.
	l.unsynced = 1 // force the sync even if group accounting says clean
	if err := l.writeSync(); err != nil {
		return err
	}
	err := l.cur.Close()
	l.cur = nil
	l.curSize = 0
	if err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	// Start the successor now, while the buffer is drained: its first LSN
	// is exactly l.nextLSN here, and rotation already paid for a sync, so
	// the segment-creation dir-fsync belongs at this point too.
	return l.startSegment()
}

// Sync writes out any staged records and forces the active segment to
// stable storage regardless of policy.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if l.broken {
		return fmt.Errorf("wal: log broken by earlier write failure: %w", ErrClosed)
	}
	return l.writeSync()
}

// WriteCheckpoint atomically publishes payload as the checkpoint at the
// current LSN (temp file + fsync + rename + dir fsync), then prunes
// checkpoints beyond KeepCheckpoints and segments whose records all
// precede the oldest retained checkpoint. Returns the checkpoint file
// size.
//
// On a broken log (an earlier write or fsync failure latched it) the
// checkpoint is still attempted: the payload is the caller's full state,
// which supersedes every record including any lost in the torn tail. If
// it publishes, the log re-arms — the staged group is discarded, history
// collapses to the re-arming checkpoint (older checkpoints can no longer
// be corroborated by the damaged chain), and appends resume on a fresh
// segment.
func (l *Log) WriteCheckpoint(payload []byte) (int64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	// Make the log durable through the checkpoint LSN first, so the
	// checkpoint never describes state the log cannot corroborate. If the
	// sync fails (or already failed), fall through broken: the checkpoint
	// itself is about to supersede the log.
	if !l.broken {
		if err := l.writeSync(); err != nil && !l.broken {
			return 0, err
		}
	}
	lsn := l.LSN()
	file := buildCheckpointFile(lsn, payload)
	name := ckptName(lsn)
	tmp := name + tmpSuffix
	f, err := l.fs.Create(l.path(tmp))
	if err != nil {
		return 0, fmt.Errorf("wal: create checkpoint temp: %w", err)
	}
	if _, err := f.Write(file); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: fsync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err := l.fs.Rename(l.path(tmp), l.path(name)); err != nil {
		return 0, fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	if err := l.fs.SyncDir(l.opt.Dir); err != nil {
		return 0, fmt.Errorf("wal: sync dir after checkpoint: %w", err)
	}
	if len(l.ckpts) == 0 || l.ckpts[len(l.ckpts)-1] != lsn {
		l.ckpts = append(l.ckpts, lsn)
	}
	if l.broken {
		if err := l.rearm(lsn); err != nil {
			return 0, err
		}
		return int64(len(file)), nil
	}
	// Prune: old checkpoints first, then segments the oldest retained
	// checkpoint makes redundant. Failed removals are retried implicitly
	// by the next checkpoint; staleness is harmless.
	for len(l.ckpts) > l.opt.KeepCheckpoints {
		_ = l.fs.Remove(l.path(ckptName(l.ckpts[0])))
		l.ckpts = l.ckpts[1:]
	}
	oldest := l.ckpts[0]
	for len(l.segs) >= 2 && l.segs[1] <= oldest+1 {
		_ = l.fs.Remove(l.path(segName(l.segs[0])))
		l.segs = l.segs[1:]
	}
	return int64(len(file)), nil
}

// rearm recovers a broken log after a checkpoint published at lsn. Every
// record — durable, staged, or lost in the torn tail — has LSN <= lsn and
// is superseded by the checkpoint payload, so the whole segment chain and
// every older checkpoint are dropped (a fallback to an older checkpoint
// would need records the damaged chain cannot corroborate) and a fresh
// tail segment is started at the head. Failed removals are tolerated:
// recovery picks the newest segment containing the next record to replay,
// so stale leftovers are ignored.
func (l *Log) rearm(lsn uint64) error {
	l.buf = l.buf[:0]
	l.unsynced = 0
	if l.cur != nil {
		_ = l.cur.Close()
		l.cur = nil
	}
	l.curSize = 0
	for _, fl := range l.segs {
		_ = l.fs.Remove(l.path(segName(fl)))
	}
	l.segs = l.segs[:0]
	for _, c := range l.ckpts {
		if c != lsn {
			_ = l.fs.Remove(l.path(ckptName(c)))
		}
	}
	l.ckpts = append(l.ckpts[:0], lsn)
	l.broken = false
	if err := l.startSegment(); err != nil {
		l.broken = true
		return fmt.Errorf("wal: re-arm after checkpoint: %w", err)
	}
	l.synced = lsn
	return nil
}

// Close writes out staged records, syncs and closes the active segment.
// The log accepts no further operations.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	if !l.broken {
		if err := l.writeSync(); err != nil {
			first = err
		}
	}
	if l.cur == nil {
		return first
	}
	if err := l.cur.Close(); err != nil && first == nil {
		first = fmt.Errorf("wal: close segment: %w", err)
	}
	l.cur = nil
	return first
}
