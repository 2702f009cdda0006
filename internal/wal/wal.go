// Package wal implements the durability substrate of the public loom
// package: a write-ahead segment log of ingest records plus versioned,
// CRC-framed binary checkpoints, both written through a small filesystem
// interface so crash behaviour is testable deterministically.
//
// # On-disk layout
//
// A WAL directory holds two kinds of files:
//
//	wal-<firstLSN>.seg        segment log files, append-only
//	checkpoint-<lsn>.ckpt     full-state checkpoints, written atomically
//
// Every ingest operation of the owning partitioner appends one record to
// the current segment before it is applied (log-before-apply), so the log
// replayed on top of the newest checkpoint reconstructs the exact state —
// including sticky error paths, which fail identically on replay. Records
// are opaque payloads to this package; framing, integrity and ordering are
// its whole job.
//
// Segment files carry a 20-byte header (magic, first LSN, and a CRC-32C
// of those two) followed by length-prefixed records, each protected by a
// CRC-32C (Castagnoli) of its payload. LSNs are implicit: the i-th record
// of a segment has LSN firstLSN+i, and segment chains are validated for
// continuity when the log is read.
//
// Checkpoints are written to a temporary file, fsynced, renamed into
// place, and the directory fsynced — the standard atomic-publish sequence
// — and the last KeepCheckpoints of them are retained so a corrupt latest
// checkpoint can fall back to the previous one. Segments whose records all
// precede the oldest retained checkpoint are deleted.
//
// # Recovery semantics
//
// Open and OpenTailer run one read-only scan. It takes the newest
// checkpoint whose CRC verifies (falling back across retained
// checkpoints, with a warning) and every record after it. A directory
// whose checkpoints are all unreadable and whose log does not reach back
// to LSN 1 surfaces ErrNoCheckpoint.
//
// Damage in the log is classified by one rule. A bad header or frame in
// the final segment is the torn tail of a crashed (or, for a Tailer,
// still writing) writer: recovery returns the intact prefix before it,
// which is always a batch-consistent state, and sets Recovered.TornTail.
// Any other bad header or frame is ErrCorrupt, wrapped in a SegmentError
// that names the segment: segments are fsynced before their successor is
// created, so damage with a segment after it is not a crash artefact, and
// dropping the intact segments behind it would lose acknowledged records.
// A segment chain that jumps forward (records missing before intact ones)
// is ErrGap; one that overlaps is ErrCorrupt. None of these panics.
//
// The callers differ only in what they do at a torn tail: Open cuts it
// off (truncating the bad frame, or removing a final segment whose header
// is damaged) and appends after it, while a Tailer stops before it and
// retries it on the next Poll.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// CheckpointVersion is the checkpoint file format version, bumped when
// the encoding changes shape. Version 2 carries the partitioner's one
// vertex space once (IDs, label names, one label code per vertex) and the
// recorded graph as its edge log of dense index pairs; version 1 wrote the
// vertex set twice, a core label cache, per-vertex window label codes and
// the recorded edges as external IDs with label indices. Only the current
// version is read.
const CheckpointVersion = 2

var (
	segMagic  = [8]byte{'L', 'O', 'O', 'M', 'W', 'A', 'L', '1'}
	ckptMagic = [8]byte{'L', 'O', 'O', 'M', 'C', 'K', 'P', '1'}
)

// castagnoli is the CRC-32C polynomial table; CRC-32C has hardware support
// on every modern ISA and is the conventional WAL record checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Typed recovery errors. They are returned (wrapped with context) from
// Open, OpenTailer and Poll — never panicked — so callers can distinguish
// a recoverable torn tail (not an error at all; see Recovered.TornTail)
// from unrecoverable log damage.
var (
	// ErrCorrupt marks structural damage that is not a torn tail: a bad
	// header or record frame in any segment but the final one, or a
	// segment that overlaps its predecessor. It arrives wrapped in a
	// SegmentError naming the segment.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrGap marks a discontinuity in the segment chain: records between
	// the recovery base and the surviving segments are missing, so no
	// consistent state can be rebuilt.
	ErrGap = errors.New("wal: missing log segment")
	// ErrNoCheckpoint marks a directory whose checkpoints are all
	// unreadable and whose log does not reach back to the beginning of
	// the stream.
	ErrNoCheckpoint = errors.New("wal: no usable checkpoint")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
)

// SegmentError attributes log damage to one segment file, so a supervisor
// can quarantine the segment by name instead of guessing from the message.
// It wraps the underlying classification (ErrCorrupt, ErrGap, or a raw
// read error), which errors.Is/As see through.
type SegmentError struct {
	// Name is the base name of the segment the damage was attributed to.
	Name string
	Err  error
}

func (e *SegmentError) Error() string { return e.Err.Error() }
func (e *SegmentError) Unwrap() error { return e.Err }

// SyncPolicy selects when appended records are written and fsynced to
// stable storage. Under SyncBatch and SyncNone, appended records are
// group-committed: they accumulate in a user-space buffer and are handed
// to the OS in one write per GroupBytes-sized group (and at every sync
// point — Sync, checkpoint, rotation, close). A crash or kill between
// sync points can lose the staged group; recovery still lands on a
// record boundary.
type SyncPolicy uint8

const (
	// SyncBatch (the default) group-commits: the log writes and fsyncs
	// once at least GroupBytes of records have accumulated since the last
	// sync, and always at rotation, checkpoint and close. A crash can lose
	// at most the last group.
	SyncBatch SyncPolicy = iota
	// SyncAlways writes and fsyncs every record: every acknowledged append
	// is durable before the caller proceeds.
	SyncAlways
	// SyncNone never fsyncs on append (rotation, checkpoint and close
	// still sync); staged groups are written per GroupBytes and the OS
	// decides when dirty pages reach the disk.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Options configures a Log.
type Options struct {
	// Dir is the WAL directory (required; created if absent).
	Dir string
	// Policy is the fsync policy (default SyncBatch).
	Policy SyncPolicy
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// GroupBytes is the group-commit threshold (default 256 KiB): staged
	// records are written out — and, under SyncBatch, fsynced — once this
	// many bytes have accumulated.
	GroupBytes int64
	// KeepCheckpoints is how many checkpoints to retain (default 2; the
	// second is the fallback when the latest is corrupt).
	KeepCheckpoints int
	// Retries is how many times a failed segment write or fsync is
	// retried (sleeping RetryBackoff, doubled per attempt, in between)
	// before the log latches broken. Default 0: the first error breaks
	// the log, exactly the pre-retry behaviour.
	Retries int
	// RetryBackoff is the initial delay between write/fsync retries,
	// doubling per attempt (default 10ms). Only consulted when Retries
	// is non-zero.
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.GroupBytes == 0 {
		o.GroupBytes = 256 << 10
	}
	if o.KeepCheckpoints == 0 {
		o.KeepCheckpoints = 2
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	return o
}

// Recovered is what Open or OpenTailer found in an existing WAL directory.
type Recovered struct {
	// HaveCheckpoint reports whether a readable checkpoint was found;
	// Checkpoint is its payload and CheckpointLSN its log position.
	HaveCheckpoint bool
	Checkpoint     []byte
	CheckpointLSN  uint64
	// Records holds the payloads of every surviving record after the
	// checkpoint, in LSN order (the first has LSN CheckpointLSN+1).
	Records [][]byte
	// LastLSN is the LSN of the last surviving record (CheckpointLSN when
	// Records is empty).
	LastLSN uint64
	// TornTail reports that the final segment ends in a damaged header or
	// record frame — a crashed writer's torn tail, or a write still in
	// flight. Records stops before it; Open has cut it off the log, a
	// Tailer retries it on the next Poll.
	TornTail bool
	// CheckpointFallback reports that the newest checkpoint was unreadable
	// and an older one was used instead.
	CheckpointFallback bool
	// Warnings records every degradation tolerated during recovery.
	Warnings []string
}
