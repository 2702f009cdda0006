package loom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"loom/internal/graph"
	"loom/internal/wal"
)

// WALSyncPolicy selects when the write-ahead log fsyncs (Options.WALSync).
// The policies trade ingest latency against the durability of the most
// recent writes; recovery always lands on a consistent batch boundary
// under every policy — what varies is only how much recent ingest a crash
// can lose.
type WALSyncPolicy int

const (
	// WALSyncBatch (the default) group-commits: log records accumulate in
	// a buffer and are written and fsynced together once ~256 KiB have
	// staged, and always at Sync, Checkpoint, segment rotation and Close.
	// A crash or kill loses at most the ingest since the last such point.
	WALSyncBatch WALSyncPolicy = iota
	// WALSyncAlways writes and fsyncs every ingest call: once AddBatch (or
	// AddEdgeE, AddQuery, Flush) returns, that call is durable.
	WALSyncAlways
	// WALSyncNone group-commits writes like WALSyncBatch but never fsyncs
	// on ingest; the OS flushes when it pleases. Sync, Checkpoint,
	// rotation and Close still sync, so a checkpoint is always a hard
	// durability point.
	WALSyncNone
)

func (s WALSyncPolicy) String() string { return s.internal().String() }

func (s WALSyncPolicy) internal() wal.SyncPolicy {
	switch s {
	case WALSyncAlways:
		return wal.SyncAlways
	case WALSyncNone:
		return wal.SyncNone
	default:
		return wal.SyncBatch
	}
}

// WALFailurePolicy selects how a durable partitioner responds when the
// write-ahead log itself fails — a segment write or fsync error that
// survives the configured retries (Options.WALFailure).
type WALFailurePolicy int

const (
	// FailStop (the default) treats a log failure as fatal to ingest: the
	// failing call errors, the sticky Err latches, and every further
	// ingest call is refused. Nothing is ever applied that the log cannot
	// reproduce — the strict log-before-apply contract.
	FailStop WALFailurePolicy = iota
	// DegradeToMemory keeps placements flowing when the log fails: after
	// retries are exhausted a breaker trips, ingest continues memory-only,
	// and DurabilityLost reports the first error plus the LSN watermark of
	// the last record the disk is guaranteed to hold. A successful
	// Checkpoint on a recovered disk captures the full in-memory state,
	// re-arms the log and closes the breaker. Opt-in: serving availability
	// over the durability of the most recent ingest.
	DegradeToMemory
)

func (f WALFailurePolicy) String() string {
	switch f {
	case FailStop:
		return "fail-stop"
	case DegradeToMemory:
		return "degrade-to-memory"
	}
	return fmt.Sprintf("policy(%d)", int(f))
}

// errClosed refuses ingest, Sync and Checkpoint after Close.
var errClosed = errors.New("loom: partitioner is closed")

// ErrWALConfig reports that a checkpoint was written by a partitioner
// whose Options or base workload differ from the ones passed to Open.
// Everything that shapes placement decisions is fingerprinted, and so are
// ExpectedEdges and DisableGraphRecording, which shape the recorded graph
// the checkpoint carries (Workers is deliberately exempt: placements are
// bit-identical across worker counts, so a checkpoint is portable between
// them).
var ErrWALConfig = errors.New("loom: checkpoint does not match Options/workload")

// Typed recovery failures, re-exported from the wal layer for errors.Is.
// Open returns these (wrapped with context) instead of panicking when the
// directory is damaged beyond the degradations recovery tolerates on its
// own (torn tails, corrupt newest checkpoints).
var (
	// ErrWALCorrupt: structural damage that is not a recoverable torn
	// tail — a bad header or record in any segment but the final one, or
	// overlapping segments. DamagedSegment names the segment.
	ErrWALCorrupt = wal.ErrCorrupt
	// ErrWALGap: a log segment between the checkpoint and the tail is
	// missing, so no consistent state can be rebuilt.
	ErrWALGap = wal.ErrGap
	// ErrWALNoCheckpoint: every checkpoint is unreadable and the log does
	// not reach back to the start of the stream.
	ErrWALNoCheckpoint = wal.ErrNoCheckpoint
)

// RecoveryInfo describes what Open found in the WAL directory.
type RecoveryInfo struct {
	// Recovered reports that prior state existed (a checkpoint and/or log
	// records) and was restored; false means a fresh directory.
	Recovered bool
	// CheckpointLSN is the log position of the restored checkpoint (0 if
	// none).
	CheckpointLSN uint64
	// ReplayedRecords is the number of log records replayed on top of the
	// checkpoint.
	ReplayedRecords int
	// LastLSN is the log position after recovery.
	LastLSN uint64
	// TornTail reports that the log ended in a torn write (a crashed
	// writer) and was truncated at the last intact record.
	TornTail bool
	// CheckpointFallback reports that the newest checkpoint was corrupt
	// and an older retained one was used.
	CheckpointFallback bool
	// Warnings lists every degradation tolerated during recovery.
	Warnings []string
}

// Open constructs a durable Loom partitioner backed by the write-ahead
// log in opt.WALDir. If the directory is empty a fresh partitioner is
// returned; otherwise the newest readable checkpoint is loaded and the
// log tail replayed, reconstructing the pre-crash state bit-identically —
// same placements, sizes, stats and event sequence — regardless of how
// the previous process died (see RecoveryInfo for what recovery
// tolerated). Damage a crash cannot explain is never repaired by
// discarding intact segments: it fails with ErrWALCorrupt. wl must be
// the same base workload the directory was created with; queries added
// later via AddQuery are recovered from the log and checkpoint, not from
// wl.
//
// The returned partitioner logs every ingest call before applying it, so
// its in-memory state never runs ahead of what a future Open can
// reproduce. Call Checkpoint periodically to bound replay time and let
// old log segments be pruned, and Close on shutdown.
func Open(opt Options, wl *Workload) (*Partitioner, RecoveryInfo, error) {
	return OpenFS(wal.OS(), opt, wl)
}

// OpenFS is Open over an injectable write-ahead-log filesystem. The FS
// interface lives in an internal package, so only this module's fault
// tests and chaos harness (loom-bench -exp chaos) can construct one;
// external callers use Open, which runs on the real filesystem.
func OpenFS(fsys wal.FS, opt Options, wl *Workload) (*Partitioner, RecoveryInfo, error) {
	nopt, err := opt.normalise()
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	if nopt.WALDir == "" {
		return nil, RecoveryInfo{}, fmt.Errorf("loom: Open requires Options.WALDir (use New for a non-durable partitioner)")
	}
	wlog, recd, err := wal.Open(fsys, wal.Options{
		Dir:             nopt.WALDir,
		Policy:          nopt.WALSync.internal(),
		SegmentBytes:    int64(nopt.WALSegmentBytes),
		KeepCheckpoints: nopt.WALKeepCheckpoints,
		Retries:         nopt.walRetries(),
		RetryBackoff:    nopt.WALRetryBackoff,
	})
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	p, info, err := bootstrap(nopt, wl, recd)
	if err != nil {
		wlog.Close()
		return nil, info, err
	}
	p.wal = wlog
	return p, info, nil
}

// bootstrap is recovery's one code path, shared by Open and Follow: a
// fresh partitioner, the recovered checkpoint restored, the log tail
// replayed through the same locked halves live ingest uses, and one read
// epoch published. The partitioner is unshared until it is returned, so
// no lock is taken. The callers differ only in what they attach after.
func bootstrap(opt Options, wl *Workload, recd *wal.Recovered) (*Partitioner, RecoveryInfo, error) {
	p, err := newLoom(opt, wl, nil)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{
		Recovered:          recd.HaveCheckpoint || len(recd.Records) > 0,
		CheckpointLSN:      recd.CheckpointLSN,
		ReplayedRecords:    len(recd.Records),
		LastLSN:            recd.LastLSN,
		TornTail:           recd.TornTail,
		CheckpointFallback: recd.CheckpointFallback,
		Warnings:           recd.Warnings,
	}
	if recd.HaveCheckpoint {
		if err := p.restoreCheckpoint(recd.Checkpoint); err != nil {
			return nil, info, err
		}
	}
	for i, rec := range recd.Records {
		if err := p.applyRecordLocked(rec); err != nil {
			return nil, info, fmt.Errorf("loom: replay record %d (LSN %d): %w", i, recd.CheckpointLSN+uint64(i)+1, err)
		}
	}
	p.publishLocked()
	return p, info, nil
}

// walRetries maps Options.WALAppendRetries onto the wal layer's count:
// 0 (unset) means the default 2 retries, negative disables retrying.
func (o Options) walRetries() int {
	switch {
	case o.WALAppendRetries < 0:
		return 0
	case o.WALAppendRetries == 0:
		return 2
	default:
		return o.WALAppendRetries
	}
}

// DamagedSegment reports the WAL segment file an error from Follow,
// Follower.Poll or Open was attributed to, when the damage is localised
// to one segment — the name a supervisor quarantines before
// re-bootstrapping. ok is false for errors with no segment attribution
// (gaps spanning the chain, config mismatches, transient I/O elsewhere).
func DamagedSegment(err error) (name string, ok bool) {
	var se *wal.SegmentError
	if errors.As(err, &se) {
		return se.Name, true
	}
	return "", false
}

// Follower is a read-only replica of a durable partitioner: it bootstraps
// from the newest checkpoint in a live primary's WAL directory, replays
// the log tail, and then follows the primary record by record as the log
// grows — without writing a single byte to the directory (contrast Open,
// which positions a writer and truncates torn tails). This is the serving
// tier's "-follow" mode: a router replica on another machine points a
// Follower at a shipped or shared WAL directory and keeps its mirror
// consistent by polling.
//
// The wrapped Partitioner (see Partitioner method) serves every read —
// PartitionOf, Snapshot, Subscribe, Evaluate — but refuses direct
// ingest: state changes arrive exclusively through Poll, which applies
// newly appended primary records under the same ingest lock, emitting
// placement events exactly as the primary did. Because replay is
// bit-identical (the durability guarantee PR 7 pinned), a caught-up
// follower answers PartitionOf identically to the primary at the same log
// position.
type Follower struct {
	mu     sync.Mutex
	p      *Partitioner
	tail   *wal.Tailer
	closed bool
}

// Follow opens a read-only follower over the WAL directory in opt.WALDir.
// The directory may be owned by a live primary on the same filesystem, or
// be a shipped copy that keeps receiving segment updates; Follow never
// modifies it. wl must be the base workload the directory was created
// with, exactly as for Open. The returned RecoveryInfo describes the
// bootstrap (TornTail here means the scan stopped before an in-flight or
// torn final record — the follower picks it up on a later Poll if the
// primary completes it).
func Follow(opt Options, wl *Workload) (*Follower, RecoveryInfo, error) {
	return FollowFS(wal.OS(), opt, wl)
}

// FollowFS is Follow over an injectable filesystem; see OpenFS.
func FollowFS(fsys wal.FS, opt Options, wl *Workload) (*Follower, RecoveryInfo, error) {
	nopt, err := opt.normalise()
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	if nopt.WALDir == "" {
		return nil, RecoveryInfo{}, fmt.Errorf("loom: Follow requires Options.WALDir (the primary's log directory)")
	}
	tail, recd, err := wal.OpenTailer(fsys, nopt.WALDir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	p, info, err := bootstrap(nopt, wl, recd)
	if err != nil {
		return nil, info, err
	}
	p.follower = true
	return &Follower{p: p, tail: tail}, info, nil
}

// Partitioner returns the follower's read surface. It is safe for
// concurrent use like any Partitioner; ingest calls (AddBatch, AddEdgeE,
// Flush, AddQuery) return errors — the follower's state advances only
// through Poll.
func (f *Follower) Partitioner() *Partitioner { return f.p }

// Poll reads every record the primary has appended since the last Poll
// and applies them in log order, publishing a fresh read epoch and
// emitting placement events to subscribers exactly as the primary's own
// ingest did. It returns the number of records applied. A torn or
// in-flight final record is not an error — it is retried next Poll; an
// ErrWALGap means the primary checkpointed and pruned past the follower's
// position, which a fresh Follow (re-bootstrap from the newer checkpoint)
// resolves. Poll is safe for concurrent use with reads; concurrent Polls
// serialise.
func (f *Follower) Poll() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("loom: follower is closed")
	}
	records, err := f.tail.Poll()
	if err != nil {
		return 0, err
	}
	if len(records) == 0 {
		return 0, nil
	}
	f.p.mu.Lock()
	defer f.p.mu.Unlock()
	defer f.p.publishLocked()
	for i, rec := range records {
		if err := f.p.applyRecordLocked(rec); err != nil {
			return i, fmt.Errorf("loom: apply followed record (LSN %d): %w", f.tail.LSN()-uint64(len(records)-1-i), err)
		}
	}
	return len(records), nil
}

// LSN returns the log position the follower has applied through.
func (f *Follower) LSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tail.LSN()
}

// Close stops the follower; later Polls fail. Reads on the wrapped
// Partitioner keep working against the last applied state.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

// Checkpoint atomically writes a full-state snapshot to the WAL
// directory, after which recovery replays only records logged past this
// point and older segments become prunable. It returns the checkpoint
// file size in bytes. Only valid on a durable partitioner (built with
// Open) whose assignment has not been replaced by Refine — a refined
// assignment is a terminal, offline artifact the streaming state cannot
// be reconstructed around.
func (p *Partitioner) Checkpoint() (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.walClosed {
		return 0, errClosed
	}
	if p.wal == nil {
		return 0, fmt.Errorf("loom: Checkpoint requires a durable partitioner (use loom.Open with Options.WALDir)")
	}
	if p.refined != nil {
		return 0, fmt.Errorf("loom: cannot checkpoint a refined assignment (Refine supersedes the streaming state)")
	}
	if p.g != nil {
		// Retry any recorded-graph edge-log spills that failed earlier: a
		// checkpoint is the natural moment to bound resident log memory
		// again. A still-failing spill is not fatal to the checkpoint —
		// the chunks simply stay resident.
		_ = p.g.Compact()
	}
	payload, err := p.encodeCheckpointLocked()
	if err != nil {
		// A spilled edge-log chunk could not be read back. Nothing is
		// written and the sticky Err stays unset: the previous checkpoint
		// and the log still hold the state, and ingest goes on.
		return 0, fmt.Errorf("loom: checkpoint: %w", err)
	}
	n, err := p.wal.WriteCheckpoint(payload)
	if err != nil {
		err = fmt.Errorf("loom: checkpoint failed: %w", err)
		// Under DegradeToMemory a failed checkpoint means the disk is
		// still bad — the breaker stays open, ingest stays live, and the
		// caller retries later. Only FailStop latches the sticky error.
		if p.opt.WALFailure != DegradeToMemory && p.err == nil {
			p.err = err
		}
		return 0, err
	}
	if p.degraded {
		// The checkpoint captured the full in-memory state on a recovered
		// disk and the wal layer re-armed the log around it: durability is
		// restored, the breaker closes.
		p.degraded = false
		p.duraErr = nil
		p.duraLSN = 0
	}
	return n, nil
}

// DurabilityLost reports the breaker state of a durable partitioner
// running under WALFailure == DegradeToMemory. While the breaker is open
// — a log write or fsync failure exhausted its retries — ingest continues
// memory-only: err is the first log failure and lsn is the exact
// watermark of the last record the disk is guaranteed to hold (a crash
// before the next successful Checkpoint recovers state through lsn and
// nothing after it). On a fully durable partitioner both are zero. A
// successful Checkpoint on a recovered disk re-arms the log and resets
// the breaker.
func (p *Partitioner) DurabilityLost() (err error, lsn uint64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.degraded {
		return nil, 0
	}
	return p.duraErr, p.duraLSN
}

// Sync forces every acknowledged ingest call to stable storage, draining
// the group-commit buffer and fsyncing the log regardless of WALSync
// policy. It is the explicit durability point between checkpoints: after
// Sync returns, a crash or kill replays everything ingested so far. On a
// non-durable partitioner Sync is a no-op. Unlike Flush it does not touch
// the streaming window.
func (p *Partitioner) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.walClosed {
		return errClosed
	}
	if p.wal == nil {
		return nil
	}
	if p.degraded {
		// Sync promises durability of every acknowledged call; with the
		// breaker open that promise cannot be kept. Not sticky: ingest is
		// healthy, only durability is degraded (see DurabilityLost).
		return fmt.Errorf("loom: durability degraded since LSN %d: %w", p.duraLSN, p.duraErr)
	}
	if err := p.wal.Sync(); err != nil {
		if p.opt.WALFailure == DegradeToMemory {
			p.degraded = true
			p.duraErr = err
			p.duraLSN = p.wal.SyncedLSN()
			return fmt.Errorf("loom: durability degraded since LSN %d: %w", p.duraLSN, p.duraErr)
		}
		err = fmt.Errorf("loom: wal sync failed: %w", err)
		if p.err == nil {
			p.err = err
		}
		return err
	}
	return nil
}

// Close syncs and closes the write-ahead log. Ingest calls after Close
// return errors; reads (Snapshot, PartitionOf, Evaluate, …) keep working.
// Close does not write a checkpoint — call Checkpoint first for a fast
// next Open. On a non-durable partitioner Close is a no-op.
func (p *Partitioner) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wal == nil {
		return nil
	}
	err := p.wal.Close()
	p.wal = nil
	p.walClosed = true
	return err
}

// --- Write-ahead records -------------------------------------------------
//
// Every mutating public call appends exactly one record before applying
// itself (log-before-apply): a batch (AddBatch, and AddEdgeE as a 1-edge
// batch), a flush, or a workload query. Replay re-applies records through
// the same locked application halves the live calls use, so every
// deterministic outcome — including dropped corrupt edges and their
// sticky errors — reproduces exactly.

const (
	recBatch uint8 = 1
	recFlush uint8 = 2
	recQuery uint8 = 3
)

// encodeBatchRecord writes the edge section first and the label string
// table after it: the table's contents are only known once every edge has
// been scanned, and this order lets a single pass encode straight into e
// with no staging buffer. The label alphabet is tiny, so index lookup is
// a linear scan, fronted by a memo of the previous edge's labels —
// streams run the same vertex types for long stretches, so the memo hits
// far more often than the scan. The labels scratch is passed in and
// returned so the caller can reuse its backing array across batches (the
// ingest path must not allocate per record: the extra garbage skews GC
// pacing inside the partitioner's hot loop).
func encodeBatchRecord(e *wal.Enc, batch []StreamEdge, labels []string) []string {
	e.U8(recBatch)
	labels = labels[:0]
	e.U32(uint32(len(batch)))
	var lastLU, lastLV string
	var lastLUi, lastLVi uint32
	for i := range batch {
		ed := &batch[i]
		if i == 0 || ed.LU != lastLU {
			lastLU = ed.LU
			lastLUi, labels = labelIndex(labels, ed.LU)
		}
		if i == 0 || ed.LV != lastLV {
			lastLV = ed.LV
			lastLVi, labels = labelIndex(labels, ed.LV)
		}
		var eb [24]byte
		binary.LittleEndian.PutUint64(eb[0:8], uint64(ed.U))
		binary.LittleEndian.PutUint64(eb[8:16], uint64(ed.V))
		binary.LittleEndian.PutUint32(eb[16:20], lastLUi)
		binary.LittleEndian.PutUint32(eb[20:24], lastLVi)
		e.B = append(e.B, eb[:]...)
	}
	e.U32(uint32(len(labels)))
	for _, l := range labels {
		e.Str(l)
	}
	return labels
}

func labelIndex(labels []string, s string) (uint32, []string) {
	for i, l := range labels {
		if l == s {
			return uint32(i), labels
		}
	}
	return uint32(len(labels)), append(labels, s)
}

func decodeBatchRecord(d *wal.Dec) ([]StreamEdge, error) {
	// Wire order is edges first, label table second (see encodeBatchRecord),
	// so indices are buffered and resolved once the table is in hand.
	batch := make([]StreamEdge, d.Len(24))
	lidx := make([]uint32, 2*len(batch))
	for i := range batch {
		batch[i].U = d.I64()
		batch[i].V = d.I64()
		lidx[2*i] = d.U32()
		lidx[2*i+1] = d.U32()
	}
	labels := make([]string, d.Len(1))
	for i := range labels {
		labels[i] = d.Str()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	for i := range batch {
		lu, lv := lidx[2*i], lidx[2*i+1]
		if int(lu) >= len(labels) || int(lv) >= len(labels) {
			return nil, fmt.Errorf("batch record references label %d/%d beyond table of %d", lu, lv, len(labels))
		}
		batch[i].LU = labels[lu]
		batch[i].LV = labels[lv]
	}
	return batch, nil
}

func encodeQueryPayload(e *wal.Enc, name string, g *graph.Graph, freq float64) {
	e.Str(name)
	e.F64(freq)
	edges := g.Edges()
	e.U32(uint32(len(edges)))
	for _, ed := range edges {
		lu, lv := g.EdgeLabels(ed)
		e.I64(int64(ed.U))
		e.Str(string(lu))
		e.I64(int64(ed.V))
		e.Str(string(lv))
	}
}

func decodeQueryPayload(d *wal.Dec) (name string, pat *Pattern, freq float64, err error) {
	name = d.Str()
	freq = d.F64()
	g := graph.New()
	n := d.Len(22) // i64 + min str + i64 + min str
	for i := 0; i < n; i++ {
		u := d.I64()
		lu := d.Str()
		v := d.I64()
		lv := d.Str()
		if d.Err() != nil {
			break
		}
		if _, eerr := g.EnsureEdge(graph.VertexID(u), graph.Label(lu), graph.VertexID(v), graph.Label(lv)); eerr != nil {
			return "", nil, 0, fmt.Errorf("query %q edge %d: %w", name, i, eerr)
		}
	}
	if derr := d.Err(); derr != nil {
		return "", nil, 0, derr
	}
	return name, &Pattern{g: g}, freq, nil
}

// errFollower rejects direct ingest into a read-only follower. It is NOT
// retained as the sticky Err: the follower's mirrored state is perfectly
// healthy, the caller just used the wrong door.
func errFollower() error {
	return fmt.Errorf("loom: read-only follower: state advances via Follower.Poll, not direct ingest")
}

// walRecord is the guard every logged call passes before it encodes its
// record: a follower refuses direct ingest, a closed partitioner refuses
// ingest, and a non-durable one logs nothing (nil buffer, nil error).
// Otherwise it clears the record buffer, reserves the eight bytes
// Log.AppendFramed overwrites with the record frame, and returns it. A
// refusal is not retained as the sticky Err here; walAppendFlush does
// that after Close, for Flush has no error return.
func (p *Partitioner) walRecord() (*wal.Enc, error) {
	switch {
	case p.follower:
		return nil, errFollower()
	case p.walClosed:
		return nil, errClosed
	case p.wal == nil:
		return nil, nil
	}
	p.walEnc.B = append(p.walEnc.B[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	return &p.walEnc, nil
}

// walAppendBatch, walAppendFlush and walAppendQuery log one record each.
// On failure nothing must be applied: the returned error becomes the
// caller's.
func (p *Partitioner) walAppendBatch(batch []StreamEdge) error {
	e, err := p.walRecord()
	if e == nil {
		return err
	}
	p.walLabels = encodeBatchRecord(e, batch, p.walLabels)
	return p.walAppend(e.B)
}

func (p *Partitioner) walAppendFlush() error {
	e, err := p.walRecord()
	if e == nil {
		if p.walClosed && p.err == nil {
			p.err = err
		}
		return err
	}
	e.U8(recFlush)
	return p.walAppend(e.B)
}

func (p *Partitioner) walAppendQuery(name string, pat *Pattern, freq float64) error {
	e, err := p.walRecord()
	if e == nil {
		return err
	}
	e.U8(recQuery)
	encodeQueryPayload(e, name, pat.g, freq)
	return p.walAppend(e.B)
}

// walAppend hands the framed record buffer (walRecord + payload) to the
// log. On failure, WALFailure decides: FailStop sets the sticky error and
// nothing may be applied; DegradeToMemory trips the breaker — the record
// is dropped, the operation applies anyway, and ingest runs memory-only
// until a successful Checkpoint re-arms the log.
func (p *Partitioner) walAppend(framed []byte) error {
	if p.degraded {
		return nil // breaker open: memory-only until Checkpoint re-arms
	}
	_, err := p.wal.AppendFramed(framed)
	if err == nil {
		return nil
	}
	if p.opt.WALFailure == DegradeToMemory {
		p.degraded = true
		p.duraErr = err
		p.duraLSN = p.wal.SyncedLSN()
		return nil
	}
	err = fmt.Errorf("loom: wal append failed, operation not applied: %w", err)
	if p.err == nil {
		p.err = err
	}
	return err
}

// applyRecordLocked decodes and applies one replayed record. Decoding is
// completed (and validated) before anything is applied, so a undecodable
// record — CRC-intact but semantically short, i.e. version skew — cannot
// half-apply.
func (p *Partitioner) applyRecordLocked(payload []byte) error {
	d := wal.NewDec(payload)
	switch typ := d.U8(); typ {
	case recBatch:
		batch, err := decodeBatchRecord(d)
		if err != nil {
			return fmt.Errorf("decode batch record: %w", err)
		}
		// Per-record errors (corrupt edges) were already sticky in the
		// run that logged them and re-latch identically here.
		_ = p.applyBatchLocked(batch)
		return nil
	case recFlush:
		if err := d.Err(); err != nil {
			return err
		}
		p.streamer.Flush()
		return nil
	case recQuery:
		name, pat, freq, err := decodeQueryPayload(d)
		if err != nil {
			return fmt.Errorf("decode query record: %w", err)
		}
		// A query that failed validation when logged fails identically.
		_ = p.applyQueryLocked(name, pat, freq)
		return nil
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
}

// --- Checkpoint payload --------------------------------------------------
//
// The checkpoint is the full partitioner state in one CRC-framed payload.
// This file writes its own sections — meta (event seq, subscription flag,
// sticky error), the placement-shaping config fingerprint, the workload
// (base fingerprint + AddQuery tail) and a trie identity check — and each
// layer writes and validates its own section after them, through its
// AppendState/RestoreState pair: the signature scheme's label r-values
// (drawn in first-use order, so stream-history-dependent), then the
// core's (the vertex space once for every layer, the tracker, the core
// counters and the complete window matcher state), then the recorded
// graph's edge log as dense index pairs. A spilled edge-log chunk that
// cannot be read back fails the checkpoint with an error and writes
// nothing. The trie itself is never serialised — it is rebuilt
// deterministically from the base workload plus the query tail, which
// reproduces every node ID the window section refers to.

func (p *Partitioner) encodeCheckpointLocked() ([]byte, error) {
	var e wal.Enc
	// Meta.
	e.U64(p.seq)
	e.Bool(p.evHooked)
	e.Bool(p.err != nil)
	if p.err != nil {
		e.Str(p.err.Error())
	}
	// Config fingerprint (normalised values; Workers excluded).
	e.I64(int64(p.opt.Partitions))
	e.I64(int64(p.opt.ExpectedVertices))
	e.I64(int64(p.opt.ExpectedEdges))
	e.I64(int64(p.opt.WindowSize))
	e.F64(p.opt.SupportThreshold)
	e.F64(p.opt.Alpha)
	e.F64(p.opt.MaxImbalance)
	e.U32(p.opt.SignaturePrime)
	e.I64(p.opt.Seed)
	e.Bool(p.opt.DisableGraphRecording)
	// Workload: base fingerprint + replayable AddQuery tail.
	e.U32(uint32(p.baseQueries))
	e.U32(p.baseWorkloadCRC())
	e.U32(uint32(len(p.added)))
	for _, q := range p.added {
		encodeQueryPayload(&e, q.name, q.pat.g, q.freq)
	}
	// Trie identity check (validated after the rebuild on restore).
	e.I64(int64(p.trie.Size()))
	e.I64(int64(p.trie.Version()))
	e.F64(p.trie.TotalWeight())
	// The layers' own sections.
	p.trie.Scheme().AppendState(&e)
	p.loom.AppendState(&e)
	e.Bool(p.g != nil)
	if p.g != nil {
		if err := p.g.AppendState(&e); err != nil {
			return nil, err
		}
	}
	return e.B, nil
}

// baseWorkloadCRC fingerprints the construction-time workload (the first
// baseQueries entries): Open must be handed the exact workload the
// checkpoint was built against, or the rebuilt trie — and with it every
// node ID and placement decision — would silently diverge.
func (p *Partitioner) baseWorkloadCRC() uint32 {
	var e wal.Enc
	for _, q := range p.wl.queries[:p.baseQueries] {
		encodeQueryPayload(&e, q.Name, q.Pattern, q.Freq)
	}
	return wal.Checksum(e.B)
}

// restoreCheckpoint loads a checkpoint payload into a fresh partitioner.
// A config or workload mismatch fails with ErrWALConfig before any layer
// is loaded; a layer that fails to load leaves the partitioner half
// loaded, and the caller discards it.
func (p *Partitioner) restoreCheckpoint(payload []byte) error {
	d := wal.NewDec(payload)
	fail := func(what string, err error) error {
		if derr := d.Err(); derr != nil {
			err = derr // a truncated section, whatever its reader made of the zeros
		}
		return fmt.Errorf("loom: checkpoint %s: %w", what, err)
	}

	// Meta.
	seq := d.U64()
	hooked := d.Bool()
	var errMsg string
	hasErr := d.Bool()
	if hasErr {
		errMsg = d.Str()
	}

	// Config fingerprint vs the options Open was given.
	type cfgField struct {
		name string
		want string
		got  string
	}
	var mismatches []cfgField
	cmpI := func(name string, got int64) {
		if want := d.I64(); want != got {
			mismatches = append(mismatches, cfgField{name, fmt.Sprint(want), fmt.Sprint(got)})
		}
	}
	cmpF := func(name string, got float64) {
		if want := d.F64(); want != got {
			mismatches = append(mismatches, cfgField{name, fmt.Sprint(want), fmt.Sprint(got)})
		}
	}
	cmpI("Partitions", int64(p.opt.Partitions))
	cmpI("ExpectedVertices", int64(p.opt.ExpectedVertices))
	cmpI("ExpectedEdges", int64(p.opt.ExpectedEdges))
	cmpI("WindowSize", int64(p.opt.WindowSize))
	cmpF("SupportThreshold", p.opt.SupportThreshold)
	cmpF("Alpha", p.opt.Alpha)
	cmpF("MaxImbalance", p.opt.MaxImbalance)
	if want := d.U32(); want != p.opt.SignaturePrime {
		mismatches = append(mismatches, cfgField{"SignaturePrime", fmt.Sprint(want), fmt.Sprint(p.opt.SignaturePrime)})
	}
	cmpI("Seed", p.opt.Seed)
	if want := d.Bool(); want != p.opt.DisableGraphRecording {
		mismatches = append(mismatches, cfgField{"DisableGraphRecording", fmt.Sprint(want), fmt.Sprint(p.opt.DisableGraphRecording)})
	}

	// Workload base fingerprint + query tail.
	baseCount := int(d.U32())
	baseCRC := d.U32()
	tailN := d.Len(1)
	type tailQ struct {
		name string
		pat  *Pattern
		freq float64
	}
	tail := make([]tailQ, 0, tailN)
	for i := 0; i < tailN; i++ {
		name, pat, freq, err := decodeQueryPayload(d)
		if err != nil {
			return fail("query tail", err)
		}
		tail = append(tail, tailQ{name, pat, freq})
	}

	trieSize := int(d.I64())
	trieVersion := int(d.I64())
	trieWeight := d.F64()

	// This file's sections decoded; check them before any layer loads.
	if err := d.Err(); err != nil {
		return fail("decode", err)
	}
	if len(mismatches) > 0 {
		m := mismatches[0]
		return fmt.Errorf("loom: checkpoint %s is %s but Open was given %s (%d mismatching fields): %w",
			m.name, m.want, m.got, len(mismatches), ErrWALConfig)
	}
	if baseCount != p.baseQueries {
		return fmt.Errorf("loom: checkpoint base workload has %d queries but Open was given %d: %w",
			baseCount, p.baseQueries, ErrWALConfig)
	}
	if got := p.baseWorkloadCRC(); got != baseCRC {
		return fmt.Errorf("loom: base workload fingerprint %08x does not match checkpoint %08x: %w",
			got, baseCRC, ErrWALConfig)
	}

	// Load, in payload order. The signature scheme comes before the query
	// tail (AddQuery computes trie deltas through it — a tail query whose
	// labels the primary first met mid-stream must see the primary's
	// r-values, not fresh draws), and the tail before the core (whose
	// window matches reference the rebuilt trie nodes by ID).
	if err := p.trie.Scheme().RestoreState(d); err != nil {
		return fail("signature scheme", err)
	}
	for _, q := range tail {
		if err := p.applyQueryLocked(q.name, q.pat, q.freq); err != nil {
			return fail("query tail", err)
		}
	}
	if p.trie.Size() != trieSize || p.trie.Version() != trieVersion || p.trie.TotalWeight() != trieWeight {
		return fail("trie identity", fmt.Errorf("rebuilt trie (size %d, version %d, weight %g) does not match checkpoint (size %d, version %d, weight %g)",
			p.trie.Size(), p.trie.Version(), p.trie.TotalWeight(), trieSize, trieVersion, trieWeight))
	}
	if err := p.loom.RestoreState(d); err != nil {
		return fail("core", err)
	}
	if hasGraph := d.Bool(); hasGraph != (p.g != nil) {
		return fail("graph section", fmt.Errorf("presence %v does not match options", hasGraph))
	}
	if p.g != nil {
		if err := p.g.RestoreState(d); err != nil {
			return fail("recorded graph", err)
		}
	}
	if err := d.Err(); err != nil {
		return fail("decode", err)
	}
	p.seq = seq
	if hasErr {
		p.err = errors.New(errMsg)
	}
	if hooked {
		p.installEventHooksLocked()
	}
	return nil
}
