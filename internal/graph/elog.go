package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"

	"loom/internal/wal"
)

// The edge log is the recorded graph's insertion-order edge sequence —
// what eorder ([]Edge, 16 bytes per edge plus slice overhead) and the
// partitioner's accepted-edge log ([]StreamEdge, ~48 bytes plus four
// strings per edge) used to hold as materialised slices. It stores
// (ui, vi) dense-index pairs as plain varints in self-contained chunks of
// logChunkEdges edges: ~2–4 bytes per edge on real streams. Absolute
// values beat delta coding here — consecutive stream edges are unsorted,
// so deltas have random sign and hub magnitude, while skewed streams keep
// most absolute indices small (hubs intern first and recur most).
//
// Frozen chunks are immutable. With a spill filesystem configured (the
// same wal.FS abstraction the WAL uses, so the fault-injection MemFS
// applies), each chunk is written to disk at freeze time — temp file,
// Sync, Rename, SyncDir — and its in-memory payload dropped, bounding
// resident log memory to the active chunk regardless of stream length. A
// failed spill degrades gracefully: the chunk stays resident, the error
// is recorded, and Compact retries later (the partitioner calls it at
// checkpoint).
//
// Readers never take the writer's lock: view() captures slice headers of
// the frozen list and the active buffer (append-only — reallocation makes
// new arrays, captured headers stay valid), and Compact never mutates a
// published frozen array in place (it rebuilds the slice copy-on-write
// and swaps). Spilled files are write-once at the point a view can
// reference them.

// logChunkEdges is the number of edges per frozen chunk. At ~3 bytes per
// encoded edge a chunk is ~12 KiB: large enough that spill I/O is
// amortised, small enough that the resident active tail is negligible.
const logChunkEdges = 4096

// logChunk is one frozen run of logChunkEdges edges. Exactly one of data
// and file is set: data holds the encoded payload in memory; file names
// the spilled chunk (base name inside the log's dir).
type logChunk struct {
	data []byte
	file string
	n    int
}

// edgeLog accumulates the edge sequence. Not safe for concurrent writers;
// the Graph's owner (the partitioner) serialises writes, and lock-free
// readers use view().
type edgeLog struct {
	frozen  []logChunk
	active  []byte
	activeN int
	n       int

	fs       wal.FS // nil: pure in-memory log; non-nil: read (and spill) chunks here
	dir      string
	noSpill  bool  // read spilled chunks but never write new ones (clones)
	spillErr error // latest failed spill; cleared by a successful Compact
	spilled  int   // chunks resident on disk
	spillB   int64 // bytes resident on disk
}

const (
	logChunkMagic = 0x4c454331 // "LEC1"
	logChunkHdr   = 12         // magic + edge count + payload crc32
)

func logChunkName(i int) string { return fmt.Sprintf("elog-%08d.chk", i) }

// append records edge (ui, vi). Each edge encodes independently, so every
// chunk decodes independently of its predecessors — the property spilling
// depends on.
func (l *edgeLog) append(ui, vi uint32) {
	l.active = appendUv(l.active, uint64(ui))
	l.active = appendUv(l.active, uint64(vi))
	l.activeN++
	l.n++
	if l.activeN == logChunkEdges {
		l.freeze()
	}
}

// freeze seals the active buffer into a frozen chunk (spilling it if a
// filesystem is configured) and starts a fresh active buffer. A chunk
// staying resident is copied to exact size first: the active buffer's
// append slack would otherwise be locked in for the log's lifetime.
func (l *edgeLog) freeze() {
	c := logChunk{data: l.active, n: l.activeN}
	if l.fs != nil && !l.noSpill {
		if err := l.spill(&c, len(l.frozen)); err != nil {
			l.spillErr = err
		}
	}
	if c.data != nil && cap(c.data) > len(c.data) {
		c.data = append(make([]byte, 0, len(c.data)), c.data...)
	}
	l.frozen = append(l.frozen, c)
	l.active = make([]byte, 0, logChunkEdges*3)
	l.activeN = 0
}

// spill writes chunk index i durably and, on success, swaps the chunk's
// in-memory payload for its file name. The temp-write / Sync / Rename /
// SyncDir sequence means a crash at any point leaves either the complete
// chunk or no chunk — never a torn one — and re-spilling after a crash
// overwrites any leftover temp file.
func (l *edgeLog) spill(c *logChunk, i int) error {
	name := logChunkName(i)
	tmp := filepath.Join(l.dir, name+".tmp")
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("graph: spill chunk %d: %w", i, err)
	}
	var hdr [logChunkHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], logChunkMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.n))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(c.data))
	if _, err = f.Write(hdr[:]); err == nil {
		_, err = f.Write(c.data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.fs.Rename(tmp, filepath.Join(l.dir, name))
	}
	if err == nil {
		err = l.fs.SyncDir(l.dir)
	}
	if err != nil {
		return fmt.Errorf("graph: spill chunk %d: %w", i, err)
	}
	l.spilled++
	l.spillB += int64(logChunkHdr + len(c.data))
	c.file = name
	c.data = nil
	return nil
}

// compact retries the spill of any chunk still resident because an
// earlier spill failed. It never mutates the published frozen array:
// captured views may be iterating it, so the slice is rebuilt and
// swapped. Returns the first error, leaving the remainder for the next
// attempt.
func (l *edgeLog) compact() error {
	if l.fs == nil || l.noSpill {
		return nil
	}
	resident := false
	for i := range l.frozen {
		if l.frozen[i].file == "" {
			resident = true
			break
		}
	}
	if !resident {
		l.spillErr = nil
		return nil
	}
	next := append([]logChunk(nil), l.frozen...)
	var firstErr error
	for i := range next {
		if next[i].file != "" {
			continue
		}
		if err := l.spill(&next[i], i); err != nil {
			firstErr = err
			break
		}
	}
	l.frozen = next
	l.spillErr = firstErr
	return firstErr
}

// logView is an immutable capture of the log for lock-free sequential
// replay. The captured headers stay valid because the writer only
// appends (to new backing arrays on growth) and never mutates published
// chunk entries in place.
type logView struct {
	frozen  []logChunk
	active  []byte
	activeN int
	n       int
	fs      wal.FS
	dir     string
}

// view captures the log. Call with the graph's writer lock held (or the
// writer otherwise quiescent); the returned view is then safe to read
// without any lock.
func (l *edgeLog) view() logView {
	return logView{
		frozen:  l.frozen,
		active:  l.active,
		activeN: l.activeN,
		n:       l.n,
		fs:      l.fs,
		dir:     l.dir,
	}
}

func (v logView) len() int { return v.n }

// each replays the captured edge sequence in insertion order. Spilled
// chunks are read back one at a time — replay memory is one chunk, not
// the log. fn returning an error stops the replay.
func (v logView) each(fn func(ui, vi uint32) error) error {
	for i, c := range v.frozen {
		data := c.data
		if data == nil {
			var err error
			if data, err = v.readChunk(i, c); err != nil {
				return err
			}
		}
		if err := eachChunk(data, c.n, fn); err != nil {
			return err
		}
	}
	return eachChunk(v.active, v.activeN, fn)
}

// readChunk loads and validates a spilled chunk.
func (v logView) readChunk(i int, c logChunk) ([]byte, error) {
	raw, err := v.fs.ReadFile(filepath.Join(v.dir, c.file))
	if err != nil {
		return nil, fmt.Errorf("graph: read spilled chunk %d: %w", i, err)
	}
	if len(raw) < logChunkHdr || binary.LittleEndian.Uint32(raw[0:]) != logChunkMagic {
		return nil, fmt.Errorf("graph: spilled chunk %d: bad header", i)
	}
	if int(binary.LittleEndian.Uint32(raw[4:])) != c.n {
		return nil, fmt.Errorf("graph: spilled chunk %d: edge count mismatch", i)
	}
	data := raw[logChunkHdr:]
	if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(raw[8:]) {
		return nil, fmt.Errorf("graph: spilled chunk %d: checksum mismatch", i)
	}
	return data, nil
}

// eachChunk decodes one self-contained chunk payload. Spilled payloads
// come back from disk, so every varint is checked — present, not
// overflowing, below 2³² — before the cursor moves past it.
func eachChunk(data []byte, n int, fn func(ui, vi uint32) error) error {
	i := 0
	for k := 0; k < n; k++ {
		u, nu := binary.Uvarint(data[i:])
		if nu <= 0 || u > math.MaxUint32 {
			return corruptChunk(k, n)
		}
		i += nu
		v, nv := binary.Uvarint(data[i:])
		if nv <= 0 || v > math.MaxUint32 {
			return corruptChunk(k, n)
		}
		i += nv
		if err := fn(uint32(u), uint32(v)); err != nil {
			return err
		}
	}
	return nil
}

func corruptChunk(k, n int) error {
	return fmt.Errorf("graph: corrupt edge log chunk (edge %d of %d)", k, n)
}

// clone deep-copies the log's mutable state. Frozen chunk payloads are
// immutable and shared, and the clone keeps the filesystem for reading
// already-spilled chunks — but never spills new ones (clones are
// read-mostly scratch copies, e.g. Refine working sets, whose appends
// must not overwrite the original's chunk files).
func (l *edgeLog) clone() edgeLog {
	c := *l
	c.frozen = append([]logChunk(nil), l.frozen...)
	c.active = append(make([]byte, 0, cap(l.active)), l.active...)
	c.noSpill = true
	c.spillErr = nil
	return c
}

// bytes returns resident (in-memory) log bytes.
func (l *edgeLog) bytes() int {
	b := cap(l.active) + cap(l.frozen)*48 // 48 ≈ sizeof(logChunk)
	for _, c := range l.frozen {
		b += cap(c.data) + len(c.file)
	}
	return b
}
