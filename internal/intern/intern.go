// Package intern provides the dense interning tables that back Loom's
// streaming hot path: a VertexTable mapping sparse external vertex IDs
// (int64) to dense uint32 indices, and a LabelTable mapping label strings to
// small uint16 codes.
//
// Loom's per-edge cost must stay constant and tiny (§4–5 of the paper): a
// single-pass online partitioner that hashes strings and sparse IDs on every
// bookkeeping access cannot keep up with serving-scale streams. Interning
// confines hashing to the ingest boundary — one int64 map probe per endpoint
// and one string map probe per label — after which every downstream
// structure (adjacency, partition assignments, window matchLists, label
// r-values) is a plain slice indexed by the dense index or code.
//
// Tables only grow; indices and codes are stable for the lifetime of the
// table. A Space bundles one vertex table, one label table and one label
// code per vertex, and Loom's partitioner shares a single Space among the
// recorded graph, the partition tracker, the sliding window and the
// placement core, so each vertex and label is interned once and every
// component indexes its own slices by the same dense index.
//
// # Concurrency
//
// Tables are not safe for concurrent mutation (Loom's placement core is
// single-threaded by design, §6 of the paper), but they admit concurrent
// readers at two strengths:
//
// Quiescent reads: every read-only call — VertexTable.Lookup/ID/Len/IDs,
// LabelTable.Lookup/Name/Len/Names and Space.Code — is safe from any
// number of goroutines while no Intern or SetCode runs. This is the
// contract behind internal/core's batch pipeline, which runs three phases
// per batch, each separated from the next by a goroutine join: first the
// validate hook records the batch into the graph on the driver alone,
// interning every vertex and label it has not seen; then worker
// goroutines fan read-only lookups of vertices, labels and codes across
// the batch; then a single serial phase interns what is still unknown (in
// arrival order, keeping dense indices bit-identical to sequential
// ingest). Validate interns into the same tables the workers read, so it
// must finish before the fan-out starts, never overlap it.
//
// Live reads: VertexTable.Lookup (and View.Lookup) additionally tolerates a
// single concurrent Intern-ing writer. Slots publish their dense index with
// an atomic release store after the external ID, the slot array itself is
// swapped with an atomic pointer on growth, and indices are never deleted —
// so a concurrent probe either finds an entry that was fully published or
// stops at an empty slot, never observes a torn one. A View captured at a
// known-consistent instant bounds Lookup to the vertices interned by then,
// which is what lets partition epochs serve lock-free point reads while the
// stream keeps interning (see internal/partition's Epoch). LabelTable makes
// no such promise: it is map-backed and supports quiescent reads only.
package intern

import (
	"fmt"
	"sync/atomic"
)

// MaxLabels bounds the label alphabet: codes are uint16, one value is kept
// back to mark an unlabelled vertex in a Space, and the paper's datasets
// use alphabets of a handful of labels ("typically small", §1.3).
const MaxLabels = 1<<16 - 1

// VertexTable interns external int64 vertex IDs as dense uint32 indices in
// first-seen order.
//
// The index is an open-addressing table whose slots carry the external ID
// alongside the dense index, so the overwhelmingly common case — probing
// an already-interned vertex — confirms the hit within the slot's own
// cache line. (The previous layout stored only the 4-byte index per slot
// and confirmed against the ids slice, paying a second, dependent cache
// miss on every probe of the per-edge hot path.) The ids slice remains
// the reverse mapping. Indices are never deleted, so there are no
// tombstones.
//
// Slot fields are written with atomic stores (ID first, index last) and the
// slot array is republished through an atomic pointer on growth, so Lookup
// is safe against one concurrent Intern-ing writer — see the package
// comment's "live reads" contract.
type VertexTable struct {
	slots atomic.Pointer[[]vtSlot] // current slot array; vtEmpty idx marks a free slot
	ids   []int64                  // dense index → external ID (writer-owned; readers use View)
}

// vtSlot is one hash slot: the interned external ID and its dense index.
// Both fields are accessed with sync/atomic functions (plain fields rather
// than atomic.Int64/Uint32 so grow and Clone can bulk-copy slot arrays).
type vtSlot struct {
	id  int64
	idx uint32
}

// vtEmpty marks a free hash slot. It can never be a real dense index:
// Intern panics before assigning index 2^32-1.
const vtEmpty = ^uint32(0)

// NewVertexTable returns an empty table pre-sized for capacityHint vertices.
func NewVertexTable(capacityHint int) *VertexTable {
	if capacityHint < 0 {
		capacityHint = 0
	}
	t := &VertexTable{ids: make([]int64, 0, capacityHint)}
	n := 0
	if capacityHint > 0 {
		n = SlotsFor(capacityHint, 16)
	}
	t.slots.Store(newSlotArray(n))
	return t
}

// newSlotArray allocates n empty slots (n must be 0 or a power of two).
func newSlotArray(n int) *[]vtSlot {
	slots := make([]vtSlot, n)
	for i := range slots {
		slots[i].idx = vtEmpty
	}
	return &slots
}

// SlotsFor returns the power-of-two slot count (at least min) that keeps
// an open-addressing table's load under 3/4 for n entries. Shared by the
// hot-path hash tables built on Mix64 (the vertex table here, the
// window's edge table).
func SlotsFor(n, min int) int {
	s := min
	for s*3 < n*4 {
		s *= 2
	}
	return s
}

// Mix64 finishes a 64-bit key with splitmix64's avalanche, spreading
// sequential IDs (or packed index pairs) over a power-of-two table.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func vtHash(id int64) uint64 { return Mix64(uint64(id)) }

// grow rebuilds the slot array at n slots and republishes it. The new array
// is fully populated with plain writes before the atomic pointer store, so
// concurrent readers see either the old array (still valid: entries are
// never deleted) or the complete new one.
func (t *VertexTable) grow(n int) *[]vtSlot {
	arr := newSlotArray(n)
	slots := *arr
	mask := uint64(n - 1)
	for idx, id := range t.ids {
		i := vtHash(id) & mask
		for slots[i].idx != vtEmpty {
			i = (i + 1) & mask
		}
		slots[i] = vtSlot{id: id, idx: uint32(idx)}
	}
	t.slots.Store(arr)
	return arr
}

// Intern returns the dense index of id, assigning the next free index on
// first use. Single writer only (see the package comment).
func (t *VertexTable) Intern(id int64) uint32 {
	arr := t.slots.Load()
	if (len(t.ids)+1)*4 > len(*arr)*3 {
		arr = t.grow(SlotsFor(len(t.ids)+1, 16))
	}
	slots := *arr
	mask := uint64(len(slots) - 1)
	i := vtHash(id) & mask
	for {
		s := &slots[i]
		if s.idx == vtEmpty {
			break
		}
		if s.id == id {
			return s.idx
		}
		i = (i + 1) & mask
	}
	if len(t.ids) >= int(^uint32(0)) {
		panic("intern: vertex table overflow (2^32-1 vertices)")
	}
	idx := uint32(len(t.ids))
	t.ids = append(t.ids, id)
	s := &slots[i]
	// Publish the slot for live readers: ID first, index last. A reader
	// that loads idx != vtEmpty is guaranteed to read the matching ID.
	atomic.StoreInt64(&s.id, id)
	atomic.StoreUint32(&s.idx, idx)
	return idx
}

// Lookup returns the dense index of id without interning it. Lookup is a
// pure read, safe from any number of goroutines even while a single writer
// is interning (the "live reads" contract in the package comment): slots
// publish atomically and are never deleted, so a probe either finds a fully
// published entry or stops at an empty slot. A concurrently-interned id may
// or may not be found — capture a View to pin the boundary.
func (t *VertexTable) Lookup(id int64) (uint32, bool) {
	slots := *t.slots.Load()
	if len(slots) == 0 {
		return 0, false
	}
	mask := uint64(len(slots) - 1)
	for i := vtHash(id) & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		idx := atomic.LoadUint32(&s.idx)
		if idx == vtEmpty {
			return 0, false
		}
		if atomic.LoadInt64(&s.id) == id {
			return idx, true
		}
	}
}

// ID returns the external ID at dense index i. It panics if i has not been
// assigned.
func (t *VertexTable) ID(i uint32) int64 {
	if int(i) >= len(t.ids) {
		panic(fmt.Sprintf("intern: vertex index %d out of range (len %d)", i, len(t.ids)))
	}
	return t.ids[i]
}

// Len returns the number of interned vertices; valid indices are [0, Len).
func (t *VertexTable) Len() int { return len(t.ids) }

// IDs returns the interned external IDs in index order. The slice is owned
// by the table and must not be modified.
func (t *VertexTable) IDs() []int64 { return t.ids }

// MemBytes returns the table's memory footprint — the slot array plus the
// reverse mapping — for the recorded graph's memory accounting.
func (t *VertexTable) MemBytes() int {
	const slotBytes = 16 // vtSlot: int64 + uint32, padded
	return len(*t.slots.Load())*slotBytes + cap(t.ids)*8
}

// Clone returns a deep copy of the table. Like Intern, Clone runs on the
// writer side: it must not race a concurrent Intern.
func (t *VertexTable) Clone() *VertexTable {
	src := *t.slots.Load()
	c := &VertexTable{ids: append([]int64(nil), t.ids...)}
	slots := append([]vtSlot(nil), src...)
	c.slots.Store(&slots)
	return c
}

// View is an immutable point-in-time view of a VertexTable: the set of
// vertices interned when it was captured. Capture is O(1) — the view pins
// the reverse-mapping slice header (index-stable, append-only) and bounds
// lookups to it — and every View method is safe from any number of
// goroutines while the underlying table keeps interning, per the live-reads
// contract. Views are plain values; copy them freely.
type View struct {
	t   *VertexTable
	ids []int64 // captured reverse mapping; also the index bound
}

// View captures the table's current extent. Writer side only: it must not
// race a concurrent Intern (callers capture under their ingest lock, then
// hand the View to any number of readers).
func (t *VertexTable) View() View { return View{t: t, ids: t.ids} }

// Len returns the number of vertices in the view; valid indices are
// [0, Len).
func (v View) Len() int { return len(v.ids) }

// Lookup returns the dense index of id if it was interned by capture time.
// Vertices interned after the view was captured are reported absent, even
// though the live table already knows them.
func (v View) Lookup(id int64) (uint32, bool) {
	if v.t == nil {
		return 0, false
	}
	i, ok := v.t.Lookup(id)
	if !ok || int(i) >= len(v.ids) {
		return 0, false
	}
	return i, true
}

// ID returns the external ID at dense index i. It panics if i is beyond the
// view.
func (v View) ID(i uint32) int64 {
	if int(i) >= len(v.ids) {
		panic(fmt.Sprintf("intern: vertex index %d out of view (len %d)", i, len(v.ids)))
	}
	return v.ids[i]
}

// IDs returns the view's external IDs in index order. The slice is shared
// and immutable; it must not be modified.
func (v View) IDs() []int64 { return v.ids }

// Table returns the view's underlying live table. Lookups through it are
// concurrent-safe but not bounded by the view (use View.Lookup for that);
// it exists so read-only wrappers can share the table instead of cloning
// it. Interning through it from a reader goroutine violates the
// single-writer contract.
func (v View) Table() *VertexTable { return v.t }

// LabelTable interns label strings as dense uint16 codes in first-seen
// order.
type LabelTable struct {
	code  map[string]uint16
	names []string
}

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable {
	return &LabelTable{code: make(map[string]uint16)}
}

// Intern returns the code of name, assigning the next free code on first
// use. It panics past MaxLabels distinct labels (the alphabet LV is small by
// construction; overflowing it indicates corrupt input, e.g. IDs fed as
// labels).
func (t *LabelTable) Intern(name string) uint16 {
	if c, ok := t.code[name]; ok {
		return c
	}
	if len(t.names) >= MaxLabels {
		panic(fmt.Sprintf("intern: label table overflow (%d distinct labels)", MaxLabels))
	}
	c := uint16(len(t.names))
	t.code[name] = c
	t.names = append(t.names, name)
	return c
}

// Lookup returns the code of name without interning it. Unlike
// VertexTable.Lookup it supports quiescent reads only: safe for concurrent
// readers while no Intern is running.
func (t *LabelTable) Lookup(name string) (uint16, bool) {
	c, ok := t.code[name]
	return c, ok
}

// Name returns the label string for code c. It panics if c has not been
// assigned.
func (t *LabelTable) Name(c uint16) string {
	if int(c) >= len(t.names) {
		panic(fmt.Sprintf("intern: label code %d out of range (len %d)", c, len(t.names)))
	}
	return t.names[c]
}

// Len returns the number of interned labels; valid codes are [0, Len).
func (t *LabelTable) Len() int { return len(t.names) }

// Names returns the interned labels in code order. The slice is owned by
// the table and must not be modified.
func (t *LabelTable) Names() []string { return t.names }

// Clone returns a deep copy of the table.
func (t *LabelTable) Clone() *LabelTable {
	c := &LabelTable{
		code:  make(map[string]uint16, len(t.code)),
		names: append([]string(nil), t.names...),
	}
	for n, cd := range t.code {
		c.code[n] = cd
	}
	return c
}
