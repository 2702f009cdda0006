package router

import (
	"sync"
	"sync/atomic"

	"loom"
)

// maxNeighborSample bounds the per-vertex adjacency sample the mirror
// keeps from evict events. Evicted edges are exactly the motif-relevant
// ones (an edge enters Loom's window only by matching a workload motif),
// so a small sample per vertex is enough for scatter planning without
// mirroring the whole graph.
const maxNeighborSample = 8

// Mirror is a goroutine-safe vertex → partition table kept in sync with a
// Partitioner through its placement event stream, plus a pinned routing
// generation — an immutable Snapshot swapped atomically — as the fallback
// for vertices whose event the mirror has not (or never will have)
// received. The pair is complete: placements are write-once, so a vertex
// is either in the live mirror, in the pinned generation, or still
// windowed in Ptemp.
//
// The mirror has its own lock because event handlers run on the ingesting
// goroutines (under the partitioner's ingest lock) while lookups arrive on
// others. Apply never calls back into the Partitioner — doing so from a
// placement handler would self-deadlock — and the lookup path never
// touches the partitioner's locks at all: routing stays up while ingest
// hammers the write lock.
//
// Sequence accounting: events carry dense Seqs, and Subscribe reports the
// first Seq a mid-stream subscription will observe, so the mirror can
// detect lost or reordered deliveries (Stats.Gaps / Stats.Lost). A gap
// never occurs through the in-process feed; it exists to catch bugs in
// transports that forward events between processes. Heal repins a fresh
// snapshot — which, being write-once state, necessarily covers every
// placement a lost event carried — and clears the counters.
type Mirror struct {
	mu      sync.RWMutex
	table   map[int64]int
	nbrs    map[int64][]int64 // bounded sample of motif-relevant adjacency
	evicted uint64
	applied uint64

	seeded   bool
	firstSeq uint64
	nextSeq  uint64
	gaps     uint64
	lost     uint64

	gen   atomic.Pointer[loom.Snapshot]
	ready atomic.Bool

	lookups      atomic.Uint64
	mirrorHits   atomic.Uint64
	snapshotHits atomic.Uint64
	misses       atomic.Uint64
}

// New returns a detached Mirror. Feed it by passing m.Apply to
// Partitioner.Subscribe yourself, or call Attach to do the full
// mid-stream splice (subscribe + pin + ready) in one step.
func New() *Mirror {
	return &Mirror{
		table: make(map[int64]int),
		nbrs:  make(map[int64][]int64),
	}
}

// Attach splices the mirror onto p's live feed, correctly even while other
// goroutines are ingesting: it subscribes Apply, pins a Snapshot taken
// after the subscription (Subscribe's contract: that snapshot covers every
// placement whose event predates the returned firstSeq), and marks the
// mirror ready. From this point every vertex p has placed — before or
// after the attach — resolves through Lookup. Returns the first event
// sequence number the live feed will deliver.
func (m *Mirror) Attach(p *loom.Partitioner) (firstSeq uint64) {
	firstSeq = p.Subscribe(m.Apply)
	m.mu.Lock()
	if !m.seeded {
		// No event has raced in between Subscribe returning and this
		// lock: seed the dense-sequence check ourselves.
		m.seeded = true
		m.nextSeq = firstSeq
	}
	m.firstSeq = firstSeq
	m.mu.Unlock()
	m.Pin(p.Snapshot())
	m.ready.Store(true)
	return firstSeq
}

// Splice re-attaches the mirror to a freshly bootstrapped partitioner —
// the supervisor's re-bootstrap path after a WAL gap or corruption killed
// the old follower. Unlike Attach it force-reseeds the dense-sequence
// check: the new feed's seqs restart at the bootstrap checkpoint's event
// seq, at or behind what the mirror already applied, and that overlap is
// not a gap. Re-delivered events overwrite table entries with identical
// values (placements are write-once), and the Heal with a snapshot taken
// after the subscription pins a generation covering everything the old
// feed lost. Readiness is left untouched: the mirror keeps serving its
// applied state throughout the splice.
func (m *Mirror) Splice(p *loom.Partitioner) (firstSeq uint64) {
	firstSeq = p.Subscribe(m.Apply)
	m.mu.Lock()
	m.seeded = true
	m.firstSeq = firstSeq
	m.nextSeq = firstSeq
	m.mu.Unlock()
	m.Heal(p.Snapshot())
	return firstSeq
}

// Apply is the placement event handler: O(1), no partitioner calls. It is
// exported so a Mirror can be wired to Subscribe directly (or to a
// replayed event feed in tests); most callers use Attach.
func (m *Mirror) Apply(ev loom.PlacementEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.seeded {
		m.seeded = true
		m.nextSeq = ev.Seq
	}
	if ev.Seq != m.nextSeq {
		m.gaps++
		if ev.Seq > m.nextSeq {
			m.lost += ev.Seq - m.nextSeq
		}
		m.nextSeq = ev.Seq
	}
	m.nextSeq++
	m.applied++
	switch ev.Kind {
	case loom.EventPlace:
		m.table[ev.V] = ev.Partition
	case loom.EventEvict:
		m.evicted++
		m.sampleEdge(ev.V, ev.Other)
		m.sampleEdge(ev.Other, ev.V)
	}
}

// sampleEdge records w as a neighbour of v, up to the per-vertex cap.
// m.mu held for writing.
func (m *Mirror) sampleEdge(v, w int64) {
	s := m.nbrs[v]
	if len(s) >= maxNeighborSample {
		return
	}
	for _, x := range s {
		if x == w {
			return
		}
	}
	m.nbrs[v] = append(s, w)
}

// Pin swaps in a new routing generation. Snapshots are an atomic epoch
// grab on the partitioner side and one pointer store here, so repinning
// at any frequency never stalls ingest or lookups.
func (m *Mirror) Pin(snap *loom.Snapshot) { m.gen.Store(snap) }

// Generation returns the currently pinned routing generation (nil before
// the first Pin).
func (m *Mirror) Generation() *loom.Snapshot { return m.gen.Load() }

// Heal acknowledges detected event gaps: it pins snap as the new routing
// generation and clears the gap counters. Because placements are
// write-once, any snapshot taken after the gap covers every placement the
// lost events carried — the mirror is complete again even though the
// events themselves are gone.
func (m *Mirror) Heal(snap *loom.Snapshot) {
	m.Pin(snap)
	m.mu.Lock()
	m.gaps, m.lost = 0, 0
	m.mu.Unlock()
}

// Ready reports whether the mirror is serving (attach/bootstrap
// complete). The HTTP health endpoint gates on this.
func (m *Mirror) Ready() bool { return m.ready.Load() }

// SetReady marks the mirror serving (or not). Attach sets it
// automatically; manual wirings (Subscribe before ingest, replica
// bootstrap) flip it when their catch-up completes.
func (m *Mirror) SetReady(ok bool) { m.ready.Store(ok) }

// Lookup routes one vertex: the live event mirror first, then the pinned
// generation. Lock-free against ingest — neither path touches the
// partitioner.
func (m *Mirror) Lookup(v int64) Decision {
	m.lookups.Add(1)
	m.mu.RLock()
	part, ok := m.table[v]
	m.mu.RUnlock()
	if ok {
		m.mirrorHits.Add(1)
		return Decision{Vertex: v, Partition: part, Found: true, Source: SourceMirror}
	}
	if snap := m.gen.Load(); snap != nil {
		if part, ok := snap.PartitionOf(v); ok {
			m.snapshotHits.Add(1)
			return Decision{Vertex: v, Partition: part, Found: true, Source: SourceSnapshot}
		}
	}
	m.misses.Add(1)
	return Decision{Vertex: v, Partition: -1, Found: false, Source: SourceNone}
}

// LookupBatch routes many vertices in one call, amortising the read lock
// across the batch.
func (m *Mirror) LookupBatch(vs []int64) []Decision {
	out := make([]Decision, len(vs))
	m.lookups.Add(uint64(len(vs)))
	snap := m.gen.Load()
	m.mu.RLock()
	for i, v := range vs {
		if part, ok := m.table[v]; ok {
			out[i] = Decision{Vertex: v, Partition: part, Found: true, Source: SourceMirror}
		} else {
			out[i] = Decision{Vertex: v, Partition: -1, Found: false}
		}
	}
	m.mu.RUnlock()
	for i := range out {
		if out[i].Found {
			m.mirrorHits.Add(1)
			continue
		}
		if snap != nil {
			if part, ok := snap.PartitionOf(out[i].Vertex); ok {
				out[i].Partition = part
				out[i].Found = true
				out[i].Source = SourceSnapshot
				m.snapshotHits.Add(1)
				continue
			}
		}
		m.misses.Add(1)
	}
	return out
}

// Len returns the number of placements in the live event mirror (the
// pinned generation may cover more).
func (m *Mirror) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.table)
}

// Neighbors returns the mirror's adjacency sample for v: up to
// maxNeighborSample vertices that shared a motif-matched (window-evicted)
// edge with it. The slice is a fresh copy.
func (m *Mirror) Neighbors(v int64) []int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := m.nbrs[v]
	if len(s) == 0 {
		return nil
	}
	out := make([]int64, len(s))
	copy(out, s)
	return out
}

// Stats is a point-in-time summary of the mirror.
type Stats struct {
	Ready    bool   `json:"ready"`
	Vertices int    `json:"vertices"`  // placements in the live mirror
	Sampled  int    `json:"sampled"`   // vertices with an adjacency sample
	Evicted  uint64 `json:"evicted"`   // window evictions observed
	Applied  uint64 `json:"applied"`   // events applied in total
	FirstSeq uint64 `json:"first_seq"` // resume point reported at attach
	NextSeq  uint64 `json:"next_seq"`  // next event Seq the mirror expects
	Gaps     uint64 `json:"gaps"`      // sequence discontinuities seen
	Lost     uint64 `json:"lost"`      // events skipped across those gaps

	Generation    string `json:"generation,omitempty"` // pinned snapshot's partitioner
	GenAssigned   int    `json:"gen_assigned"`         // placements the generation covers
	GenPartitions int    `json:"gen_partitions"`

	Lookups      uint64 `json:"lookups"`
	MirrorHits   uint64 `json:"mirror_hits"`
	SnapshotHits uint64 `json:"snapshot_hits"`
	Misses       uint64 `json:"misses"`
}

// Stats returns current counters. Safe to call at any time from any
// goroutine.
func (m *Mirror) Stats() Stats {
	m.mu.RLock()
	st := Stats{
		Vertices: len(m.table),
		Sampled:  len(m.nbrs),
		Evicted:  m.evicted,
		Applied:  m.applied,
		FirstSeq: m.firstSeq,
		NextSeq:  m.nextSeq,
		Gaps:     m.gaps,
		Lost:     m.lost,
	}
	m.mu.RUnlock()
	st.Ready = m.ready.Load()
	if snap := m.gen.Load(); snap != nil {
		st.Generation = snap.Name()
		st.GenAssigned = snap.NumAssigned()
		st.GenPartitions = snap.Partitions()
	}
	st.Lookups = m.lookups.Load()
	st.MirrorHits = m.mirrorHits.Load()
	st.SnapshotHits = m.snapshotHits.Load()
	st.Misses = m.misses.Load()
	return st
}
