package partition

import (
	"testing"

	"loom/internal/graph"
)

// White-box tests for the stamped-page publish path: held epochs are
// immutable under further ingest even though later placements land on the
// pages they share, Publish costs O(k), and publishing with no changes
// reuses the prior epoch.

// fillTracker assigns dense indices [lo, hi) round-robin over k partitions.
func fillTracker(t *Tracker, lo, hi int) {
	for v := lo; v < hi; v++ {
		t.Assign(graph.VertexID(v), ID(v%t.k))
	}
}

// TestEpochHeldSnapshotImmutable: an epoch captured before further ingest
// must keep every observation — placements, sizes, counts — frozen while
// the tracker keeps assigning.
func TestEpochHeldSnapshotImmutable(t *testing.T) {
	const k = 4
	tr := NewTracker(k, 1.5)
	first := 2*PageSize + PageSize/2 // spans three pages, last one partial
	fillTracker(tr, 0, first)

	e1 := tr.Publish()
	if e1 == nil {
		t.Fatal("Publish returned nil")
	}
	if e1.NumAssigned() != first {
		t.Fatalf("epoch assigned %d, want %d", e1.NumAssigned(), first)
	}
	wantSizes := append([]int(nil), e1.Sizes()...)

	// Keep ingesting well past the held epoch.
	fillTracker(tr, first, 5*PageSize)
	e2 := tr.Publish()

	if e1.NumAssigned() != first {
		t.Fatalf("held epoch assigned count moved to %d", e1.NumAssigned())
	}
	for i, s := range e1.Sizes() {
		if s != wantSizes[i] {
			t.Fatalf("held epoch sizes changed: %v → %v", wantSizes, e1.Sizes())
		}
	}
	for v := 0; v < 5*PageSize; v++ {
		want := ID(v % k)
		if v >= first {
			want = Unassigned // not yet assigned when e1 was published
		}
		if got := e1.Of(graph.VertexID(v)); got != want {
			t.Fatalf("held epoch Of(%d) = %d, want %d", v, got, want)
		}
		if got := e2.Of(graph.VertexID(v)); got != ID(v%k) {
			t.Fatalf("new epoch Of(%d) = %d, want %d", v, got, v%k)
		}
	}
	// Each over the held epoch enumerates exactly the first publish's set.
	seen := 0
	e1.Each(func(v graph.VertexID, p ID) {
		seen++
		if p != ID(int(v)%k) {
			t.Fatalf("Each(%d) = %d, want %d", v, p, int(v)%k)
		}
	})
	if seen != first {
		t.Fatalf("Each visited %d vertices, want %d", seen, first)
	}
}

// TestEpochPageSharing: a held epoch stays frozen while later placements
// are stamped onto the pages it shares, and a no-op Publish returns the
// same epoch.
func TestEpochPageSharing(t *testing.T) {
	const k = 2
	tr := NewTracker(k, 1.5)
	half := 2*PageSize + PageSize/2
	fillTracker(tr, 0, half) // pages 0,1 full; page 2 half
	e1 := tr.Publish()

	// New placements land in page 2's tail — a page e1 shares — and page 3.
	fillTracker(tr, half, 4*PageSize)
	e2 := tr.Publish()
	if e1.pages[2] != e2.pages[2] {
		t.Fatal("page 2 was replaced: pages must be stamped in place, never copied")
	}
	for v := half; v < 3*PageSize; v++ {
		if got := e1.Of(graph.VertexID(v)); got != Unassigned {
			t.Fatalf("held epoch sees later placement: Of(%d) = %d", v, got)
		}
		if got := e2.Of(graph.VertexID(v)); got != ID(v%k) {
			t.Fatalf("new epoch Of(%d) = %d, want %d", v, got, v%k)
		}
	}
	n := 0
	e1.Each(func(graph.VertexID, ID) { n++ })
	if n != half || e1.NumAssigned() != half {
		t.Fatalf("held epoch enumerates %d (NumAssigned %d), want %d", n, e1.NumAssigned(), half)
	}

	// Interning without placing changes nothing an epoch shows.
	tr.Intern(graph.VertexID(5 * PageSize))
	if e3 := tr.Publish(); e3 != e2 {
		t.Error("no-op Publish built a new epoch")
	}
}

// TestPublishAllocsConstant: Publish after placements into existing pages
// allocates at most the epoch header and its sizes, however many pages the
// placements touched.
func TestPublishAllocsConstant(t *testing.T) {
	tr := NewTracker(4, 1<<20)
	const n = 64 * PageSize
	fillTracker(tr, 0, 1) // vertex 0 on page 0
	for v := 1; v < n; v++ {
		tr.Intern(graph.VertexID(v))
	}
	tr.Publish() // allocate every page up front
	next := 1
	for _, dirty := range []int{1, 64} {
		allocs := testing.AllocsPerRun(20, func() {
			for p := 0; p < dirty; p++ {
				// One placement per page: page p, slot next.
				tr.AssignIdx(uint32(p*PageSize+next), ID(p%4))
			}
			next++
			tr.Publish()
		})
		if allocs > 2 {
			t.Errorf("Publish after placements on %d pages: %.1f allocs, want <= 2", dirty, allocs)
		}
	}
}

// TestNewEpochMatchesAssignment: an epoch built from an offline assignment
// shows exactly its placements and sizes.
func TestNewEpochMatchesAssignment(t *testing.T) {
	a := AssignmentOf(3, map[graph.VertexID]ID{1: 0, 2: 2, 7: 1, 9: 2})
	a.Table().Intern(42) // interned, never placed
	e := NewEpoch(a)
	if e.NumAssigned() != 4 || e.K() != 3 {
		t.Fatalf("epoch: %d assigned k=%d, want 4 k=3", e.NumAssigned(), e.K())
	}
	for _, v := range []graph.VertexID{1, 2, 7, 9, 42, 100} {
		if got, want := e.Of(v), a.Of(v); got != want {
			t.Errorf("Of(%d) = %d, assignment says %d", v, got, want)
		}
	}
	if got := e.Sizes(); got[0] != 1 || got[1] != 1 || got[2] != 2 {
		t.Errorf("sizes = %v, want [1 1 2]", got)
	}
}

// BenchmarkPublish measures one batch-boundary publish at serving scale:
// 256 placements scattered over a 2^20-vertex table, then Publish.
func BenchmarkPublish(b *testing.B) {
	const n = 1 << 20
	const batch = 256
	var tr *Tracker
	next := n // forces a fresh tracker on the first iteration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if next+batch > n {
			b.StopTimer()
			tr = NewTracker(8, n)
			for v := 0; v < n; v++ {
				tr.Intern(graph.VertexID(v))
			}
			tr.Publish()
			next = 0
			b.StartTimer()
		}
		for j := 0; j < batch; j++ {
			// An odd multiplier permutes [0, n): placements spread over pages.
			tr.AssignIdx(uint32((next*40503)&(n-1)), ID(next&7))
			next++
		}
		tr.Publish()
	}
}

// TestEpochMaterialiseMatches: Materialise must flatten to exactly the
// epoch's contents even after the tracker has moved on.
func TestEpochMaterialiseMatches(t *testing.T) {
	const k = 3
	tr := NewTracker(k, 1.1)
	n := PageSize + 7
	fillTracker(tr, 0, n)
	e := tr.Publish()
	fillTracker(tr, n, 3*PageSize) // mutate tracker after capture
	tr.Publish()

	a := e.Materialise()
	if a.NumAssigned() != n || a.K != k {
		t.Fatalf("materialised assignment: %d assigned k=%d, want %d k=%d",
			a.NumAssigned(), a.K, n, k)
	}
	e.Each(func(v graph.VertexID, p ID) {
		if got := a.Of(v); got != p {
			t.Fatalf("Materialise().Of(%d) = %d, epoch says %d", v, got, p)
		}
	})
}

// TestEpochOfUnknown: lookups past the epoch's vertex horizon and for
// unknown vertices return Unassigned instead of reading younger state.
func TestEpochOfUnknown(t *testing.T) {
	tr := NewTracker(2, 1.5)
	fillTracker(tr, 0, 10)
	e := tr.Publish()
	if got := e.Of(graph.VertexID(999)); got != Unassigned {
		t.Errorf("Of(unknown vertex) = %d, want Unassigned", got)
	}
	if got := e.OfIdx(uint32(PageSize * 10)); got != Unassigned {
		t.Errorf("OfIdx(out of range) = %d, want Unassigned", got)
	}
	// A vertex interned after publish is invisible to the held epoch.
	tr.Assign(graph.VertexID(999), 1)
	tr.Publish()
	if got := e.Of(graph.VertexID(999)); got != Unassigned {
		t.Errorf("held epoch sees post-publish vertex: Of(999) = %d", got)
	}
}
