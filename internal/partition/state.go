package partition

import "fmt"

// TrackerState is the checkpointable portion of a Tracker: the per-vertex
// placements, the pending (unassigned-frontier) occurrence lists, and the
// flat neighbour-partition count table. Sizes, the assigned count and the
// stamped page mirror are derived on restore.
//
// Cnt must be carried explicitly: assigned vertices' occurrence lists are
// freed once folded in (see ObserveIdx), so the counts are not derivable
// from Nbrs.
type TrackerState struct {
	Parts    []ID
	Nbrs     [][]uint32
	Cnt      []int32
	Observed int
}

// CaptureState deep-copies the tracker's checkpointable state.
func (t *Tracker) CaptureState() TrackerState {
	s := TrackerState{
		Parts:    append([]ID(nil), t.parts...),
		Nbrs:     make([][]uint32, len(t.nbrs)),
		Cnt:      append([]int32(nil), t.cnt...),
		Observed: t.observed,
	}
	for i, ns := range t.nbrs {
		if len(ns) > 0 {
			s.Nbrs[i] = append([]uint32(nil), ns...)
		}
	}
	return s
}

// RestoreState loads a captured state into a freshly constructed tracker
// whose vertex table is already restored. It bypasses AssignIdx, so the assign hook is not fired (recovery replays
// events only for post-checkpoint work); restored placements are stamped
// into the page mirror in dense-index order, so the next Publish shows
// them all.
func (t *Tracker) RestoreState(s TrackerState) error {
	if t.assigned != 0 || t.observed != 0 || len(t.parts) != 0 {
		return fmt.Errorf("partition: RestoreState on a non-fresh tracker (%d assigned, %d observed)",
			t.assigned, t.observed)
	}
	if len(s.Parts) > t.verts.Len() {
		return fmt.Errorf("partition: state covers %d vertices but the vertex table holds %d", len(s.Parts), t.verts.Len())
	}
	if len(s.Nbrs) != len(s.Parts) {
		return fmt.Errorf("partition: state has %d adjacency rows for %d vertices", len(s.Nbrs), len(s.Parts))
	}
	parts := make([]ID, len(s.Parts))
	copy(parts, s.Parts)
	nbrs := make([][]uint32, len(s.Nbrs))
	for i, ns := range s.Nbrs {
		for _, u := range ns {
			if int(u) >= len(s.Parts) {
				return fmt.Errorf("partition: state adjacency of vertex %d references vertex %d beyond extent %d",
					i, u, len(s.Parts))
			}
		}
		if len(ns) > 0 {
			nbrs[i] = append([]uint32(nil), ns...)
		}
	}
	for i, p := range parts {
		if p == Unassigned {
			continue
		}
		if p < 0 || int(p) >= t.k {
			return fmt.Errorf("partition: state assigns vertex %d to partition %d (k=%d)", i, p, t.k)
		}
		t.sizes[p]++
		t.assigned++
		t.stampIdx(uint32(i), p)
	}
	t.parts = parts
	t.nbrs = nbrs
	t.observed = s.Observed
	if len(s.Cnt) != len(parts)*t.k {
		return fmt.Errorf("partition: state has %d neighbour counts for %d vertices × k=%d",
			len(s.Cnt), len(parts), t.k)
	}
	t.cnt = append([]int32(nil), s.Cnt...)
	return nil
}
