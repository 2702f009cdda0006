package partition

import (
	"fmt"

	"loom/internal/wal"
)

// AppendState writes the tracker's checkpoint section: the per-vertex
// placements, the pending (unassigned-frontier) occurrence lists, the
// flat neighbour-partition count table and the observed-edge count.
// Sizes, the assigned count and the stamped page mirror are derived on
// restore. The counts must be carried explicitly: assigned vertices'
// occurrence lists are freed once folded in (see ObserveIdx), so they are
// not derivable from the lists.
func (t *Tracker) AppendState(e *wal.Enc) {
	e.U32(uint32(len(t.parts)))
	for _, p := range t.parts {
		e.I64(int64(p))
	}
	for _, row := range t.nbrs {
		e.U32(uint32(len(row)))
		for _, u := range row {
			e.U32(u)
		}
	}
	e.U32(uint32(len(t.cnt)))
	for _, c := range t.cnt {
		e.U32(uint32(c))
	}
	e.I64(int64(t.observed))
}

// RestoreState reads an AppendState section into a freshly constructed
// tracker whose vertex table is already restored. It bypasses AssignIdx,
// so the assign hook is not fired (recovery replays events only for
// post-checkpoint work); restored placements are stamped into the page
// mirror in dense-index order, so the next Publish shows them all.
func (t *Tracker) RestoreState(d *wal.Dec) error {
	if t.assigned != 0 || t.observed != 0 || len(t.parts) != 0 {
		return fmt.Errorf("partition: RestoreState on a non-fresh tracker (%d assigned, %d observed)",
			t.assigned, t.observed)
	}
	parts := make([]ID, d.Len(8))
	if len(parts) > t.verts.Len() {
		return fmt.Errorf("partition: state covers %d vertices but the vertex table holds %d", len(parts), t.verts.Len())
	}
	for i := range parts {
		parts[i] = ID(d.I64())
		if p := parts[i]; p != Unassigned && (p < 0 || int(p) >= t.k) {
			return fmt.Errorf("partition: state assigns vertex %d to partition %d (k=%d)", i, p, t.k)
		}
	}
	nbrs := make([][]uint32, len(parts))
	for i := range nbrs {
		if n := d.Len(4); n > 0 {
			nbrs[i] = make([]uint32, n)
		}
		for j := range nbrs[i] {
			u := d.U32()
			if int(u) >= len(parts) {
				return fmt.Errorf("partition: state adjacency of vertex %d references vertex %d beyond extent %d",
					i, u, len(parts))
			}
			nbrs[i][j] = u
		}
	}
	cnt := make([]int32, d.Len(4))
	if len(cnt) != len(parts)*t.k {
		return fmt.Errorf("partition: state has %d neighbour counts for %d vertices × k=%d",
			len(cnt), len(parts), t.k)
	}
	for i := range cnt {
		cnt[i] = int32(d.U32())
	}
	observed := int(d.I64())
	if err := d.Err(); err != nil {
		return err
	}
	for i, p := range parts {
		if p != Unassigned {
			t.sizes[p]++
			t.assigned++
			t.stampIdx(uint32(i), p)
		}
	}
	t.parts, t.nbrs, t.cnt, t.observed = parts, nbrs, cnt, observed
	return nil
}
