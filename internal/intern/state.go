package intern

import (
	"fmt"

	"loom/internal/wal"
)

// AppendState writes the space's checkpoint section: the vertex IDs in
// dense order, the label names in code order and one label code per
// vertex (unlabelled vertices included).
func (s *Space) AppendState(e *wal.Enc) {
	ids := s.verts.IDs()
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(id)
	}
	names := s.labels.Names()
	e.U32(uint32(len(names)))
	for _, n := range names {
		e.Str(n)
	}
	for i := range ids {
		c := noCode
		if i < len(s.codes) {
			c = s.codes[i]
		}
		e.U16(c)
	}
}

// RestoreState reads an AppendState section into an empty space.
// Re-interning the IDs and names in order reproduces every dense index
// and label code; a duplicate (which would shift all later ones), an
// alphabet past MaxLabels or a code outside the label table is rejected.
func (s *Space) RestoreState(d *wal.Dec) error {
	if s.verts.Len() != 0 || s.labels.Len() != 0 {
		return fmt.Errorf("intern: RestoreState on a non-empty space (%d vertices, %d labels)", s.verts.Len(), s.labels.Len())
	}
	n := d.Len(8)
	for i := 0; i < n; i++ {
		id := d.I64()
		if got := s.verts.Intern(id); int(got) != i {
			return fmt.Errorf("intern: vertex %d duplicated in restored ID list (index %d vs %d)", id, got, i)
		}
	}
	nl := d.Len(4)
	if nl > MaxLabels {
		return fmt.Errorf("intern: %d labels exceed the alphabet bound %d", nl, MaxLabels)
	}
	for i := 0; i < nl; i++ {
		name := d.Str()
		if got := s.labels.Intern(name); int(got) != i {
			return fmt.Errorf("intern: label %q duplicated in restored name list (code %d vs %d)", name, got, i)
		}
	}
	s.codes = s.codes[:0]
	for i := 0; i < n; i++ {
		c := d.U16()
		if c != noCode && int(c) >= nl {
			return fmt.Errorf("intern: vertex %d has label code %d beyond the %d labels", s.verts.ID(uint32(i)), c, nl)
		}
		s.codes = append(s.codes, c)
	}
	return d.Err()
}
