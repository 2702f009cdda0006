package intern

import "fmt"

// Capture returns the space's checkpointable state: the vertex IDs in
// dense order, the label names in code order and one label code per
// vertex (unlabelled vertices included).
func (s *Space) Capture() (ids []int64, names []string, codes []uint16) {
	ids = s.verts.IDs()
	codes = make([]uint16, len(ids))
	for i := copy(codes, s.codes); i < len(codes); i++ {
		codes[i] = noCode
	}
	return ids, s.labels.Names(), codes
}

// Restore loads a captured state into an empty space. Re-interning ids
// and names in order reproduces every dense index and label code; a
// duplicate (which would shift all later ones), a code outside the label
// table, or a code count that does not match the vertex count is
// rejected.
func (s *Space) Restore(ids []int64, names []string, codes []uint16) error {
	if s.verts.Len() != 0 || s.labels.Len() != 0 {
		return fmt.Errorf("intern: Restore on a non-empty space (%d vertices, %d labels)", s.verts.Len(), s.labels.Len())
	}
	if len(codes) != len(ids) {
		return fmt.Errorf("intern: %d label codes for %d vertices", len(codes), len(ids))
	}
	if len(names) > MaxLabels {
		return fmt.Errorf("intern: %d labels exceed the alphabet bound %d", len(names), MaxLabels)
	}
	for i, name := range names {
		if got := s.labels.Intern(name); int(got) != i {
			return fmt.Errorf("intern: label %q duplicated in restored name list (code %d vs %d)", name, got, i)
		}
	}
	for i, id := range ids {
		if got := s.verts.Intern(id); int(got) != i {
			return fmt.Errorf("intern: vertex %d duplicated in restored ID list (index %d vs %d)", id, got, i)
		}
		if c := codes[i]; c != noCode && int(c) >= len(names) {
			return fmt.Errorf("intern: vertex %d has label code %d beyond the %d labels", id, c, len(names))
		}
	}
	s.codes = append(s.codes[:0], codes...)
	return nil
}
