package intern

// noCode marks a vertex the space holds but has not labelled yet. It is
// never a real label code: MaxLabels stops one short of it.
const noCode = ^uint16(0)

// Space is one labelled vertex space: the vertex set V, the alphabet LV
// and the label function fl of the paper's G = (V, E, LV, fl) (§1.3), as
// a vertex table, a label table and one label code per dense vertex.
// Loom's partitioner builds one Space and hands it to the recorded graph,
// the partition tracker, the sliding window and the placement core, so
// each vertex, label and label code is stored once and every component
// indexes its own per-vertex slices by the same dense index.
//
// A vertex can be interned before it is labelled (a tracker pre-seeded
// with a placement, or a table a baseline tracker grows on its own);
// Code reports such a vertex unlabelled until SetCode labels it. A label
// never changes once set: fl is a function.
//
// Writes follow the tables' single-writer rule. Code is a quiescent
// read; an entry of Codes never changes once set, so a reader holding
// the slice may read labelled entries while the writer labels more.
type Space struct {
	verts  *VertexTable
	labels *LabelTable
	codes  []uint16 // label code per dense index; noCode = unlabelled
}

// NewSpace returns an empty space pre-sized for capacityHint vertices.
func NewSpace(capacityHint int) *Space {
	s := NewSpaceOn(NewVertexTable(capacityHint))
	if capacityHint > 0 {
		s.codes = make([]uint16, 0, capacityHint)
	}
	return s
}

// NewSpaceOn returns a space that labels an existing vertex table, with a
// fresh label table.
func NewSpaceOn(verts *VertexTable) *Space {
	return &Space{verts: verts, labels: NewLabelTable()}
}

// Verts returns the space's vertex table.
func (s *Space) Verts() *VertexTable { return s.verts }

// Labels returns the space's label table.
func (s *Space) Labels() *LabelTable { return s.labels }

// Code returns the label code of dense vertex i; ok is false while i is
// unlabelled.
func (s *Space) Code(i uint32) (code uint16, ok bool) {
	if int(i) < len(s.codes) {
		if c := s.codes[i]; c != noCode {
			return c, true
		}
	}
	return 0, false
}

// SetCode labels the unlabelled dense vertex i with label code c.
func (s *Space) SetCode(i uint32, c uint16) {
	for len(s.codes) <= int(i) {
		s.codes = append(s.codes, noCode)
	}
	s.codes[i] = c
}

// Codes returns the label code per dense index. The slice is owned by the
// space and must not be modified; it may be shorter than the vertex
// table, and unlabelled entries hold a value no label code takes.
func (s *Space) Codes() []uint16 { return s.codes }

// Clone returns a deep copy of the space. Like Intern, Clone runs on the
// writer side.
func (s *Space) Clone() *Space {
	return &Space{
		verts:  s.verts.Clone(),
		labels: s.labels.Clone(),
		codes:  append([]uint16(nil), s.codes...),
	}
}
