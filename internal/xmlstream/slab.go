package xmlstream

import "strings"

// Slab hands out the nodes, child slices and leaf texts of one batch from a
// few backing arrays the batch owns, so a batch is built with a handful of
// allocations instead of up to three per node. The decoders build from one
// (the wire codec per payload, the document decoder's fast lane, so
// UnmarshalBytes too, per read window), and so do the operators that build
// output trees (exec's Project and Restructure, one per Process call).
//
// What a slab hands out follows three rules:
//   - a tree aliases no buffer the decoder's caller owns: texts are copied
//     into the slab's own text chunks;
//   - the nodes of one batch share backing arrays, so one node kept pins
//     its whole batch;
//   - every child slice has capacity equal to its length, so an append to
//     one node's Children reallocates instead of writing into a neighbour's.
//
// Trees are never written after they are built (Element), so nothing is
// freed by hand: the GC frees the arrays with the last node that uses them.
// The sizes a slab is made with are bounds or estimates from the input; a
// request past them is allocated on its own rather than refused. The zero
// Slab has no bounds: everything it hands out is allocated on its own.
type Slab struct {
	nodes    []Element // the current node array
	more     int       // nodes left to allocate past it
	kids     []*Element
	text     strings.Builder // the current text chunk, only ever appended to
	textHint int
	// used counts the nodes and child pointers handed out, past the bounds
	// too, so a caller that estimates its sizes can learn from what it took.
	usedNodes, usedKids int
}

// nodeChunk caps one node array: 511 nodes of 64 B and the allocator's
// 8-B header fill its largest size class, 32 KiB. A larger array would take
// the slower large-object path and be rounded up to whole pages.
const nodeChunk = 511

// NewSlab returns a slab for at most nodes elements and kids child
// pointers, whose leaf texts are expected to total text bytes. The child
// array is allocated at once, node arrays as nodes are taken (nodeChunk at
// a time), and the text chunk at the first text, text bytes long; a text
// past it starts a chunk an eighth that size, so a short estimate costs a
// few more allocations and an eighth of it in slack.
func NewSlab(nodes, kids, text int) Slab {
	s := Slab{more: max(nodes, 0)}
	if kids > 0 {
		s.kids = make([]*Element, kids)
	}
	s.textHint = text
	return s
}

// Node returns a new element of the batch.
func (s *Slab) Node(name, text string, children []*Element) *Element {
	s.usedNodes++
	if len(s.nodes) == 0 {
		if s.more == 0 {
			return &Element{Name: name, Text: text, Children: children}
		}
		n := min(s.more, nodeChunk)
		s.nodes, s.more = make([]Element, n), s.more-n
	}
	e := &s.nodes[0]
	s.nodes = s.nodes[1:]
	e.Name, e.Text, e.Children = name, text, children
	return e
}

// Children returns an empty child slice of capacity n.
func (s *Slab) Children(n int) []*Element {
	s.usedKids += n
	if n > len(s.kids) {
		return make([]*Element, 0, n)
	}
	k := s.kids[:0:n]
	s.kids = s.kids[n:]
	return k
}

// Text returns a copy of b.
func (s *Slab) Text(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s.text.Cap()-s.text.Len() < len(b) {
		chunk := s.textHint
		if s.text.Cap() > 0 {
			chunk /= 8
		}
		s.text = strings.Builder{}
		s.text.Grow(max(chunk, len(b)))
	}
	s.text.Write(b)
	t := s.text.String()
	return t[len(t)-len(b):]
}

// Used returns how many nodes and child pointers s has handed out.
func (s *Slab) Used() (nodes, kids int) { return s.usedNodes, s.usedKids }
