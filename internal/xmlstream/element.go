// Package xmlstream provides the XML data-stream substrate: a lightweight
// element-tree item model, a streaming parser and serializer, path
// navigation along the child axis, and byte-size accounting.
//
// The paper restricts itself to element content ("attributes in XML data can
// always be converted into corresponding elements", §2), so items are plain
// trees of named elements whose leaves carry text.
package xmlstream

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"streamshare/internal/decimal"
)

// Element is one node of an XML item. A leaf element has Text and no
// Children; an interior element has Children and empty Text. An element is
// built once and never written again: trees are shared between streams,
// operators and goroutines on that promise.
type Element struct {
	// Name is the element's tag name.
	Name string
	// Text is the leaf's character content; empty on interior elements.
	Text string
	// Children are the interior element's child nodes, in document order.
	Children []*Element

	// size memoizes ByteSize for an interior element; zero means not yet
	// computed (no element serializes to zero bytes). It is the one field
	// written after the element is built, so it is read and written with
	// sync/atomic — a plain int32 rather than atomic.Int32, so that element
	// values can still be copied. Concurrent writers store the same value.
	size int32
}

// E constructs an interior element.
func E(name string, children ...*Element) *Element {
	return &Element{Name: name, Children: children}
}

// T constructs a leaf element with text content.
func T(name, text string) *Element {
	return &Element{Name: name, Text: text}
}

// Clone returns a deep copy of e.
func (e *Element) Clone() *Element {
	if e == nil {
		return nil
	}
	c := &Element{Name: e.Name, Text: e.Text}
	if len(e.Children) > 0 {
		c.Children = make([]*Element, len(e.Children))
		for i, ch := range e.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Equal reports whether two element trees are structurally identical.
func (e *Element) Equal(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	return e.Name == o.Name && e.Text == o.Text && slices.EqualFunc(e.Children, o.Children, (*Element).Equal)
}

// Child returns the first direct child named name, or nil.
func (e *Element) Child(name string) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// AppendFind appends to dst the descendants reached from e by following p
// along the child axis, in document order; an empty p yields e itself. It
// allocates only when dst has to grow. e must not be nil.
func (e *Element) AppendFind(dst []*Element, p Path) []*Element {
	if len(p) == 0 {
		return append(dst, e)
	}
	for _, c := range e.Children {
		if c.Name == p[0] {
			dst = c.AppendFind(dst, p[1:])
		}
	}
	return dst
}

// CountFind returns how many elements AppendFind would append, allocating
// nothing. e must not be nil.
func (e *Element) CountFind(p Path) (n int) {
	if len(p) == 0 {
		return 1
	}
	for _, c := range e.Children {
		if c.Name == p[0] {
			n += c.CountFind(p[1:])
		}
	}
	return n
}

// First returns the first element reached by path, or nil.
func (e *Element) First(p Path) *Element {
	if e == nil {
		return nil
	}
	cur := e
	for _, seg := range p {
		cur = cur.Child(seg)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// Value returns the concatenated text content of e's subtree.
func (e *Element) Value() string {
	if e == nil {
		return ""
	}
	if len(e.Children) == 0 {
		return e.Text
	}
	var b strings.Builder
	e.appendValue(&b)
	return b.String()
}

func (e *Element) appendValue(b *strings.Builder) {
	if len(e.Children) == 0 {
		b.WriteString(e.Text)
		return
	}
	for _, c := range e.Children {
		c.appendValue(b)
	}
}

// Decimal parses the text content at path as a fixed-point decimal.
// ok is false if the path is absent or the content is not numeric.
func (e *Element) Decimal(p Path) (decimal.D, bool) {
	return e.First(p).Number()
}

// Number parses e's text content, surrounding whitespace ignored, as a
// fixed-point decimal. It is the one reading of a numeric leaf: predicates,
// window references and aggregates all go through it, so an item counts as
// numeric for all of them or for none. ok is false for a nil e.
func (e *Element) Number() (decimal.D, bool) {
	if e == nil {
		return decimal.D{}, false
	}
	d, err := decimal.Parse(strings.TrimSpace(e.Value()))
	return d, err == nil
}

// ByteSize returns the size in bytes of e's canonical serialization, escapes
// in leaf text included. The cost model's size(p) and all traffic metering
// are defined over this size. An interior element remembers the answer, so
// a tree is scanned once however many operators, batchers, link meters and
// collectors price it, and a subtree shared by several parents once for all
// of them; this rests on elements being immutable once built.
func (e *Element) ByteSize() int {
	if e == nil {
		return 0
	}
	// <name></name> plus content.
	n := 2*len(e.Name) + 5
	if len(e.Children) == 0 {
		// A leaf costs less to size than to remember.
		if e.Text == "" {
			return len(e.Name) + 3 // <name/>
		}
		return n + textSize(e.Text)
	}
	if s := atomic.LoadInt32(&e.size); s != 0 {
		return int(s)
	}
	for _, c := range e.Children {
		n += c.ByteSize()
	}
	if n <= math.MaxInt32 {
		atomic.StoreInt32(&e.size, int32(n))
	}
	return n
}

// MarshalSize returns len(AppendMarshal(nil, e)) without allocating: the
// exact byte length of e's canonical serialization. Metering code uses it
// to price canonical-XML bytes on paths that never materialize them.
func MarshalSize(e *Element) int {
	return e.ByteSize()
}

// Projection is a set of keep paths compiled into a trie, so applying it
// to an item walks each level once instead of re-filtering the path list
// per child. A Projection is immutable and safe for concurrent use.
type Projection struct {
	// name is the child name this node stands for; empty at the root.
	name string
	// keep marks the end of a path: the whole subtree below is retained.
	keep bool
	// kids continue the paths that go deeper. Queries address a handful of
	// names per level, so a linear scan beats a map.
	kids []*Projection
}

// CompileProjection compiles keep paths. An empty path keeps whole items;
// a path with a prefix also in the set is covered by the prefix.
func CompileProjection(paths []Path) *Projection {
	root := &Projection{}
	for _, p := range paths {
		n := root
		for _, seg := range p {
			next := n.child(seg)
			if next == nil {
				next = &Projection{name: seg}
				n.kids = append(n.kids, next)
			}
			n = next
		}
		n.keep = true
	}
	return root
}

func (pr *Projection) child(name string) *Projection {
	for _, k := range pr.kids {
		if k.name == name {
			return k
		}
	}
	return nil
}

// Bound returns the most nodes and child pointers Apply takes from its slab
// for one item whose siblings have distinct names: a node for each path
// prefix that is not itself kept, with room for each of its continuations.
func (pr *Projection) Bound() (nodes, kids int) {
	if pr.keep {
		return 0, 0
	}
	nodes, kids = 1, len(pr.kids)
	for _, k := range pr.kids {
		n, c := k.Bound()
		nodes, kids = nodes+n, kids+c
	}
	return nodes, kids
}

// Apply returns e reduced to the subtrees the keep paths address, or nil if
// none is present. Interior elements on the way to a kept subtree are
// retained, everything else is dropped. A kept subtree is returned by
// pointer, not copied, and so is any element all of whose children survive
// unchanged: the result shares nodes with e, which is safe because elements
// are never written after construction. The nodes Apply does build, and
// their child slices, come from s.
func (pr *Projection) Apply(s *Slab, e *Element) *Element {
	if e == nil || pr.keep {
		return e
	}
	// Survivors collect on the stack so the new node's child slice is
	// taken once, at its final size.
	var buf [16]*Element
	kept := buf[:0]
	same := e.Text == ""
	for _, c := range e.Children {
		var pc *Element
		if sub := pr.child(c.Name); sub != nil {
			pc = sub.Apply(s, c)
		}
		if pc == nil {
			same = false
			continue
		}
		same = same && pc == c
		kept = append(kept, pc)
	}
	if len(kept) == 0 {
		return nil
	}
	if same {
		return e
	}
	return s.Node(e.Name, "", append(s.Children(len(kept)), kept...))
}

// Path addresses elements along the child axis ("/"), e.g. coord/cel/ra.
// Wildcards, conditions, and other axes are outside WXQuery's path fragment.
type Path []string

// ParsePath splits a child-axis path such as "coord/cel/ra". Leading and
// trailing slashes are tolerated; empty input yields an empty path.
func ParsePath(s string) Path {
	s = strings.Trim(s, "/")
	if s == "" {
		return nil
	}
	return Path(strings.Split(s, "/"))
}

// String renders the path in a/b/c form.
func (p Path) String() string { return strings.Join(p, "/") }

// Equal reports segment-wise equality.
func (p Path) Equal(q Path) bool { return slices.Equal(p, q) }

// HasPrefix reports whether q is a prefix of p.
func (p Path) HasPrefix(q Path) bool { return len(q) <= len(p) && slices.Equal(p[:len(q)], q) }

// Covered reports whether every path of ps lies within a subtree one of kept
// addresses: equal to it or below it (a kept path keeps its whole subtree).
func Covered(kept, ps []Path) bool {
	for _, p := range ps {
		if !slices.ContainsFunc(kept, p.HasPrefix) {
			return false
		}
	}
	return true
}

// SortPaths orders paths lexicographically by their string form, in place.
func SortPaths(ps []Path) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].String() < ps[j].String() })
}

// DedupPaths sorts ps and removes duplicates and paths already covered by a
// prefix in the set (a prefix addresses the whole subtree).
func DedupPaths(ps []Path) []Path {
	if len(ps) == 0 {
		return nil
	}
	SortPaths(ps)
	out := ps[:1]
	for _, p := range ps[1:] {
		last := out[len(out)-1]
		if p.HasPrefix(last) {
			continue
		}
		out = append(out, p)
	}
	return out
}
