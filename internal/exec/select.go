package exec

import (
	"slices"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/xmlstream"
)

// Select filters items by a conjunctive predicate graph whose node labels
// are item-relative element paths. Items missing a referenced element, or
// whose element is not a number, fail the predicate.
//
// The graph is compiled once: its distinct leaves become the columns of a
// value table and every edge a check over columns, where an edge against
// the zero node is a compare against a constant and only a var–var edge
// adds per item. An instance reads leaf values through a table that
// resolves each (item, column) at most once, the first time a check asks
// for it. A Select is a group of one and owns its table; the leading
// Selects of sibling pipelines share one (SelectionGroup).
type Select struct {
	// Graph is the compiled conjunctive predicate (see package predicate).
	Graph *predicate.Graph

	// cols are the distinct leaves, one column each, in first-use order;
	// checks refer to them, or to a group's columns once bound to a group.
	cols   []xmlstream.Path
	checks []selCheck
	// tab is the table the instance reads: own from the first Process on,
	// unless a group bound one before.
	tab *valueTable
	own valueTable
}

// checkKind says how a compiled edge is decided.
type checkKind uint8

const (
	checkAtMost  checkKind = iota // x ≤ k
	checkAtLeast                  // k ≤ x
	checkEdge                     // x ≤ y + k
)

// zeroCol stands for the graph's zero node.
const zeroCol = -1

// selCheck is one compiled edge over columns; strict makes ≤ a <. y is
// zeroCol unless kind is checkEdge.
type selCheck struct {
	kind   checkKind
	x, y   int
	k      decimal.D
	strict bool
}

// NewSelect compiles a selection operator from a predicate graph.
func NewSelect(g *predicate.Graph) *Select {
	edges := g.Edges()
	s := &Select{Graph: g, cols: make([]xmlstream.Path, 0, 2*len(edges)), checks: make([]selCheck, 0, len(edges))}
	col := func(label string) int {
		if label == predicate.ZeroNode {
			return zeroCol
		}
		return columnOf(&s.cols, xmlstream.ParsePath(label))
	}
	for _, e := range edges {
		c := selCheck{kind: checkEdge, x: col(e.From), y: col(e.To), k: e.W.C, strict: e.W.Strict}
		switch {
		case c.x != zeroCol && c.y == zeroCol: // x ≤ 0 + C
			c.kind = checkAtMost
		case c.x == zeroCol && c.y != zeroCol: // 0 ≤ y + C  ⇔  −C ≤ y
			// Neg would wrap at −2⁶³ units, which closure sums can reach;
			// such an edge stays a checkEdge against the zero node.
			if nk, err := (decimal.D{}).Sub(e.W.C); err == nil {
				c.kind, c.x, c.y, c.k = checkAtLeast, c.y, zeroCol, nk
			}
		}
		s.checks = append(s.checks, c)
	}
	return s
}

// columnOf returns p's index in *cols, appending it if it is new.
func columnOf(cols *[]xmlstream.Path, p xmlstream.Path) int {
	if i := slices.IndexFunc(*cols, p.Equal); i >= 0 {
		return i
	}
	*cols = append(*cols, p)
	return len(*cols) - 1
}

// Name implements Operator.
func (s *Select) Name() string { return "select" }

// instance shares the compiled checks; the table is per run.
func (s *Select) instance() Operator {
	c := *s
	c.tab, c.own = nil, valueTable{}
	return &c
}

// Process implements Operator. Row i of the table belongs to items[i].
func (s *Select) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	if s.tab == nil {
		s.own.cols = s.cols
		s.tab = &s.own
	}
	t := s.tab
	t.fit(len(items))
	for i, item := range items {
		if s.matches(t, t.row(i, item), item) {
			dst = append(dst, item)
		}
	}
	return dst
}

// matches reports whether item, whose values row r holds, satisfies every
// check. Checks stop at the first that fails, so an item pays for the
// columns it was tested on.
func (s *Select) matches(t *valueTable, r []cell, item *xmlstream.Element) bool {
	for i := range s.checks {
		c := &s.checks[i]
		x, ok := t.value(r, item, c.x)
		if !ok {
			return false
		}
		var cmp int
		switch c.kind {
		case checkAtMost:
			cmp = x.Cmp(c.k)
		case checkAtLeast:
			cmp = c.k.Cmp(x)
		default:
			y, ok := t.value(r, item, c.y)
			if !ok {
				return false
			}
			cmp = x.CmpSum(y, c.k)
		}
		if cmp > 0 || (cmp == 0 && c.strict) {
			return false
		}
	}
	return true
}

// Flush implements Operator: at end of stream the table lets go of the
// last batch it pinned.
func (s *Select) Flush(dst []*xmlstream.Element) []*xmlstream.Element {
	if s.tab != nil {
		s.tab.fit(0)
	}
	return dst
}

// valueTable holds the leaf values of one batch's items: row i is the item
// at position i of the batch its Selects are handed, one cell per column.
// A row is valid only for the element pointer it was filled from, and a
// value is a pure function of an immutable element, so the order in which
// a group's members read the table never matters: a member handed other
// items, or the same ones reordered, refills the rows that differ. The
// table pins at most one batch.
type valueTable struct {
	cols  []xmlstream.Path
	items []*xmlstream.Element // the item each row was filled from
	cells []cell               // row-major, len(cols) per row
	used  int                  // rows that may hold an item
}

// cell is one column's value for one row; ok when the leaf is present and
// a number.
type cell struct {
	v            decimal.D
	resolved, ok bool
}

// fit sizes the table for a batch of n items, letting go of the items
// rows past n were filled from.
func (t *valueTable) fit(n int) {
	if n > len(t.items) {
		t.items = make([]*xmlstream.Element, n)
		t.cells = make([]cell, n*len(t.cols))
	} else if t.used > n {
		clear(t.items[n:t.used])
	}
	t.used = n
}

// row returns row i's cells, emptied first unless row i was filled from
// item.
func (t *valueTable) row(i int, item *xmlstream.Element) []cell {
	w := len(t.cols)
	r := t.cells[i*w : i*w+w : i*w+w]
	if t.items[i] != item {
		t.items[i] = item
		clear(r)
	}
	return r
}

// value returns column col of item, whose row is r, resolving and parsing
// the leaf the first time it is asked for; zeroCol is the constant zero.
func (t *valueTable) value(r []cell, item *xmlstream.Element, col int) (decimal.D, bool) {
	if col == zeroCol {
		return decimal.D{}, true
	}
	c := &r[col]
	if !c.resolved {
		c.v, c.ok = item.Decimal(t.cols[col])
		c.resolved = true
	}
	return c.v, c.ok
}

// SelectionGroup is the compiled selection group of sibling pipelines: the
// pipelines one caller feeds the same items in one loop, one after the
// other — the streams tapped from one stream at one peer. The leading
// Selects of its members read one value table, so a leaf several members
// test is walked and parsed once per item. The union of the members' leaves
// is the group's columns, and each member's checks refer to them.
//
// A group is a template, compiled once per plan; Bind gives one run's
// instances their table. The members bound to one table must be driven by
// one goroutine at a time, as the pipelines of one caller's loop are.
type SelectionGroup struct {
	cols []xmlstream.Path
	// members are the positions, among the siblings, of the pipelines that
	// lead with a Select; checks holds each one's checks over cols.
	members []int
	checks  [][]selCheck
}

// NewSelectionGroup compiles the leading Select stages of sibling pipelines
// into one group. It returns nil unless at least two siblings lead with a
// Select.
func NewSelectionGroup(siblings []*Pipeline) *SelectionGroup {
	g := &SelectionGroup{}
	for i, p := range siblings {
		s := leadingSelect(p)
		if s == nil {
			continue
		}
		checks := make([]selCheck, len(s.checks))
		for j, c := range s.checks {
			if c.x != zeroCol {
				c.x = columnOf(&g.cols, s.cols[c.x])
			}
			if c.y != zeroCol {
				c.y = columnOf(&g.cols, s.cols[c.y])
			}
			checks[j] = c
		}
		g.members = append(g.members, i)
		g.checks = append(g.checks, checks)
	}
	if len(g.members) < 2 {
		return nil
	}
	return g
}

// Bind gives the leading Selects of instances — an instance of every
// sibling the group was compiled from, in the same order — one fresh table.
// It keeps no reference to the slice.
func (g *SelectionGroup) Bind(instances []*Pipeline) {
	t := &valueTable{cols: g.cols}
	for k, i := range g.members {
		s := leadingSelect(instances[i])
		s.tab, s.checks = t, g.checks[k]
	}
}

// leadingSelect returns p's first stage if it is a Select, else nil.
func leadingSelect(p *Pipeline) *Select {
	if p == nil || len(p.Ops) == 0 {
		return nil
	}
	s, _ := unwrap(p.Ops[0]).(*Select)
	return s
}
