package exec

import (
	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// AggFilter applies a predicate over aggregate result values (the having
// filter of subscriptions like Query 4's  where $a >= 1.3). Comparisons are
// exact: an average sum/n θ c is evaluated as sum θ c·n without division.
type AggFilter struct {
	// Graph is the compiled predicate over aggregate-value labels.
	Graph *predicate.Graph
	// Groups maps predicate node labels ("avg(en)") to the group index and
	// operator layout of the aggregate items.
	Groups map[string]FilterGroup

	checks []aggCheck
}

// FilterGroup locates one aggregate value within an aggregate item.
type FilterGroup struct {
	// Index is the group's position in the aggregate item.
	Index int
	// Op is the aggregation operator that produced the group.
	Op wxquery.AggOp
	// UDF marks groups computed by a user-defined function.
	UDF bool
}

type aggCheck struct {
	from, to   FilterGroup
	fromZero   bool
	toZero     bool
	w          predicate.Weight
	fromLabel  string
	toLabelStr string
}

// NewAggFilter compiles an aggregate filter.
func NewAggFilter(g *predicate.Graph, groups map[string]FilterGroup) *AggFilter {
	f := &AggFilter{Graph: g, Groups: groups}
	for _, e := range g.Edges() {
		c := aggCheck{w: e.W, fromLabel: e.From, toLabelStr: e.To}
		if e.From == predicate.ZeroNode {
			c.fromZero = true
		} else {
			c.from = groups[e.From]
		}
		if e.To == predicate.ZeroNode {
			c.toZero = true
		} else {
			c.to = groups[e.To]
		}
		f.checks = append(f.checks, c)
	}
	return f
}

// Name implements Operator.
func (f *AggFilter) Name() string       { return "agg-filter" }
func (f *AggFilter) instance() Operator { return f }

// Process implements Operator.
func (f *AggFilter) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	for _, item := range items {
		if f.matches(item) {
			dst = append(dst, item)
		}
	}
	return dst
}

// Flush implements Operator.
func (f *AggFilter) Flush(dst []*xmlstream.Element) []*xmlstream.Element { return dst }

func (f *AggFilter) matches(item *xmlstream.Element) bool {
	for _, c := range f.checks {
		ln, ld, lok := f.side(item, c.from, c.fromZero)
		rn, rd, rok := f.side(item, c.to, c.toZero)
		if !lok || !rok {
			return false // missing aggregate value fails the filter
		}
		// ln/ld ≤ rn/rd + C  ⇔  ln·rd ≤ rn·ld + C·ld·rd  (denominators > 0).
		lhs, err1 := ln.Mul(rd)
		r1, err2 := rn.Mul(ld)
		cw, err3 := c.w.C.Mul(ld)
		if err3 == nil {
			cw, err3 = cw.Mul(rd)
		}
		if err1 != nil || err2 != nil || err3 != nil {
			// Overflow fallback: compare as floats.
			lf := ln.Float() / float64(ld)
			rf := rn.Float()/float64(rd) + c.w.C.Float()
			if lf > rf || (lf == rf && c.w.Strict) {
				return false
			}
			continue
		}
		if cmp := lhs.CmpSum(r1, cw); cmp > 0 || (cmp == 0 && c.w.Strict) {
			return false
		}
	}
	return true
}

func (f *AggFilter) side(item *xmlstream.Element, g FilterGroup, zero bool) (decimal.D, int64, bool) {
	if zero {
		return decimal.D{}, 1, true
	}
	return aggValue(item, g.Index, g.Op, g.UDF)
}

// WindowContents groups stream items into data windows and emits one
// <window> element per closed window containing its items (queries that
// return window contents rather than aggregates, §3.2). An item is shared
// by every window it falls into, and with the input.
type WindowContents struct {
	set windowSet[[]*xmlstream.Element]
}

// NewWindowContents returns a grouping operator over the data window w.
func NewWindowContents(w wxquery.Window) *WindowContents {
	return &WindowContents{set: windowSet[[]*xmlstream.Element]{
		def: w, put: appendItem, render: renderContents, open: map[int64][]*xmlstream.Element{},
	}}
}

// Name implements Operator.
func (w *WindowContents) Name() string       { return "window-contents" }
func (w *WindowContents) instance() Operator { return NewWindowContents(w.set.def) }

// Process implements Operator.
func (w *WindowContents) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	return w.set.process(dst, items)
}

// Flush implements Operator: at end of stream every open window closes.
func (w *WindowContents) Flush(dst []*xmlstream.Element) []*xmlstream.Element {
	return w.set.close(dst, nil)
}

func appendItem(items []*xmlstream.Element, item *xmlstream.Element) []*xmlstream.Element {
	return append(items, item)
}

func renderContents(start, wm decimal.D, items []*xmlstream.Element) *xmlstream.Element {
	e := &xmlstream.Element{Name: WindowedName, Children: make([]*xmlstream.Element, 0, 2+len(items))}
	e.Children = append(e.Children,
		xmlstream.T(aggWinField, start.String()),
		xmlstream.T(aggWMField, wm.String()),
	)
	e.Children = append(e.Children, items...)
	return e
}
