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
// <window> element per completed window containing its items (queries that
// return window contents rather than aggregates, §3.2). An item is shared
// by every window it falls into, and with the input.
type WindowContents struct {
	// Window is the data-window definition items are grouped by.
	Window wxquery.Window

	itemIndex int64
	open      map[int64][]*xmlstream.Element
}

// NewWindowContents returns a window-content grouping operator.
func NewWindowContents(w wxquery.Window) *WindowContents {
	return &WindowContents{Window: w, open: map[int64][]*xmlstream.Element{}}
}

// Name implements Operator.
func (w *WindowContents) Name() string       { return "window-contents" }
func (w *WindowContents) instance() Operator { return NewWindowContents(w.Window) }

// Process implements Operator.
func (w *WindowContents) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	for _, item := range items {
		dst = w.add(dst, item)
	}
	return dst
}

// add puts one item into every window containing it and appends the
// windows it closes to dst.
func (w *WindowContents) add(dst []*xmlstream.Element, item *xmlstream.Element) []*xmlstream.Element {
	var pos decimal.D
	if w.Window.Kind == wxquery.WindowCount {
		pos = decimal.FromInt(w.itemIndex)
		w.itemIndex++
	} else {
		r, ok := item.Decimal(w.Window.Ref)
		if !ok {
			return dst
		}
		pos = r
	}
	if w.Window.Kind == wxquery.WindowDiff {
		dst = w.closeBefore(dst, pos, pos)
	}
	kmax := floorDiv(pos, w.Window.Step)
	end, err := pos.Sub(w.Window.Size)
	if err != nil {
		return dst
	}
	kmin := floorDiv(end, w.Window.Step) + 1
	if w.Window.Kind == wxquery.WindowCount && kmin < 0 {
		kmin = 0
	}
	for k := kmin; k <= kmax; k++ {
		w.open[k] = append(w.open[k], item)
	}
	if w.Window.Kind == wxquery.WindowCount {
		dst = w.closeBefore(dst, decimal.FromInt(w.itemIndex), pos)
	}
	return dst
}

func (w *WindowContents) closeBefore(dst []*xmlstream.Element, limit, wm decimal.D) []*xmlstream.Element {
	var ks []int64
	for k := range w.open {
		start := mulScalar(w.Window.Step, k)
		end, err := start.Add(w.Window.Size)
		if err != nil {
			continue
		}
		if end.Cmp(limit) <= 0 {
			ks = append(ks, k)
		}
	}
	sortInt64(ks)
	for _, k := range ks {
		start := mulScalar(w.Window.Step, k)
		items := w.open[k]
		e := &xmlstream.Element{Name: WindowedName, Children: make([]*xmlstream.Element, 0, 2+len(items))}
		e.Children = append(e.Children,
			xmlstream.T(aggWinField, start.String()),
			xmlstream.T(aggWMField, wm.String()),
		)
		e.Children = append(e.Children, items...)
		delete(w.open, k)
		dst = append(dst, e)
	}
	return dst
}

// Flush implements Operator.
func (w *WindowContents) Flush(dst []*xmlstream.Element) []*xmlstream.Element {
	w.open = map[int64][]*xmlstream.Element{}
	return dst
}

func sortInt64(ks []int64) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}
