package exec

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"streamshare/internal/decimal"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// Canonical aggregate-item element names. An aggregate stream item looks
// like
//
//	<agg><win>40</win><wm>61.5</wm><g0><n>9</n><sum>13.5</sum></g0></agg>
//
// with one group element g0, g1, … per aggregation of the subscription, a
// window start <win> and the watermark <wm> (the reference value or item
// index that closed the window). avg aggregates are transported as their
// sum and count (§3.3); the final value is computed by the restructuring
// step at the subscriber's super-peer.
const (
	AggItemName  = "agg"
	aggWinField  = "win"
	aggWMField   = "wm"
	aggNField    = "n"
	aggSumField  = "sum"
	aggMinField  = "min"
	aggMaxField  = "max"
	aggValField  = "v"
	groupPrefix  = "g"
	WindowedName = "window"
)

// UDFunc is a deterministic user-defined window function (Algorithm 2's
// unknown-operator case).
type UDFunc func(values []decimal.D, args []decimal.D) decimal.D

// UDFRegistry resolves user-defined function names.
type UDFRegistry map[string]UDFunc

// AggSpec describes one aggregation computed over a window.
type AggSpec struct {
	// Op is the built-in aggregation operator (sum, count, avg, min, max).
	Op wxquery.AggOp
	// Elem is the item-relative path of the aggregated element.
	Elem xmlstream.Path
	// UDF names a user-defined function; when non-empty, Op is ignored.
	UDF string
	// UDFArgs are the constant arguments passed to the UDF per window.
	UDFArgs []decimal.D
}

// groupName returns the element name of group i in an aggregate item.
func groupName(i int) string { return groupPrefix + strconv.Itoa(i) }

// groupNames returns the names of groups 0 … n-1: an operator builds its
// table once, so rendering a window builds no name.
func groupNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = groupName(i)
	}
	return names
}

// floorDiv returns ⌊a/b⌋ over decimals with b > 0.
func floorDiv(a, b decimal.D) int64 {
	s := a.Scale()
	if b.Scale() > s {
		s = b.Scale()
	}
	au, bu := a.Units(s), b.Units(s)
	q := au / bu
	if au%bu != 0 && (au < 0) != (bu < 0) {
		q--
	}
	return q
}

// mulScalar returns w·k, panicking only on overflow of query-scale values.
func mulScalar(w decimal.D, k int64) decimal.D {
	v, err := w.Mul(k)
	if err != nil {
		panic(fmt.Sprintf("exec: window start overflow: %s * %d", w, k))
	}
	return v
}

// groupAcc accumulates one aggregation within one open window.
type groupAcc struct {
	n    int64
	sum  decimal.D
	minv decimal.D
	maxv decimal.D
	seen bool
	vals []decimal.D // UDF input values
}

// add accumulates the nodes an item holds at spec's path.
func (g *groupAcc) add(spec *AggSpec, nodes []*xmlstream.Element) {
	for _, node := range nodes {
		if spec.Op == wxquery.AggCount && spec.UDF == "" {
			g.n++
			continue
		}
		d, ok := node.Number()
		if !ok {
			continue // non-numeric occurrences are skipped
		}
		g.n++
		if spec.UDF != "" {
			g.vals = append(g.vals, d)
			continue
		}
		if s, err2 := g.sum.Add(d); err2 == nil {
			g.sum = s
		}
		if !g.seen || d.Cmp(g.minv) < 0 {
			g.minv = d
		}
		if !g.seen || d.Cmp(g.maxv) > 0 {
			g.maxv = d
		}
		g.seen = true
	}
}

// render emits the group element named name for an aggregate item.
func (g *groupAcc) render(name string, spec *AggSpec, reg UDFRegistry) *xmlstream.Element {
	e := xmlstream.E(name, xmlstream.T(aggNField, strconv.FormatInt(g.n, 10)))
	switch {
	case spec.UDF != "":
		fn := reg[spec.UDF]
		if fn != nil && len(g.vals) > 0 {
			e.Children = append(e.Children, xmlstream.T(aggValField, fn(g.vals, spec.UDFArgs).String()))
		}
	case spec.Op == wxquery.AggCount:
		// n only.
	case spec.Op == wxquery.AggSum || spec.Op == wxquery.AggAvg:
		e.Children = append(e.Children, xmlstream.T(aggSumField, g.sum.String()))
	case spec.Op == wxquery.AggMin && g.seen:
		e.Children = append(e.Children, xmlstream.T(aggMinField, g.minv.String()))
	case spec.Op == wxquery.AggMax && g.seen:
		e.Children = append(e.Children, xmlstream.T(aggMaxField, g.maxv.String()))
	}
	return e
}

// windowSet is the one window rule (§2), shared by the operators that group
// items into data windows. Window k spans the positions [kµ, kµ+∆): a time
// window positions an item by its reference value, a count window by its
// index in the operator's input. A window closes when progress passes its
// end kµ+∆ — a time window at the first item whose reference reaches the
// end, a count window right after its last item — and at end of stream
// every open window closes. A closed window is stamped with the position of
// the last item placed.
//
// An operator keeps only what it accumulates per window, W, and how it
// renders it: put adds an item to a window's state (the zero W for a window
// the item opens), and render builds the output of a closed window, whose
// state the set forgets.
type windowSet[W any] struct {
	def    wxquery.Window
	put    func(W, *xmlstream.Element) W
	render func(start, wm decimal.D, w W) *xmlstream.Element

	open map[int64]W // by k
	lo   int64       // no open window has a smaller k
	next int64       // count windows: index of the next item
	last decimal.D   // position of the last item placed
	ks   []int64     // close scratch, reused across calls
}

// process places items in order and appends the windows they close to dst.
func (s *windowSet[W]) process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	count := s.def.Kind == wxquery.WindowCount
	for _, item := range items {
		var pos decimal.D
		if count {
			pos = decimal.FromInt(s.next)
			s.next++
		} else if r, ok := item.Decimal(s.def.Ref); ok {
			pos = r
		} else {
			continue // an item without the reference element is in no window
		}
		end, err := pos.Sub(s.def.Size)
		if err != nil {
			continue
		}
		s.last = pos
		// The item is in every window with kµ ≤ pos < kµ+∆; count windows
		// start at the first item.
		kmin, kmax := floorDiv(end, s.def.Step)+1, floorDiv(pos, s.def.Step)
		if count {
			kmin = max(kmin, 0)
		}
		s.lo = min(s.lo, kmin)
		for k := kmin; k <= kmax; k++ {
			s.open[k] = s.put(s.open[k], item)
		}
		// Progress is now pos for a time window, and one past it for a count
		// window, whose item pos is in the windows ending at pos+1.
		limit := pos
		if count {
			limit = decimal.FromInt(s.next)
		}
		dst = s.close(dst, &limit)
	}
	return dst
}

// close appends to dst, in window order, every open window whose end is at
// or before limit; with limit nil (end of stream), every open window.
func (s *windowSet[W]) close(dst []*xmlstream.Element, limit *decimal.D) []*xmlstream.Element {
	ends := func(k int64) bool {
		end, err := mulScalar(s.def.Step, k).Add(s.def.Size)
		return err == nil && end.Cmp(*limit) <= 0
	}
	// Ends grow with k: when window lo stays open, every window does.
	if limit != nil && (len(s.open) == 0 || !ends(s.lo)) {
		return dst
	}
	ks, lo := s.ks[:0], int64(math.MaxInt64)
	for k := range s.open {
		if limit == nil || ends(k) {
			ks = append(ks, k)
		} else {
			lo = min(lo, k)
		}
	}
	s.lo = lo
	slices.Sort(ks)
	for _, k := range ks {
		dst = append(dst, s.render(mulScalar(s.def.Step, k), s.last, s.open[k]))
		delete(s.open, k)
	}
	s.ks = ks[:0]
	return dst
}

// WindowAgg evaluates one data window over its input and computes all the
// subscription's aggregations per window, emitting one aggregate item per
// closed window. Selection runs upstream of this operator, which is why
// aggregate reuse requires equal pre-aggregation selections (§3.3).
//
// A WindowAgg instance is single-threaded: it must be driven by one
// goroutine at a time (the runtime guarantees this by executing each
// pipeline on one lane). Emitted aggregate items are freshly allocated and
// owned by the caller; input items are only read, never retained.
type WindowAgg struct {
	// Aggs lists the aggregations computed per window, in group order.
	Aggs []AggSpec
	// Registry resolves the UDF names referenced by Aggs.
	Registry UDFRegistry

	set   windowSet[*partialWindow]
	names []string             // group element names, by group
	found []*xmlstream.Element // put's scratch: an item's nodes at one path
}

type partialWindow struct {
	groups []groupAcc
}

// NewWindowAgg returns an aggregation operator over the data window w (§3.2:
// count- or diff-based).
func NewWindowAgg(w wxquery.Window, aggs []AggSpec, reg UDFRegistry) *WindowAgg {
	a := &WindowAgg{Aggs: aggs, Registry: reg, names: groupNames(len(aggs))}
	a.set = windowSet[*partialWindow]{def: w, put: a.put, render: a.render, open: map[int64]*partialWindow{}}
	return a
}

// Name implements Operator.
func (w *WindowAgg) Name() string       { return "window-agg" }
func (w *WindowAgg) instance() Operator { return NewWindowAgg(w.set.def, w.Aggs, w.Registry) }

// Process implements Operator.
func (w *WindowAgg) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	return w.set.process(dst, items)
}

// Flush implements Operator: at end of stream every open window closes.
func (w *WindowAgg) Flush(dst []*xmlstream.Element) []*xmlstream.Element {
	return w.set.close(dst, nil)
}

func (w *WindowAgg) put(p *partialWindow, item *xmlstream.Element) *partialWindow {
	if p == nil {
		p = getPartial(len(w.Aggs))
	}
	for i := range w.Aggs {
		w.found = item.AppendFind(w.found[:0], w.Aggs[i].Elem)
		p.groups[i].add(&w.Aggs[i], w.found)
	}
	clear(w.found) // the scratch must not keep the item alive
	return p
}

func (w *WindowAgg) render(start, wm decimal.D, p *partialWindow) *xmlstream.Element {
	e := xmlstream.E(AggItemName,
		xmlstream.T(aggWinField, start.String()),
		xmlstream.T(aggWMField, wm.String()),
	)
	for i := range p.groups {
		e.Children = append(e.Children, p.groups[i].render(w.names[i], &w.Aggs[i], w.Registry))
	}
	putPartial(p)
	return e
}

// aggValue extracts group i's value as an exact rational (num/den) from an
// aggregate item. ok is false when the group has no value (e.g. min over an
// empty set).
func aggValue(item *xmlstream.Element, i int, op wxquery.AggOp, udf bool) (num decimal.D, den int64, ok bool) {
	g := item.Child(groupName(i))
	if g == nil {
		return decimal.D{}, 0, false
	}
	n, err := strconv.ParseInt(g.Child(aggNField).Value(), 10, 64)
	if err != nil {
		return decimal.D{}, 0, false
	}
	field := ""
	switch {
	case udf:
		field = aggValField
	case op == wxquery.AggCount:
		return decimal.FromInt(n), 1, true
	case op == wxquery.AggSum:
		field = aggSumField
	case op == wxquery.AggAvg:
		field = aggSumField
	case op == wxquery.AggMin:
		field = aggMinField
	case op == wxquery.AggMax:
		field = aggMaxField
	}
	v, ok := g.Child(field).Number()
	if !ok {
		return decimal.D{}, 0, false
	}
	if op == wxquery.AggAvg && !udf {
		if n == 0 {
			return decimal.D{}, 0, false
		}
		return v, n, true
	}
	return v, 1, true
}

// WindowMerge recomposes coarse window aggregates from a shared stream of
// finer ones (Fig. 5). The compatibility conditions ∆′ mod ∆ = 0,
// ∆ mod µ = 0 and µ′ mod µ = 0 guarantee that a sequence of non-overlapping
// fine windows tiles each coarse window; fine values that fall between
// tiles are buffered or ignored as required (§3.3).
type WindowMerge struct {
	// Fine is the window of the reused aggregate stream, Coarse the window
	// of the new subscription.
	Fine, Coarse wxquery.Window
	// Aggs lists the new subscription's aggregations.
	Aggs []AggSpec
	// FineGroup[i] is the index of the group in the fine stream that
	// serves Aggs[i].
	FineGroup []int
	// FineOp[i] is the fine stream's aggregation operator for that group
	// (relevant when an avg stream serves a sum/count subscription).
	FineOp []wxquery.AggOp

	// names[i] is the element name of Aggs[i]'s group, fineNames[i] that
	// of the fine group serving it.
	names, fineNames []string

	buf   map[int64]*xmlstream.Element // fine items keyed by start, in Step units of Fine
	jNext int64
	began bool
	s, wm decimal.D // the last fine item's start and watermark
}

// NewWindowMerge returns a recomposition operator; the window pair must be
// compatible per MatchAggregations.
func NewWindowMerge(fine, coarse wxquery.Window, aggs []AggSpec, fineGroup []int, fineOp []wxquery.AggOp) *WindowMerge {
	m := &WindowMerge{
		Fine: fine, Coarse: coarse,
		Aggs: aggs, FineGroup: fineGroup, FineOp: fineOp,
		names: groupNames(len(aggs)),
		buf:   map[int64]*xmlstream.Element{},
	}
	for _, g := range fineGroup {
		m.fineNames = append(m.fineNames, groupName(g))
	}
	return m
}

// Name implements Operator.
func (m *WindowMerge) Name() string { return "window-merge" }

func (m *WindowMerge) instance() Operator {
	return NewWindowMerge(m.Fine, m.Coarse, m.Aggs, m.FineGroup, m.FineOp)
}

// Process implements Operator.
func (m *WindowMerge) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	for _, item := range items {
		dst = m.add(dst, item)
	}
	return dst
}

// add buffers one fine aggregate and appends the coarse windows it
// completes to dst.
func (m *WindowMerge) add(dst []*xmlstream.Element, item *xmlstream.Element) []*xmlstream.Element {
	start, ok := item.Decimal(xmlstream.Path{aggWinField})
	if !ok {
		return dst
	}
	// Buffer the fine aggregate keyed by its start in fine-step units.
	k := floorDiv(start, m.Fine.Step)
	m.buf[k] = item
	if !m.began {
		m.began = true
		// First coarse window that could contain this fine window:
		// jµ′ ≥ start − ∆′ + ∆ (its last tile is not before this one).
		adj, err := start.Sub(m.Coarse.Size)
		if err == nil {
			adj2, err2 := adj.Add(m.Fine.Size)
			if err2 == nil {
				m.jNext = -floorDiv(adj2.Neg(), m.Coarse.Step) // ceil division
			}
		}
		if m.Coarse.Kind == wxquery.WindowCount && m.jNext < 0 {
			// Item indices start at zero, so count windows never start
			// before the stream (WindowAgg clamps identically).
			m.jNext = 0
		}
	}
	wm, okWM := item.Decimal(xmlstream.Path{aggWMField})
	if !okWM {
		end, err := start.Add(m.Fine.Size)
		if err != nil {
			return dst
		}
		wm = end
	}
	m.s, m.wm = start, wm
	return m.closeThrough(dst, false)
}

// closeThrough appends to dst every coarse window whose last tile start
// jµ′+∆′−∆ is at or before the last fine start buffered, s. Fine aggregate
// streams are ordered by window start, so once a fine start s has arrived,
// no tile with start ≤ s can arrive later — watermarks alone would close a
// coarse window before its final tile is delivered within the same closing
// batch. At end of stream no further tile arrives, so every coarse window
// starting at or before s closes.
func (m *WindowMerge) closeThrough(dst []*xmlstream.Element, eos bool) []*xmlstream.Element {
	for {
		startC := mulScalar(m.Coarse.Step, m.jNext)
		due := startC // the tile start that closes the window
		if !eos {
			endC, err := startC.Add(m.Coarse.Size)
			if err != nil {
				return dst
			}
			if due, err = endC.Sub(m.Fine.Size); err != nil {
				return dst
			}
		}
		if due.Cmp(m.s) > 0 {
			return dst
		}
		if e := m.combine(startC, m.wm); e != nil {
			dst = append(dst, e)
		}
		m.jNext++
		m.gc(startC)
	}
}

// gc drops buffered fine windows that can no longer contribute.
func (m *WindowMerge) gc(closedStart decimal.D) {
	for k := range m.buf {
		s := mulScalar(m.Fine.Step, k)
		if s.Cmp(closedStart) < 0 {
			delete(m.buf, k)
		}
	}
}

// combine merges the tile aggregates of the coarse window starting at
// startC; nil if every tile is empty (empty windows are never emitted,
// matching direct evaluation).
func (m *WindowMerge) combine(startC, wm decimal.D) *xmlstream.Element {
	tiles := m.Coarse.Size.Div(m.Fine.Size) // ∆′ / ∆
	ratio := m.Fine.Size.Div(m.Fine.Step)   // ∆ / µ: tile spacing in fine-step units
	j0 := floorDiv(startC, m.Fine.Step)     // coarse start in fine-step units
	type accum struct {
		n    int64
		sum  decimal.D
		minv decimal.D
		maxv decimal.D
		seen bool
	}
	accs := make([]accum, len(m.Aggs))
	found := false
	for t := int64(0); t < tiles; t++ {
		fine := m.buf[j0+t*ratio]
		if fine == nil {
			continue // empty fine window: contributes nothing
		}
		found = true
		for i := range m.Aggs {
			g := fine.Child(m.fineNames[i])
			if g == nil {
				continue
			}
			a := &accs[i]
			// n (the number of aggregated values) sums across tiles for
			// every operator; count is exactly this sum (§3.3: distributive).
			if ne := g.Child(aggNField); ne != nil {
				if n, err := strconv.ParseInt(ne.Value(), 10, 64); err == nil {
					a.n += n
				}
			}
			read := func(field string) (decimal.D, bool) { return g.Child(field).Number() }
			switch m.Aggs[i].Op {
			case wxquery.AggCount:
				// n accumulation above suffices.
			case wxquery.AggSum, wxquery.AggAvg:
				if v, ok := read(aggSumField); ok {
					if s, err := a.sum.Add(v); err == nil {
						a.sum = s
					}
				}
			case wxquery.AggMin:
				if v, ok := read(aggMinField); ok {
					if !a.seen || v.Cmp(a.minv) < 0 {
						a.minv = v
					}
					a.seen = true
				}
			case wxquery.AggMax:
				if v, ok := read(aggMaxField); ok {
					if !a.seen || v.Cmp(a.maxv) > 0 {
						a.maxv = v
					}
					a.seen = true
				}
			}
		}
	}
	if !found {
		return nil
	}
	e := xmlstream.E(AggItemName,
		xmlstream.T(aggWinField, startC.String()),
		xmlstream.T(aggWMField, wm.String()),
	)
	for i := range m.Aggs {
		a := &accs[i]
		g := xmlstream.E(m.names[i])
		switch m.Aggs[i].Op {
		case wxquery.AggCount:
			g.Children = append(g.Children, xmlstream.T(aggNField, strconv.FormatInt(a.n, 10)))
		case wxquery.AggSum:
			g.Children = append(g.Children,
				xmlstream.T(aggNField, strconv.FormatInt(a.n, 10)),
				xmlstream.T(aggSumField, a.sum.String()))
		case wxquery.AggAvg:
			g.Children = append(g.Children,
				xmlstream.T(aggNField, strconv.FormatInt(a.n, 10)),
				xmlstream.T(aggSumField, a.sum.String()))
		case wxquery.AggMin:
			g.Children = append(g.Children, xmlstream.T(aggNField, strconv.FormatInt(a.n, 10)))
			if a.seen {
				g.Children = append(g.Children, xmlstream.T(aggMinField, a.minv.String()))
			}
		case wxquery.AggMax:
			g.Children = append(g.Children, xmlstream.T(aggNField, strconv.FormatInt(a.n, 10)))
			if a.seen {
				g.Children = append(g.Children, xmlstream.T(aggMaxField, a.maxv.String()))
			}
		}
		e.Children = append(e.Children, g)
	}
	return e
}

// Flush implements Operator: at end of stream every coarse window up to the
// last fine window buffered closes.
func (m *WindowMerge) Flush(dst []*xmlstream.Element) []*xmlstream.Element {
	if m.began {
		dst = m.closeThrough(dst, true)
	}
	clear(m.buf)
	return dst
}
