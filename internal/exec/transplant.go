package exec

import (
	"maps"
	"slices"
	"strconv"

	"streamshare/internal/decimal"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// This file implements operator-state transplantation: when a failure
// interrupts a run and the engine re-plans the affected subscriptions,
// recovery (runtime.Session.Recover) hands the state the interrupted run left
// in the retired chain's instances to fresh instances of the replacement, so
// windowed and order-repairing subscriptions keep the partially filled
// windows the retired chain was holding. Without it a rebuilt windowed chain
// restarts cold and every window spanning the failure is lost or truncated —
// exactly the items a reliable delivery layer promises to keep.
//
// Transplant copies, it never steals: recovery may still finish items
// through the retired instances. Neither chain is driven while the copy
// runs, so operators are read here without synchronization.

// eqAggSpec reports whether two aggregation specs compute the same value.
func eqAggSpec(a, b AggSpec) bool {
	return a.UDF == b.UDF && a.Elem.Equal(b.Elem) && (a.UDF != "" || a.Op == b.Op) &&
		equalArgs(a.UDFArgs, b.UDFArgs)
}

// unwrap strips the instrumentation decorator so transplant matches the
// underlying operator instances.
func unwrap(op Operator) Operator {
	for {
		c, ok := op.(counted)
		if !ok {
			return op
		}
		op = c.op
	}
}

// Stateful reports whether an operator carries stream-position state worth
// transplanting (instrumentation decorators are unwrapped first).
// Select/Project/AggFilter/Remap/Restructure/Duplicate are pure per-item
// functions whose re-application is idempotent — the runtime's recovery
// replay relies on this to re-enter a rebuilt chain from the top when a
// journaled item's already-traversed prefix was pure.
func Stateful(op Operator) bool {
	switch unwrap(op).(type) {
	case *WindowAgg, *WindowMerge, *SortBuffer, *WindowContents:
		return true
	}
	return false
}

// statefulOps flattens the pipelines into their stateful operators in stream
// order, unwrapping instrumentation and skipping instances present in skip
// (operators the old and new chain share — typically the original stream's
// own pipeline, which keeps running and needs no transplant).
func statefulOps(chain []*Pipeline, skip map[Operator]bool) []Operator {
	var out []Operator
	for _, p := range chain {
		if p == nil {
			continue
		}
		for _, op := range p.Ops {
			op = unwrap(op)
			if !Stateful(op) || skip[op] {
				continue
			}
			out = append(out, op)
		}
	}
	return out
}

// Transplant copies the stream-position state of a retired operator chain
// into a freshly built replacement chain. old is the retired chain's
// pipelines in stream order (upstream first); shared lists pipelines that
// appear in BOTH chains (live ancestors such as the original stream's own
// operators — their instances are excluded from the match on either side);
// fresh is the replacement chain.
//
// Operators pair up left to right: WindowAgg→WindowAgg, WindowMerge→
// WindowMerge, SortBuffer→SortBuffer and WindowContents→WindowContents copy
// state when their specs agree, and the pair [fine WindowAgg, WindowMerge]
// collapses into a single coarse WindowAgg by absorbing the merge operator's
// buffered tiles into reconstructed coarse windows (the repair path
// re-aggregates from the original stream instead of a shared fine stream).
//
// It returns true only when every stateful operator on both sides was
// matched; on false the fresh chain is left partially initialized and the
// caller must fall back to cold state (and should account the loss).
func Transplant(old, shared, fresh []*Pipeline) bool {
	skip := map[Operator]bool{}
	for _, p := range shared {
		if p == nil {
			continue
		}
		for _, op := range p.Ops {
			skip[unwrap(op)] = true
		}
	}
	oldOps := statefulOps(old, skip)
	newOps := statefulOps(fresh, skip)
	i, j := 0, 0
	for i < len(oldOps) && j < len(newOps) {
		if copyState(oldOps[i], newOps[j]) {
			i, j = i+1, j+1
			continue
		}
		// [WindowAgg(fine), WindowMerge] → WindowAgg(coarse).
		if i+1 < len(oldOps) {
			a, okA := oldOps[i].(*WindowAgg)
			m, okM := oldOps[i+1].(*WindowMerge)
			w, okW := newOps[j].(*WindowAgg)
			if okA && okM && okW && absorbFine(a, m, w) {
				i, j = i+2, j+1
				continue
			}
		}
		return false
	}
	return i == len(oldOps) && j == len(newOps)
}

// copyState transfers state between two operators of the same kind and spec.
func copyState(from, to Operator) bool {
	switch src := from.(type) {
	case *SortBuffer:
		dst, ok := to.(*SortBuffer)
		if !ok || dst.Size != src.Size || !dst.Ref.Equal(src.Ref) {
			return false
		}
		dst.buf = slices.Clone(src.buf)
		dst.released, dst.any, dst.Dropped = src.released, src.any, src.Dropped
		return true
	case *WindowAgg:
		dst, ok := to.(*WindowAgg)
		if !ok || !dst.Window.Equal(&src.Window) {
			return false
		}
		mp := matchSpecs(dst.Aggs, src.Aggs)
		if mp == nil {
			return false
		}
		dst.itemIndex = src.itemIndex
		dst.open = make(map[int64]*partialWindow, len(src.open))
		for k, p := range src.open {
			np := &partialWindow{groups: make([]groupAcc, len(dst.Aggs))}
			for gi, oi := range mp {
				np.groups[gi] = copyAcc(p.groups[oi])
			}
			dst.open[k] = np
		}
		return true
	case *WindowMerge:
		dst, ok := to.(*WindowMerge)
		if !ok || !dst.Fine.Equal(&src.Fine) || !dst.Coarse.Equal(&src.Coarse) {
			return false
		}
		if len(dst.Aggs) != len(src.Aggs) {
			return false
		}
		for i := range dst.Aggs {
			// The buffered tiles are keyed by the fine stream's group layout:
			// the replacement must read the same groups the same way.
			if !eqAggSpec(dst.Aggs[i], src.Aggs[i]) ||
				dst.FineGroup[i] != src.FineGroup[i] || dst.FineOp[i] != src.FineOp[i] {
				return false
			}
		}
		dst.buf = maps.Clone(src.buf)
		dst.jNext, dst.began = src.jNext, src.began
		return true
	case *WindowContents:
		dst, ok := to.(*WindowContents)
		if !ok || !dst.Window.Equal(&src.Window) {
			return false
		}
		dst.itemIndex = src.itemIndex
		dst.open = make(map[int64][]*xmlstream.Element, len(src.open))
		for k, items := range src.open {
			dst.open[k] = slices.Clone(items)
		}
		return true
	}
	return false
}

// matchSpecs maps each destination aggregation to a source group computing
// the same value; nil when any destination spec has no source counterpart.
func matchSpecs(dst, src []AggSpec) []int {
	mp := make([]int, len(dst))
	for i, d := range dst {
		found := -1
		for j, s := range src {
			if eqAggSpec(d, s) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil
		}
		mp[i] = found
	}
	return mp
}

// copyAcc deep-copies one group accumulator.
func copyAcc(g groupAcc) groupAcc {
	c := g
	if g.vals != nil {
		c.vals = append([]decimal.D(nil), g.vals...)
	}
	return c
}

// absorbFine rebuilds a coarse WindowAgg's open windows from a retired
// [fine WindowAgg, WindowMerge] pair: a repair that can no longer tap the
// shared fine aggregate stream re-aggregates the original stream directly,
// and the coarse windows the merge had not yet emitted are reconstructed by
// folding the merge's buffered closed fine tiles with the fine aggregator's
// still-open partial windows (§3.3's tiling makes each item belong to
// exactly one tile of each containing coarse window).
//
// UDF aggregations cannot be absorbed once a fine window has closed — the
// emitted tile carries only the function value, not the input values — so
// any buffered tile plus a UDF spec aborts the transplant.
func absorbFine(a *WindowAgg, m *WindowMerge, w *WindowAgg) bool {
	if !a.Window.Equal(&m.Fine) || !w.Window.Equal(&m.Coarse) {
		return false
	}
	mp := matchSpecs(w.Aggs, m.Aggs)
	if mp == nil {
		return false
	}
	for _, s := range w.Aggs {
		if s.UDF != "" {
			return false
		}
	}
	tiles := m.Coarse.Size.Div(m.Fine.Size) // ∆'/∆ tiles per coarse window
	ratio := m.Fine.Size.Div(m.Fine.Step)   // tile spacing in fine-step units
	if tiles <= 0 || ratio <= 0 {
		return false
	}

	// Candidate coarse windows: every not-yet-emitted coarse window one of
	// the surviving fine windows (closed tile or open partial) tiles into.
	js := map[int64]bool{}
	addCandidates := func(k int64) {
		s := mulScalar(m.Fine.Step, k)
		// jµ' ≤ s and s+∆ ≤ jµ'+∆', with (s − jµ') an exact tile multiple.
		jHi := floorDiv(s, m.Coarse.Step)
		low, err := s.Add(m.Fine.Size)
		if err != nil {
			return
		}
		low, err = low.Sub(m.Coarse.Size)
		if err != nil {
			return
		}
		jLo := -floorDiv(low.Neg(), m.Coarse.Step) // ceil division
		for j := jLo; j <= jHi; j++ {
			if m.began && j < m.jNext {
				continue // already emitted by the merge operator
			}
			if m.Coarse.Kind == wxquery.WindowCount && j < 0 {
				continue
			}
			start := mulScalar(m.Coarse.Step, j)
			rem, err := s.Sub(start)
			if err != nil {
				continue
			}
			t := floorDiv(rem, m.Fine.Size)
			if t < 0 || t >= tiles || mulScalar(m.Fine.Size, t).Cmp(rem) != 0 {
				continue // not tile-aligned for this coarse window
			}
			js[j] = true
		}
	}
	for k := range m.buf {
		addCandidates(k)
	}
	for k := range a.open {
		addCandidates(k)
	}

	w.itemIndex = a.itemIndex
	w.open = make(map[int64]*partialWindow, len(js))
	for j := range js {
		p := &partialWindow{groups: make([]groupAcc, len(w.Aggs))}
		found := false
		j0 := floorDiv(mulScalar(m.Coarse.Step, j), m.Fine.Step)
		for t := int64(0); t < tiles; t++ {
			k := j0 + t*ratio
			if tile := m.buf[k]; tile != nil {
				if !foldTile(p.groups, w.Aggs, mp, m.FineGroup, tile) {
					return false
				}
				found = true
				continue
			}
			if part := a.open[k]; part != nil {
				foldPartial(p.groups, mp, m.FineGroup, part)
				found = true
			}
		}
		if !found {
			continue // lazily created in direct evaluation too
		}
		w.open[j] = p
	}
	return true
}

// foldTile accumulates one closed fine tile (an emitted aggregate item) into
// the coarse accumulators. mp maps coarse group → merge agg index, fineGroup
// maps merge agg index → fine stream group index.
func foldTile(accs []groupAcc, aggs []AggSpec, mp, fineGroup []int, tile *xmlstream.Element) bool {
	for i := range aggs {
		g := tile.Child(groupName(fineGroup[mp[i]]))
		if g == nil {
			continue
		}
		acc := &accs[i]
		if ne := g.Child(aggNField); ne != nil {
			if n, err := strconv.ParseInt(ne.Value(), 10, 64); err == nil {
				acc.n += n
			}
		}
		read := func(field string) (decimal.D, bool) {
			fe := g.Child(field)
			if fe == nil {
				return decimal.D{}, false
			}
			v, err := decimal.Parse(fe.Value())
			return v, err == nil
		}
		switch aggs[i].Op {
		case wxquery.AggCount:
			// n accumulation above suffices.
		case wxquery.AggSum, wxquery.AggAvg:
			if v, ok := read(aggSumField); ok {
				if s, err := acc.sum.Add(v); err == nil {
					acc.sum = s
				}
			}
		case wxquery.AggMin:
			if v, ok := read(aggMinField); ok {
				if !acc.seen || v.Cmp(acc.minv) < 0 {
					acc.minv = v
				}
				acc.seen = true
			}
		case wxquery.AggMax:
			if v, ok := read(aggMaxField); ok {
				if !acc.seen || v.Cmp(acc.maxv) > 0 {
					acc.maxv = v
				}
				acc.seen = true
			}
		}
	}
	return true
}

// foldPartial accumulates one still-open fine partial window into the coarse
// accumulators, reading the fine aggregator's group accumulators directly.
func foldPartial(accs []groupAcc, mp, fineGroup []int, part *partialWindow) {
	for i := range accs {
		fg := fineGroup[mp[i]]
		if fg >= len(part.groups) {
			continue
		}
		src := part.groups[fg]
		acc := &accs[i]
		acc.n += src.n
		if s, err := acc.sum.Add(src.sum); err == nil {
			acc.sum = s
		}
		if src.seen {
			if !acc.seen || src.minv.Cmp(acc.minv) < 0 {
				acc.minv = src.minv
			}
			if !acc.seen || src.maxv.Cmp(acc.maxv) > 0 {
				acc.maxv = src.maxv
			}
			acc.seen = true
		}
	}
}
