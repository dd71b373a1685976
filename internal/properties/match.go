package properties

import (
	"fmt"
	"slices"
	"strings"

	"streamshare/internal/predicate"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// MatchProperties is Algorithm 2: it decides whether the data stream
// described by p can be shared to answer the subscription described by sub.
// Both must describe transformations of the same original input data stream;
// for each operator of p there must be a corresponding, condition-compatible
// operator of sub — otherwise the stream lacks data the subscription needs.
func MatchProperties(p, sub *Properties) bool {
	if len(p.Inputs) != len(sub.Inputs) {
		return false
	}
	for _, in := range p.Inputs {
		sin := sub.Input(in.Stream)
		if sin == nil || !MatchInput(in, sin) {
			return false
		}
	}
	return true
}

// MatchInput applies Algorithm 2 to the operator sets of one shared input
// stream: p describes the candidate stream, sub the new subscription.
func MatchInput(p, sub *Input) bool {
	// Lines 1–4: the input streams must be identical.
	if p.Stream != sub.Stream || !p.ItemPath.Equal(sub.ItemPath) {
		return false
	}
	for i := range p.Ops {
		if !matchOp(&p.Ops[i], p, sub) {
			return false // lines 32–34
		}
	}
	return true
}

// matchOp finds a corresponding operator in sub for one operator o of the
// candidate stream (Algorithm 2, lines 6–31).
func matchOp(o *Op, p, sub *Input) bool {
	for j := range sub.Ops {
		o2 := &sub.Ops[j]
		switch o.Kind {
		case OpSelect:
			if o2.Kind != OpSelect {
				continue
			}
			// When the candidate stream is itself an aggregate stream, the
			// selection performed prior to aggregation must be the same in
			// both subscriptions (§3.3); the aggregated items can no longer
			// be re-filtered. Reusing a raw item stream for an aggregate
			// subscription only needs one-way implication — the residual
			// selection runs before the new aggregation.
			strict := p.Find(OpAggregate) != nil || p.Find(OpWindow) != nil
			if matchSelections(o.Sel, o2.Sel, strict) {
				return true
			}
		case OpProject:
			if o2.Kind != OpProject {
				continue
			}
			// R ⊇ R′: the stream's returned elements must cover every
			// element the subscription references (lines 16–20).
			if xmlstream.Covered(o.Out, o2.Ref) {
				return true
			}
		case OpAggregate:
			if o2.Kind != OpAggregate {
				continue
			}
			if MatchAggregations(o.Agg, o2.Agg) {
				return true
			}
		case OpWindow:
			if o2.Kind != OpWindow {
				continue
			}
			// Window-content streams are shareable only with an identical
			// window specification.
			if o.Agg.Window.Equal(&o2.Agg.Window) {
				return true
			}
		case OpUDF:
			if o2.Kind != OpUDF {
				continue
			}
			// Lines 25–30: unknown deterministic operators share only with
			// equal operator and equal input vector ~i = ~i′.
			if o.UDF.Name == o2.UDF.Name && slices.Equal(o.UDF.Params, o2.UDF.Params) &&
				o.UDF.Window.Equal(&o2.UDF.Window) {
				return true
			}
		}
	}
	return false
}

// matchSelections compares selection predicates. In the general case the
// subscription's predicates must imply the stream's (Algorithm 3's test,
// decided on the closure by predicate.MatchPredicates). When
// either side aggregates, selections performed prior to the aggregation must
// be the same in both (§3.3, "Window-based Aggregation"), i.e. mutual
// implication.
func matchSelections(g, gsub *predicate.Graph, strict bool) bool {
	if !predicate.MatchPredicates(g, gsub) {
		return false
	}
	if strict && !predicate.MatchPredicates(gsub, g) {
		return false
	}
	return true
}

// MatchAggregations decides whether the window-based aggregate stream
// described by a can be reused for the new aggregate subscription a2
// (§3.3, "Window-based Aggregation"):
//
//   - compatible aggregation operators over the same aggregated element
//     (avg is transmitted as (sum, count) pairs, so an avg stream also
//     serves sum and count subscriptions),
//   - time-based windows must share the ordered reference element,
//   - window compatibility ∆′ mod ∆ = 0, ∆ mod µ = 0, µ′ mod µ = 0 — unless
//     the windows are identical, in which case values are reused as-is,
//   - a filtered aggregation result is reusable only as-is (identical
//     windows, same operator) by subscriptions applying the same or a more
//     restrictive filter; recomposing coarser windows from filtered values
//     would miss filtered-out data.
//
// The pre-aggregation selection equality required by the paper is enforced
// by Algorithm 2's selection case (strict matching when aggregates are
// involved).
func MatchAggregations(a, a2 *Aggregation) bool {
	if !a.Elem.Equal(a2.Elem) {
		return false
	}
	identical := a.Window.Equal(&a2.Window)
	if a.Filter != nil {
		if !identical || a.Op != a2.Op {
			return false
		}
		if a2.Filter == nil || !predicate.MatchPredicates(a.Filter, a2.Filter) {
			return false
		}
		return true
	}
	if !aggOpServes(a.Op, a2.Op) {
		return false
	}
	if identical {
		return true
	}
	return windowsCompatible(&a.Window, &a2.Window)
}

// aggOpServes reports whether a stream aggregated with have can answer a
// subscription requesting want. avg streams carry (sum, count) internally
// (§3.3), so they also serve sum and count.
func aggOpServes(have, want wxquery.AggOp) bool {
	if have == want {
		return true
	}
	return have == wxquery.AggAvg && (want == wxquery.AggSum || want == wxquery.AggCount)
}

// ExplainMismatch reports, in prose, why the stream described by p cannot
// answer the subscription sub — or "match" when it can. It follows
// Algorithm 2's cases, naming the first operator whose conditions fail, so
// tools (cmd/wxq) can explain rejected sharing opportunities.
func ExplainMismatch(p, sub *Properties) string {
	if MatchProperties(p, sub) {
		return "match"
	}
	if len(p.Inputs) != len(sub.Inputs) {
		return fmt.Sprintf("input sets differ: stream has %d inputs, subscription %d", len(p.Inputs), len(sub.Inputs))
	}
	for _, in := range p.Inputs {
		sin := sub.Input(in.Stream)
		if sin == nil {
			return fmt.Sprintf("subscription does not read stream %q", in.Stream)
		}
		if r := ExplainInputMismatch(in, sin); r != "match" {
			return r
		}
	}
	return "no match"
}

// ExplainInputMismatch reports why the candidate stream input p cannot serve
// the subscription input sub — or "match" when it can. It names the first
// operator whose Algorithm 2 conditions fail; the decision tracer records
// this as the per-candidate rejection reason.
func ExplainInputMismatch(p, sub *Input) string {
	if p.Stream != sub.Stream {
		return fmt.Sprintf("different input streams: %q vs %q", p.Stream, sub.Stream)
	}
	if !p.ItemPath.Equal(sub.ItemPath) {
		return fmt.Sprintf("item paths differ on %q: %s vs %s", p.Stream, p.ItemPath, sub.ItemPath)
	}
	for i := range p.Ops {
		o := &p.Ops[i]
		if matchOp(o, p, sub) {
			continue
		}
		switch o.Kind {
		case OpSelect:
			return fmt.Sprintf("subscription predicates do not imply the stream's selection [%s]", o.Sel)
		case OpProject:
			return fmt.Sprintf("stream projection %v lacks elements the subscription references", pathStrings(o.Out))
		case OpAggregate:
			return fmt.Sprintf("aggregate %s over %s is not reusable (operator, window, or result filter incompatible)",
				o.Agg.Label(), o.Agg.Window.String())
		case OpWindow:
			return fmt.Sprintf("window-content stream %s requires an identical window", o.Agg.Window.String())
		case OpUDF:
			return fmt.Sprintf("user-defined operator %s(%s) requires an identical input vector",
				o.UDF.Name, strings.Join(o.UDF.Params, ", "))
		}
	}
	return "match"
}

func pathStrings(ps []xmlstream.Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// windowsCompatible checks the recomposition conditions of §3.3 between the
// reused window w and the new subscription's window w2:
// ∆′ mod ∆ = 0, ∆ mod µ = 0, µ′ mod µ = 0.
func windowsCompatible(w, w2 *wxquery.Window) bool {
	if w.Kind != w2.Kind {
		return false
	}
	if w.Kind == wxquery.WindowDiff && !w.Ref.Equal(w2.Ref) {
		return false
	}
	return w2.Size.DivisibleBy(w.Size) && // ∆′ mod ∆ = 0
		w.Size.DivisibleBy(w.Step) && // ∆ mod µ = 0
		w2.Step.DivisibleBy(w.Step) // µ′ mod µ = 0
}
