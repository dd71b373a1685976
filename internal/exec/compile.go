package exec

import (
	"fmt"
	"slices"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/properties"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// aggSpecsOf extracts the executable aggregation layout from an input's
// operator set, in operator order (which matches let-clause order).
func aggSpecsOf(in *properties.Input) (specs []AggSpec, filters []*predicate.Graph, labels []string) {
	for _, o := range in.Ops {
		switch o.Kind {
		case properties.OpAggregate:
			specs = append(specs, AggSpec{Op: o.Agg.Op, Elem: o.Agg.Elem})
			filters = append(filters, o.Agg.Filter)
			labels = append(labels, o.Agg.Label())
		case properties.OpUDF:
			specs = append(specs, AggSpec{UDF: o.UDF.Name, Elem: o.UDF.Elem, UDFArgs: o.UDF.Args})
			filters = append(filters, nil)
			labels = append(labels, o.UDF.Name)
		}
	}
	return specs, filters, labels
}

// filterOps builds the AggFilter stages for an aggregation layout.
func filterOps(specs []AggSpec, filters []*predicate.Graph, labels []string) []Operator {
	var out []Operator
	for i, g := range filters {
		if g == nil {
			continue
		}
		groups := map[string]FilterGroup{
			labels[i]: {Index: i, Op: specs[i].Op, UDF: specs[i].UDF != ""},
		}
		out = append(out, NewAggFilter(g, groups))
	}
	return out
}

// CanonicalPipeline compiles the operators that transform one raw input
// stream into the canonical shared stream of a subscription: selection,
// then window aggregation (with result filters) or window grouping or
// projection. The canonical stream is what other subscriptions may reuse;
// restructuring is excluded by design (§2).
func CanonicalPipeline(in *properties.Input, reg UDFRegistry) *Pipeline {
	var ops []Operator
	if sel := in.Selection(); sel != nil {
		ops = append(ops, NewSelect(sel))
	}
	specs, filters, labels := aggSpecsOf(in)
	switch {
	case len(specs) > 0:
		win, _ := in.Window()
		ops = append(ops, NewWindowAgg(win, specs, reg))
		ops = append(ops, filterOps(specs, filters, labels)...)
	default:
		if o := in.Find(properties.OpWindow); o != nil {
			ops = append(ops, NewWindowContents(o.Agg.Window))
		} else if o := in.Find(properties.OpProject); o != nil {
			ops = append(ops, NewProject(o.Ref))
		}
	}
	return NewPipeline(ops...)
}

// ResidualPipeline compiles the operators that transform a reused canonical
// stream (properties reused, which matched per Algorithm 2) into the new
// subscription's canonical stream. Implied operators that would be no-ops on
// the reused stream are skipped.
func ResidualPipeline(reused, sub *properties.Input, reg UDFRegistry) (*Pipeline, error) {
	var ops []Operator
	subSpecs, subFilters, subLabels := aggSpecsOf(sub)
	reusedSpecs, _, _ := aggSpecsOf(reused)

	switch {
	case len(subSpecs) > 0 && len(reusedSpecs) > 0:
		// Aggregate-from-aggregate: map each subscription group onto a
		// serving group of the reused stream, then recompose windows if
		// they differ.
		fineGroup := make([]int, len(subSpecs))
		fineOp := make([]wxquery.AggOp, len(subSpecs))
		for i, s := range subSpecs {
			j, err := findServingGroup(reusedSpecs, s)
			if err != nil {
				return nil, err
			}
			fineGroup[i] = j
			fineOp[i] = reusedSpecs[j].Op
		}
		fineWin, _ := reused.Window()
		subWin, _ := sub.Window()
		if fineWin.Equal(&subWin) {
			if !identityLayout(reusedSpecs, subSpecs, fineGroup) {
				ops = append(ops, NewRemap(subSpecs, fineGroup, fineOp))
			}
		} else {
			ops = append(ops, NewWindowMerge(fineWin, subWin, subSpecs, fineGroup, fineOp))
		}
		ops = append(ops, filterOps(subSpecs, subFilters, subLabels)...)

	case len(subSpecs) > 0:
		// Aggregate over a (possibly filtered/projected) item stream.
		if sel := residualSelection(reused, sub); sel != nil {
			ops = append(ops, NewSelect(sel))
		}
		win, _ := sub.Window()
		ops = append(ops, NewWindowAgg(win, subSpecs, reg))
		ops = append(ops, filterOps(subSpecs, subFilters, subLabels)...)

	case sub.Find(properties.OpWindow) != nil:
		if reused.Find(properties.OpWindow) != nil {
			// Matching guarantees identical window specs: identity.
			break
		}
		if sel := residualSelection(reused, sub); sel != nil {
			ops = append(ops, NewSelect(sel))
		}
		ops = append(ops, NewWindowContents(sub.Find(properties.OpWindow).Agg.Window))

	default:
		if sel := residualSelection(reused, sub); sel != nil {
			ops = append(ops, NewSelect(sel))
		}
		if p := residualProjection(reused, sub); p != nil {
			ops = append(ops, NewProject(p))
		}
	}
	return NewPipeline(ops...), nil
}

// findServingGroup locates the reused-stream group that can answer spec.
func findServingGroup(reused []AggSpec, spec AggSpec) (int, error) {
	for j, r := range reused {
		if spec.UDF != "" {
			same := func(a, b decimal.D) bool { return a.Cmp(b) == 0 }
			if r.UDF == spec.UDF && r.Elem.Equal(spec.Elem) && slices.EqualFunc(r.UDFArgs, spec.UDFArgs, same) {
				return j, nil
			}
			continue
		}
		if r.UDF != "" || !r.Elem.Equal(spec.Elem) {
			continue
		}
		if r.Op == spec.Op || (r.Op == wxquery.AggAvg && (spec.Op == wxquery.AggSum || spec.Op == wxquery.AggCount)) {
			return j, nil
		}
	}
	return 0, fmt.Errorf("exec: no reused group serves %s(%s)", spec.Op, spec.Elem)
}

// residualSelection returns the subscription's selection unless the reused
// stream is already filtered by an equivalent predicate.
func residualSelection(reused, sub *properties.Input) *predicate.Graph {
	subSel := sub.Selection()
	if subSel == nil {
		return nil
	}
	if rs := reused.Selection(); rs != nil && predicate.MatchPredicates(subSel, rs) {
		// The reused stream's predicate already implies the subscription's:
		// equal selections, nothing left to filter.
		return nil
	}
	return subSel
}

// residualProjection returns the subscription's projection paths unless the
// reused stream is already pruned at least as tightly.
func residualProjection(reused, sub *properties.Input) []xmlstream.Path {
	sp := sub.Find(properties.OpProject)
	if sp == nil {
		return nil
	}
	if rp := reused.Find(properties.OpProject); rp != nil && xmlstream.Covered(sp.Out, rp.Out) {
		return nil
	}
	return sp.Out
}

// identityLayout reports whether the reused aggregate layout already equals
// the subscription's, so no remapping is needed.
func identityLayout(reused, sub []AggSpec, fineGroup []int) bool {
	if len(reused) != len(sub) {
		return false
	}
	for i := range sub {
		if fineGroup[i] != i || reused[i].Op != sub[i].Op || reused[i].UDF != sub[i].UDF {
			return false
		}
	}
	return true
}

// Remap rewrites aggregate items from a reused layout into the
// subscription's layout (identical windows, e.g. an avg stream serving a
// sum subscription). Only the item and its group nodes are new: window
// fields and the groups' value fields are shared with the input.
type Remap struct {
	// Aggs lists the subscription's aggregations, in output group order.
	Aggs []AggSpec
	// FineGroup[i] is the reused stream's group index serving Aggs[i].
	FineGroup []int
	// FineOp[i] is the reused stream's operator for that group.
	FineOp []wxquery.AggOp

	// from[i] and to[i] are the group element names Aggs[i] is read from
	// and written as.
	from, to []string
}

// NewRemap returns a layout-remapping operator.
func NewRemap(aggs []AggSpec, fineGroup []int, fineOp []wxquery.AggOp) *Remap {
	r := &Remap{Aggs: aggs, FineGroup: fineGroup, FineOp: fineOp}
	for i := range aggs {
		r.from = append(r.from, groupName(fineGroup[i]))
		r.to = append(r.to, groupName(i))
	}
	return r
}

// Name implements Operator.
func (r *Remap) Name() string       { return "remap" }
func (r *Remap) instance() Operator { return r }

// Process implements Operator.
func (r *Remap) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	for _, item := range items {
		out := &xmlstream.Element{Name: AggItemName, Children: make([]*xmlstream.Element, 0, 2+len(r.to))}
		for _, c := range item.Children {
			if c.Name == aggWinField || c.Name == aggWMField {
				out.Children = append(out.Children, c)
			}
		}
		for i, name := range r.to {
			src := item.Child(r.from[i])
			if src == nil {
				continue
			}
			// An avg source carries sum and n; a sum/count target keeps both
			// fields, the restructuring step reads what it needs.
			out.Children = append(out.Children, &xmlstream.Element{Name: name, Text: src.Text, Children: src.Children})
		}
		dst = append(dst, out)
	}
	return dst
}

// Flush implements Operator.
func (r *Remap) Flush(dst []*xmlstream.Element) []*xmlstream.Element { return dst }

// RestructureFor builds the post-processing operator of the FLWR that reads
// the given input, using the subscription's parsed query.
func RestructureFor(q *wxquery.Query, in *properties.Input) (*Restructure, error) {
	f := findFLWR(q.Root, in.Stream)
	if f == nil {
		return nil, fmt.Errorf("exec: query has no FLWR over stream %q", in.Stream)
	}
	var forVar string
	var window bool
	var lets []LetBinding
	for _, c := range f.Clauses {
		switch x := c.(type) {
		case *wxquery.ForClause:
			forVar = x.Var
			window = x.Window != nil
		case *wxquery.LetClause:
			spec := AggSpec{Op: x.Agg, Elem: x.Of.Path}
			if x.UDF != "" {
				spec = AggSpec{UDF: x.UDF, Elem: x.Of.Path, UDFArgs: x.ExtraArgs}
			}
			lets = append(lets, LetBinding{Var: x.Var, Spec: spec})
		}
	}
	mode := ModeItems
	switch {
	case len(lets) > 0:
		mode = ModeAggregates
	case window:
		mode = ModeWindows
	}
	return NewRestructure(mode, forVar, lets, f.Return), nil
}

// findFLWR locates the FLWR over the named stream inside constructor
// content.
func findFLWR(e *wxquery.ElemCtor, stream string) *wxquery.FLWR {
	for _, c := range e.Content {
		switch x := c.(type) {
		case *wxquery.FLWR:
			for _, cl := range x.Clauses {
				if fc, ok := cl.(*wxquery.ForClause); ok && fc.Source.Stream == stream {
					return x
				}
			}
		case *wxquery.ElemCtor:
			if f := findFLWR(x, stream); f != nil {
				return f
			}
		}
	}
	return nil
}

// FullPipeline evaluates a subscription's input completely at one peer:
// canonical operators followed by restructuring. This is what data shipping
// (at the target super-peer) and query shipping (at the source super-peer)
// install.
func FullPipeline(q *wxquery.Query, in *properties.Input, reg UDFRegistry) (*Pipeline, error) {
	rs, err := RestructureFor(q, in)
	if err != nil {
		return nil, err
	}
	canon := CanonicalPipeline(in, reg)
	return NewPipeline(append(canon.Ops, rs)...), nil
}
