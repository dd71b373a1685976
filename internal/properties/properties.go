// Package properties implements the paper's properties representation of
// subscriptions and data streams (§3.1) and the matching algorithms of §3.3:
// MatchProperties (Algorithm 2), predicate matching via Algorithm 3 (package
// predicate), and MatchAggregations.
//
// Subscriptions and data streams are treated symmetrically: a subscription
// produces a result data stream, and every data stream is the result of a
// subscription, so both are described by the same data structure. Properties
// record, per original input stream, the set of operators (with their
// conditions) that transform that input into the represented stream.
// Restructuring details of the return clause are deliberately not part of
// the properties (§3.1); they live with the query and run as
// post-processing at the subscriber's super-peer.
package properties

import (
	"fmt"
	"strings"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// OpKind enumerates the operator kinds distinguished by Algorithm 2.
type OpKind int

// Operator kinds.
const (
	// OpSelect is a selection σ with a conjunctive predicate graph.
	OpSelect OpKind = iota
	// OpProject is a projection Π with marked output and referenced elements.
	OpProject
	// OpAggregate is a window-based aggregation Φ.
	OpAggregate
	// OpWindow returns the contents of data windows without aggregation.
	OpWindow
	// OpUDF is an unknown, user-defined operator (Algorithm 2's fourth
	// case); assumed deterministic, shareable only with an identical input
	// vector.
	OpUDF
)

// Aggregation describes a window-based aggregation operator's conditions:
// the operator, the aggregated element, the data window, and any filter
// applied to the aggregation result (as in Query 4's $a ≥ 1.3).
type Aggregation struct {
	Op     wxquery.AggOp
	Elem   xmlstream.Path
	Window wxquery.Window
	// Filter constrains the aggregate result values; nil when unfiltered.
	// Node labels use the canonical form "op(elem)".
	Filter *predicate.Graph
}

// Label returns the canonical predicate-graph node label for the aggregate
// value, e.g. "avg(en)".
func (a *Aggregation) Label() string {
	return fmt.Sprintf("%s(%s)", a.Op, a.Elem)
}

// UDFSpec describes an unknown operator: name plus input vector.
type UDFSpec struct {
	Name string
	// Params is the operator's input vector ~i: the aggregated reference and
	// any constant arguments, in canonical string form. Matching compares
	// this vector verbatim (Algorithm 2, lines 25–30).
	Params []string
	// Window is the data window the UDF is evaluated over.
	Window wxquery.Window
	// Elem and Args are the decoded input vector for execution.
	Elem xmlstream.Path
	Args []decimal.D
}

// Op is one operator entry in a properties operator set.
type Op struct {
	Kind OpKind
	// Sel is the selection predicate graph (OpSelect). Node labels are
	// element paths relative to the stream item.
	Sel *predicate.Graph
	// Out lists the projection elements that are actually returned in the
	// result stream (the bullet-marked elements of Fig. 3); Ref additionally
	// includes elements referenced only in predicates (OpProject).
	Out []xmlstream.Path
	Ref []xmlstream.Path
	// Agg holds aggregation conditions (OpAggregate) or the bare window
	// (OpWindow, with Agg.Op unused).
	Agg *Aggregation
	// UDF holds the unknown-operator description (OpUDF).
	UDF *UDFSpec
}

// Input describes how one original input data stream is transformed.
type Input struct {
	// Stream is the name of the original input data stream.
	Stream string
	// ItemPath locates one item within the stream document, e.g.
	// photons/photon.
	ItemPath xmlstream.Path
	// Ops is the operator set applied to the input.
	Ops []Op

	// fp caches the canonical Fingerprint encoding and fpid its interned
	// FingerprintID; both empty until first use. Clone deliberately does
	// not copy them.
	fp   string
	fpid uint32
}

// Find returns the first operator of the given kind, or nil.
func (in *Input) Find(k OpKind) *Op {
	for i := range in.Ops {
		if in.Ops[i].Kind == k {
			return &in.Ops[i]
		}
	}
	return nil
}

// Selection returns the input's selection graph, or nil.
func (in *Input) Selection() *predicate.Graph {
	if o := in.Find(OpSelect); o != nil {
		return o.Sel
	}
	return nil
}

// Properties describe a subscription or a data stream (§3.1).
type Properties struct {
	// Inputs is the set of original input data streams with their operator
	// sets.
	Inputs []*Input
}

// Input returns the transformation of the named input stream, or nil.
func (p *Properties) Input(stream string) *Input {
	for _, in := range p.Inputs {
		if in.Stream == stream {
			return in
		}
	}
	return nil
}

// SingleInput returns the sole input of single-input properties.
func (p *Properties) SingleInput() (*Input, bool) {
	if len(p.Inputs) == 1 {
		return p.Inputs[0], true
	}
	return nil, false
}

// Clone returns a deep copy of the properties.
func (p *Properties) Clone() *Properties {
	c := &Properties{Inputs: make([]*Input, len(p.Inputs))}
	for i, in := range p.Inputs {
		ci := &Input{
			Stream:   in.Stream,
			ItemPath: append(xmlstream.Path(nil), in.ItemPath...),
			Ops:      make([]Op, len(in.Ops)),
		}
		for j, o := range in.Ops {
			co := Op{Kind: o.Kind}
			if o.Sel != nil {
				co.Sel = o.Sel.Clone()
			}
			co.Out = append(co.Out, o.Out...)
			co.Ref = append(co.Ref, o.Ref...)
			if o.Agg != nil {
				a := *o.Agg
				if a.Filter != nil {
					a.Filter = a.Filter.Clone()
				}
				co.Agg = &a
			}
			if o.UDF != nil {
				u := *o.UDF
				u.Params = append([]string(nil), o.UDF.Params...)
				co.UDF = &u
			}
			ci.Ops[j] = co
		}
		c.Inputs[i] = ci
	}
	return c
}

// Result derives the properties of the data stream a subscription with
// properties p produces. Subscriptions and streams share the structure
// (§3.1); the only adjustment is that aggregate results contain no item
// content, so the projection recorded for matching purposes is dropped.
func (p *Properties) Result() *Properties {
	r := p.Clone()
	for _, in := range r.Inputs {
		hasAgg := false
		for _, o := range in.Ops {
			if o.Kind == OpAggregate || o.Kind == OpUDF {
				hasAgg = true
				break
			}
		}
		if !hasAgg {
			continue
		}
		ops := in.Ops[:0]
		for _, o := range in.Ops {
			if o.Kind != OpProject {
				ops = append(ops, o)
			}
		}
		in.Ops = ops
	}
	return r
}

// String renders the properties for diagnostics.
func (p *Properties) String() string {
	var b strings.Builder
	for i, in := range p.Inputs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s/%s: ", in.Stream, in.ItemPath)
		for j, o := range in.Ops {
			if j > 0 {
				b.WriteString(", ")
			}
			switch o.Kind {
			case OpSelect:
				fmt.Fprintf(&b, "σ[%s]", o.Sel)
			case OpProject:
				outs := make([]string, len(o.Out))
				for k, pth := range o.Out {
					outs[k] = pth.String()
				}
				fmt.Fprintf(&b, "π{%s}", strings.Join(outs, ","))
			case OpAggregate:
				fmt.Fprintf(&b, "%s %s", o.Agg.Label(), o.Agg.Window.String())
				if o.Agg.Filter != nil {
					fmt.Fprintf(&b, " having[%s]", o.Agg.Filter)
				}
			case OpWindow:
				fmt.Fprintf(&b, "ω %s", o.Agg.Window.String())
			case OpUDF:
				fmt.Fprintf(&b, "%s(%s)", o.UDF.Name, strings.Join(o.UDF.Params, ","))
			}
		}
	}
	return b.String()
}
