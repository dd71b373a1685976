package properties

import (
	"errors"
	"fmt"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// ErrUnsatisfiable reports a subscription whose selection predicate has no
// solution; such subscriptions are rejected at registration (§3.3).
var ErrUnsatisfiable = errors.New("properties: predicate unsatisfiable")

// ErrUnsupported reports a query outside the flat WXQuery fragment the
// properties approach supports (§3.1: nested queries are future work).
var ErrUnsupported = errors.New("properties: unsupported query shape")

func unsupported(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}

// Options tune property construction. There is nothing to tune: the
// construction always checks satisfiability and minimizes (§3.3).
type Options struct{}

// FromQuery constructs the properties of a parsed WXQuery subscription. The
// construction — including predicate normalization, the satisfiability
// check, and minimization — runs once per subscription during registration
// (§3.3, "Matching Predicates").
func FromQuery(q *wxquery.Query) (*Properties, error) {
	p := &Properties{}
	if err := collectInputs(q.Root, p); err != nil {
		return nil, err
	}
	if len(p.Inputs) == 0 {
		return nil, unsupported("subscription references no stream() input")
	}
	return p, nil
}

// Build is FromQuery; Options carries nothing.
func Build(q *wxquery.Query, _ Options) (*Properties, error) { return FromQuery(q) }

// collectInputs walks constructor content and builds one Input per FLWR
// expression with a stream() source.
func collectInputs(e *wxquery.ElemCtor, p *Properties) error {
	for _, c := range e.Content {
		switch x := c.(type) {
		case *wxquery.ElemCtor:
			if err := collectInputs(x, p); err != nil {
				return err
			}
		case *wxquery.FLWR:
			in, err := buildInput(x)
			if err != nil {
				return err
			}
			if p.Input(in.Stream) != nil {
				return unsupported("stream %q referenced by more than one FLWR", in.Stream)
			}
			p.Inputs = append(p.Inputs, in)
		default:
			return unsupported("top-level %T expression (flat WXQuery requires FLWR or constructor content)", c)
		}
	}
	return nil
}

// buildInput derives the operator set of one FLWR expression.
func buildInput(f *wxquery.FLWR) (*Input, error) {
	var fc *wxquery.ForClause
	lets := map[string]*wxquery.LetClause{}
	var letOrder []*wxquery.LetClause
	for _, c := range f.Clauses {
		switch x := c.(type) {
		case *wxquery.ForClause:
			if fc != nil {
				return nil, unsupported("multiple for clauses in one FLWR")
			}
			fc = x
		case *wxquery.LetClause:
			if _, dup := lets[x.Var]; dup {
				return nil, unsupported("variable $%s bound twice", x.Var)
			}
			lets[x.Var] = x
			letOrder = append(letOrder, x)
		}
	}
	if fc == nil {
		return nil, unsupported("FLWR without a for clause")
	}
	if fc.Source.Stream == "" {
		return nil, unsupported("for clause source $%s is not a stream() input (nested queries are future work)", fc.Source.Var)
	}
	in := &Input{Stream: fc.Source.Stream, ItemPath: fc.Source.Path()}

	// Selection atoms: path conditions (only on the item step) plus where
	// atoms over the for variable.
	sel := predicate.New()
	haveSel := false
	for i, step := range fc.Source.Steps {
		if step.Cond == nil {
			continue
		}
		if i != len(fc.Source.Steps)-1 {
			return nil, unsupported("path condition on non-item step %q", step.Name)
		}
		for _, a := range step.Cond.Atoms {
			if a.Left.Var != "" || (a.Right != nil && a.Right.Var != "") {
				return nil, unsupported("variable reference inside path condition")
			}
			sel.AddAtom(pathAtom(a))
			haveSel = true
		}
	}

	// Aggregate filters, keyed by let variable.
	filters := map[string]*predicate.Graph{}

	if f.Where != nil {
		for _, a := range f.Where.Atoms {
			lv, isLeftAgg := lets[a.Left.Var]
			var rightAgg *wxquery.LetClause
			if a.Right != nil {
				rightAgg = lets[a.Right.Var]
			}
			switch {
			case isLeftAgg:
				if a.Right != nil && rightAgg == nil {
					return nil, unsupported("predicate mixes aggregate $%s and item values", a.Left.Var)
				}
				if rightAgg != nil && rightAgg != lv {
					return nil, unsupported("cross-aggregate predicate between $%s and $%s", a.Left.Var, a.Right.Var)
				}
				if len(a.Left.Path) != 0 {
					return nil, unsupported("path below aggregate variable $%s", a.Left.Var)
				}
				g := filters[lv.Var]
				if g == nil {
					g = predicate.New()
					filters[lv.Var] = g
				}
				g.AddAtom(aggAtom(a, lv))
			case a.Right != nil && rightAgg != nil:
				return nil, unsupported("predicate mixes item values and aggregate $%s", a.Right.Var)
			default:
				if a.Left.Var != fc.Var {
					return nil, unsupported("unbound variable $%s in predicate", a.Left.Var)
				}
				if a.Right != nil && a.Right.Var != fc.Var {
					return nil, unsupported("unbound variable $%s in predicate", a.Right.Var)
				}
				sel.AddAtom(pathAtom(a))
				haveSel = true
			}
		}
	}

	if haveSel {
		if !sel.Satisfiable() {
			return nil, fmt.Errorf("%w: %s", ErrUnsatisfiable, sel)
		}
		sel.Minimize()
		in.Ops = append(in.Ops, Op{Kind: OpSelect, Sel: sel})
	}

	// Aggregations and UDFs from let clauses.
	for _, lc := range letOrder {
		if lc.Of.Var != fc.Var {
			return nil, unsupported("let aggregates $%s which is not the for variable", lc.Of.Var)
		}
		if fc.Window == nil {
			return nil, unsupported("aggregation without a data window")
		}
		if lc.UDF != "" {
			params := []string{lc.Of.String()}
			for _, arg := range lc.ExtraArgs {
				params = append(params, arg.String())
			}
			in.Ops = append(in.Ops, Op{Kind: OpUDF, UDF: &UDFSpec{
				Name: lc.UDF, Params: params, Window: *fc.Window,
				Elem: lc.Of.Path, Args: append([]decimal.D(nil), lc.ExtraArgs...),
			}})
			continue
		}
		agg := &Aggregation{Op: lc.Agg, Elem: lc.Of.Path, Window: *fc.Window}
		if g := filters[lc.Var]; g != nil {
			if !g.Satisfiable() {
				return nil, fmt.Errorf("%w: %s", ErrUnsatisfiable, g)
			}
			g.Minimize()
			agg.Filter = g
		}
		in.Ops = append(in.Ops, Op{Kind: OpAggregate, Agg: agg})
	}
	// Filters on let variables that never materialized into an op would be
	// silently dropped; buildInput's loop above already rejected unbound
	// variables, so every filter is attached.

	hasWindowOp := len(letOrder) > 0

	// Projection from the return clause: referenced paths under the for
	// variable.
	outPaths, usesWholeItem, err := returnRefs(f.Return, fc.Var, lets)
	if err != nil {
		return nil, err
	}
	if hasWindowOp && (len(outPaths) > 0 || usesWholeItem) {
		return nil, unsupported("return clause mixes aggregate values and item content")
	}
	if fc.Window != nil && !hasWindowOp {
		// Query returns data-window contents without aggregation.
		in.Ops = append(in.Ops, Op{Kind: OpWindow, Agg: &Aggregation{Window: *fc.Window}})
	}
	switch {
	case hasWindowOp:
		// Aggregate/UDF subscription: it returns no item content, but for
		// matching against projected streams (R ⊇ R′) the properties still
		// record every element the query references. The projection is
		// dropped again from the advertised result-stream properties by
		// Result().
		var ref []xmlstream.Path
		for _, o := range in.Ops {
			switch o.Kind {
			case OpAggregate:
				ref = append(ref, o.Agg.Elem)
			case OpUDF:
				ref = append(ref, o.UDF.Elem)
			}
		}
		if fc.Window.Kind == wxquery.WindowDiff {
			ref = append(ref, fc.Window.Ref)
		}
		ref = appendSelectionPaths(ref, sel)
		in.Ops = append(in.Ops, Op{Kind: OpProject, Ref: xmlstream.DedupPaths(ref)})
	case !usesWholeItem:
		out := xmlstream.DedupPaths(outPaths)
		ref := append([]xmlstream.Path(nil), out...)
		ref = appendSelectionPaths(ref, sel)
		in.Ops = append(in.Ops, Op{Kind: OpProject, Out: out, Ref: xmlstream.DedupPaths(ref)})
	}
	return in, nil
}

func appendSelectionPaths(ref []xmlstream.Path, sel *predicate.Graph) []xmlstream.Path {
	for _, n := range sel.Nodes() {
		if n != predicate.ZeroNode {
			ref = append(ref, xmlstream.ParsePath(n))
		}
	}
	return ref
}

// pathAtom converts a parsed atom over item-relative paths into a predicate
// atom with path-string node labels.
func pathAtom(a wxquery.CondAtom) predicate.Atom {
	out := predicate.Atom{Left: a.Left.Path.String(), Op: a.Op, Const: a.Const}
	if a.Right != nil {
		out.RightVar = a.Right.Path.String()
	}
	return out
}

// aggAtom converts an aggregate-filter atom; node labels use the canonical
// op(elem) form so filters of different queries align.
func aggAtom(a wxquery.CondAtom, lc *wxquery.LetClause) predicate.Atom {
	label := (&Aggregation{Op: lc.Agg, Elem: lc.Of.Path}).Label()
	out := predicate.Atom{Left: label, Op: a.Op, Const: a.Const}
	if a.Right != nil {
		out.RightVar = label
	}
	return out
}

// returnRefs collects the element paths of the for variable referenced in
// the return expression. usesWholeItem reports a bare $var output (the whole
// item is returned, so no projection applies).
func returnRefs(e wxquery.Expr, forVar string, lets map[string]*wxquery.LetClause) (paths []xmlstream.Path, usesWholeItem bool, err error) {
	switch x := e.(type) {
	case *wxquery.ElemCtor:
		for _, c := range x.Content {
			ps, whole, err := returnRefs(c, forVar, lets)
			if err != nil {
				return nil, false, err
			}
			paths = append(paths, ps...)
			usesWholeItem = usesWholeItem || whole
		}
	case *wxquery.Output:
		switch {
		case x.Ref.Var == forVar && len(x.Ref.Path) == 0:
			usesWholeItem = true
		case x.Ref.Var == forVar:
			paths = append(paths, x.Ref.Path)
		default:
			if _, ok := lets[x.Ref.Var]; !ok {
				return nil, false, unsupported("unbound variable $%s in return clause", x.Ref.Var)
			}
		}
	case *wxquery.IfExpr:
		for _, a := range x.Cond.Atoms {
			for _, vp := range []*wxquery.VarPath{&a.Left, a.Right} {
				if vp == nil {
					continue
				}
				if vp.Var == forVar {
					paths = append(paths, vp.Path)
				} else if _, ok := lets[vp.Var]; !ok && vp.Var != "" {
					return nil, false, unsupported("unbound variable $%s in conditional", vp.Var)
				}
			}
		}
		for _, sub := range []wxquery.Expr{x.Then, x.Else} {
			ps, whole, err := returnRefs(sub, forVar, lets)
			if err != nil {
				return nil, false, err
			}
			paths = append(paths, ps...)
			usesWholeItem = usesWholeItem || whole
		}
	case *wxquery.Sequence:
		for _, it := range x.Items {
			ps, whole, err := returnRefs(it, forVar, lets)
			if err != nil {
				return nil, false, err
			}
			paths = append(paths, ps...)
			usesWholeItem = usesWholeItem || whole
		}
	case *wxquery.FLWR:
		return nil, false, unsupported("nested FLWR expression (future work)")
	default:
		return nil, false, unsupported("%T in return clause", e)
	}
	return paths, usesWholeItem, nil
}
