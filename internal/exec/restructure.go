package exec

import (
	"strconv"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// RestructureMode selects how incoming canonical items bind to variables.
type RestructureMode int

// Restructure modes.
const (
	// ModeItems binds the for variable to each incoming item (selection/
	// projection queries).
	ModeItems RestructureMode = iota
	// ModeAggregates binds let variables to the aggregate values of each
	// incoming aggregate item.
	ModeAggregates
	// ModeWindows binds the for variable to each incoming window-content
	// element.
	ModeWindows
)

// LetBinding associates a let variable with its group position in the
// canonical aggregate items.
type LetBinding struct {
	// Var is the let variable's name (without the $).
	Var string
	// Spec is the aggregation whose group carries the variable's value.
	Spec AggSpec
}

// Restructure materializes the return clause of a subscription. Per §2,
// restructuring runs as a post-processing step at the super-peer connected
// to the subscribing peer, and its output is never considered for reuse.
//
// The return clause is compiled once, at construction, into a template;
// Process evaluates the template and builds only the nodes the clause
// constructs, taking them and their child slices from one slab per call,
// sized by what the template builds per item. Input subtrees a variable
// reference selects are placed in the output by pointer, so outputs share
// structure with inputs: this is safe because nothing writes to an element
// after it is built (see the package comment). The slab is local to the
// call and inputs are never retained past it, so a Restructure holds no
// evaluation state and every instance of a pipeline shares one. For a
// caller that keeps no result, count walks the same template and builds
// nothing (Pipeline.Results).
type Restructure struct {
	// Mode selects how incoming items bind to variables.
	Mode RestructureMode
	// ForVar is the for variable's name (ModeItems and ModeWindows).
	ForVar string
	// Lets binds let variables to aggregate groups (ModeAggregates).
	Lets []LetBinding
	// Return is the return-clause expression to materialize per item.
	Return wxquery.Expr

	tmpl tmpl
	// nodes and kids are the most nodes and child pointers the template
	// builds for one item.
	nodes, kids int
}

// NewRestructure returns the post-processing operator for one FLWR.
func NewRestructure(mode RestructureMode, forVar string, lets []LetBinding, ret wxquery.Expr) *Restructure {
	r := &Restructure{Mode: mode, ForVar: forVar, Lets: lets, Return: ret}
	r.tmpl = r.compile(ret)
	r.nodes, r.kids = r.tmpl.perItem(true)
	return r
}

// Name implements Operator.
func (r *Restructure) Name() string       { return "restructure" }
func (r *Restructure) instance() Operator { return r }

// Process implements Operator.
func (r *Restructure) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	s := xmlstream.NewSlab(len(items)*r.nodes, len(items)*r.kids, 0)
	// A bare text value at the top level of a return clause is wrapped so
	// it remains a well-formed stream item.
	out := content{top: true, elems: dst}
	for _, item := range items {
		r.eval(&s, &r.tmpl, item, &out)
	}
	return out.elems
}

// Flush implements Operator.
func (r *Restructure) Flush(dst []*xmlstream.Element) []*xmlstream.Element { return dst }

// count returns how many items Process would append for items and builds
// none of them: the template is walked by the same eval, into a counting
// sink.
func (r *Restructure) count(items []*xmlstream.Element) int {
	out := content{top: true, count: true}
	for _, item := range items {
		r.eval(nil, &r.tmpl, item, &out)
	}
	return out.n
}

// tmpl is one node of a compiled return clause. Variable references are
// resolved at compile time to what they read — a path below the for item,
// below each item of a window, or a let variable's aggregate group — and a
// reference to an unbound variable compiles to tmplNone.
type tmpl struct {
	kind tmplKind
	// tag is a constructor's element name.
	tag string
	// kids are a constructor's content, a sequence's items, or a
	// conditional's then and else branches.
	kids []tmpl
	// elems is how many child elements a constructor expects, the capacity
	// its child slice is allocated with; zero when it can only hold text.
	elems int
	// path is the path a reference follows below its binding.
	path xmlstream.Path
	// let indexes Restructure.Lets.
	let int
	// cond guards a conditional.
	cond []tmplAtom
}

type tmplKind uint8

const (
	tmplNone   tmplKind = iota // produces nothing
	tmplCtor                   // element constructor
	tmplItem                   // path below the for item
	tmplWindow                 // path below each item of a window element
	tmplAgg                    // final value of a let variable's aggregate
	tmplSeq                    // sequence
	tmplIf                     // conditional
)

// tmplAtom is one comparison left θ right + c of a condition; right is nil
// for a comparison with the constant alone.
type tmplAtom struct {
	left  tmpl
	right *tmpl
	op    predicate.Op
	c     decimal.D
}

// content collects what a template produces inside one constructor (or at
// the top level of the return clause): child elements and text.
type content struct {
	elems []*xmlstream.Element
	text  string
	// top marks the return clause's top level, where a text value becomes
	// a <value> element of its own, in sequence with the others.
	top bool
	// count, set only at the top level, makes the content a counting sink:
	// n counts the items it would collect, and nothing is built.
	count bool
	n     int
}

// find collects the elements p reaches below e, or counts them.
func (c *content) find(e *xmlstream.Element, p xmlstream.Path) {
	if c.count {
		c.n += e.CountFind(p)
	} else {
		c.elems = e.AppendFind(c.elems, p)
	}
}

func (c *content) addText(s *xmlstream.Slab, v string) {
	if c.top {
		c.elems = append(c.elems, s.Node("value", v, nil))
		return
	}
	c.text += v // a lone value is kept as is; only a second one concatenates
}

// compile translates a return-clause expression into its template.
func (r *Restructure) compile(e wxquery.Expr) tmpl {
	switch x := e.(type) {
	case *wxquery.ElemCtor:
		t := tmpl{kind: tmplCtor, tag: x.Tag, kids: r.compileAll(x.Content)}
		for i := range t.kids {
			t.elems += t.kids[i].expectedElems()
		}
		return t
	case *wxquery.Output:
		return r.compileRef(x.Ref)
	case *wxquery.Sequence:
		return tmpl{kind: tmplSeq, kids: r.compileAll(x.Items)}
	case *wxquery.IfExpr:
		t := tmpl{kind: tmplIf, kids: []tmpl{r.compile(x.Then), r.compile(x.Else)}}
		for _, a := range x.Cond.Atoms {
			ta := tmplAtom{left: r.compileRef(a.Left), op: a.Op, c: a.Const}
			if a.Right != nil {
				right := r.compileRef(*a.Right)
				ta.right = &right
			}
			t.cond = append(t.cond, ta)
		}
		return t
	default:
		// Nested FLWR is rejected by the properties builder; an unreachable
		// (or absent) expression contributes nothing.
		return tmpl{}
	}
}

func (r *Restructure) compileAll(es []wxquery.Expr) []tmpl {
	out := make([]tmpl, len(es))
	for i, e := range es {
		out[i] = r.compile(e)
	}
	return out
}

// compileRef resolves a variable reference against the operator's bindings.
func (r *Restructure) compileRef(vp wxquery.VarPath) tmpl {
	if r.Mode == ModeAggregates {
		for i, lb := range r.Lets {
			if lb.Var == vp.Var {
				return tmpl{kind: tmplAgg, let: i}
			}
		}
		return tmpl{}
	}
	if vp.Var != r.ForVar {
		return tmpl{}
	}
	if r.Mode == ModeWindows {
		return tmpl{kind: tmplWindow, path: vp.Path}
	}
	return tmpl{kind: tmplItem, path: vp.Path}
}

// expectedElems estimates how many elements t adds to its constructor: one
// per nested constructor and per item reference (a path usually matches
// once), the larger branch of a conditional. Aggregate values are text.
func (t *tmpl) expectedElems() int {
	switch t.kind {
	case tmplCtor, tmplItem, tmplWindow:
		return 1
	case tmplSeq:
		n := 0
		for i := range t.kids {
			n += t.kids[i].expectedElems()
		}
		return n
	case tmplIf:
		return max(t.kids[0].expectedElems(), t.kids[1].expectedElems())
	}
	return 0
}

// perItem returns the most nodes and child pointers t builds for one item:
// a node per constructor with its expected elements' worth of children, the
// larger branch of a conditional, and at the top level a <value> node per
// aggregate value.
func (t *tmpl) perItem(top bool) (nodes, kids int) {
	switch t.kind {
	case tmplCtor:
		nodes, kids, top = 1, t.elems, false
	case tmplAgg:
		if top {
			nodes = 1
		}
		return nodes, kids
	case tmplIf:
		n0, k0 := t.kids[0].perItem(top)
		n1, k1 := t.kids[1].perItem(top)
		return max(n0, n1), max(k0, k1)
	}
	for i := range t.kids {
		n, k := t.kids[i].perItem(top)
		nodes, kids = nodes+n, kids+k
	}
	return nodes, kids
}

// eval appends what t produces for item to out, building its nodes in s;
// into a counting sink it builds nothing and needs no slab.
func (r *Restructure) eval(s *xmlstream.Slab, t *tmpl, item *xmlstream.Element, out *content) {
	switch t.kind {
	case tmplCtor:
		if out.count {
			out.n++ // one element, whatever it holds
			return
		}
		in := content{}
		if t.elems > 0 {
			in.elems = s.Children(t.elems)
		}
		for i := range t.kids {
			r.eval(s, &t.kids[i], item, &in)
		}
		var e *xmlstream.Element
		if n := len(in.elems); n > 0 {
			// The child slice is capped at its length, as every slab's is.
			e = s.Node(t.tag, "", in.elems[:n:n])
		} else {
			e = s.Node(t.tag, in.text, nil)
		}
		out.elems = append(out.elems, e)
	case tmplItem:
		out.find(item, t.path)
	case tmplWindow:
		// The window element's item children are the window contents.
		for _, c := range item.Children {
			if c.Name != aggWinField && c.Name != aggWMField {
				out.find(c, t.path)
			}
		}
	case tmplAgg:
		// avg values are finalized here as sum/count (§3.3: the division
		// happens at the super-peer where the subscription is registered).
		if num, den, ok := r.value(t, item); ok && out.count {
			out.n++
		} else if ok {
			out.addText(s, formatRatio(num, den))
		}
	case tmplSeq:
		for i := range t.kids {
			r.eval(s, &t.kids[i], item, out)
		}
	case tmplIf:
		branch := 1
		if r.holds(t.cond, item) {
			branch = 0
		}
		r.eval(s, &t.kids[branch], item, out)
	}
}

// value reads a condition operand (or aggregate reference) as an exact
// rational. A window variable reads, like a for variable, below the
// incoming element itself.
func (r *Restructure) value(t *tmpl, item *xmlstream.Element) (decimal.D, int64, bool) {
	switch t.kind {
	case tmplAgg:
		spec := &r.Lets[t.let].Spec
		return aggValue(item, t.let, spec.Op, spec.UDF != "")
	case tmplItem, tmplWindow:
		d, ok := item.Decimal(t.path)
		return d, 1, ok
	}
	return decimal.D{}, 0, false
}

// holds evaluates a conjunction with exact rational comparisons.
func (r *Restructure) holds(cond []tmplAtom, item *xmlstream.Element) bool {
	for i := range cond {
		a := &cond[i]
		ln, ld, ok := r.value(&a.left, item)
		if !ok {
			return false
		}
		rn, rd := a.c, int64(1)
		if a.right != nil {
			vn, vd, ok := r.value(a.right, item)
			if !ok {
				return false
			}
			// v + const with a rational v: (vn + c·vd) / vd.
			cv, err := a.c.Mul(vd)
			if err != nil {
				return false
			}
			sum, err := vn.Add(cv)
			if err != nil {
				return false
			}
			rn, rd = sum, vd
		}
		if !compareRational(ln, ld, a.op, rn, rd) {
			return false
		}
	}
	return true
}

// compareRational evaluates (ln/ld) θ (rn/rd) with positive denominators.
func compareRational(ln decimal.D, ld int64, op predicate.Op, rn decimal.D, rd int64) bool {
	l, err1 := ln.Mul(rd)
	r, err2 := rn.Mul(ld)
	var cmp int
	if err1 != nil || err2 != nil {
		lf, rf := ln.Float()/float64(ld), rn.Float()/float64(rd)
		switch {
		case lf < rf:
			cmp = -1
		case lf > rf:
			cmp = 1
		}
	} else {
		cmp = l.Cmp(r)
	}
	switch op {
	case predicate.Eq:
		return cmp == 0
	case predicate.Lt:
		return cmp < 0
	case predicate.Le:
		return cmp <= 0
	case predicate.Gt:
		return cmp > 0
	case predicate.Ge:
		return cmp >= 0
	}
	return false
}

// formatRatio renders num/den exactly when the quotient has at most
// decimal.MaxScale decimal places, otherwise as a shortest float.
func formatRatio(num decimal.D, den int64) string {
	if den == 0 {
		return ""
	}
	if den < 0 {
		num, den = num.Neg(), -den
	}
	for s := num.Scale(); s <= decimal.MaxScale; s++ {
		u := num.Units(s)
		if u%den == 0 {
			return decimal.New(u/den, s).String()
		}
		if u > (1<<62)/10 || u < -(1<<62)/10 {
			break // further scaling would overflow
		}
	}
	return strconv.FormatFloat(num.Float()/float64(den), 'g', 10, 64)
}
