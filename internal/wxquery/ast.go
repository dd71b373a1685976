// Package wxquery implements Windowed XQuery (WXQuery), the paper's
// XQuery-based subscription language for continuous queries over XML data
// streams (Definition 2.1): element constructors, FLWR expressions with the
// stream() input function, path predicates, item- and time-based data
// windows |… count/diff ∆ step µ …|, window-based aggregation via let
// clauses, conditionals, and sequences.
//
// The package provides the AST and a parser; compilation to stream
// properties lives in package properties and to executable operator
// pipelines in package exec.
package wxquery

import (
	"fmt"
	"strings"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/xmlstream"
)

// AggOp enumerates the window-based aggregation operators Φ.
type AggOp int

// Aggregation operators. The paper classifies min, max, sum, count as
// distributive and avg as algebraic; holistic aggregates are out of scope.
const (
	AggMin AggOp = iota
	AggMax
	AggSum
	AggCount
	AggAvg
)

var aggNames = map[string]AggOp{
	"min": AggMin, "max": AggMax, "sum": AggSum, "count": AggCount, "avg": AggAvg,
}

// ParseAggOp maps an aggregation function name to its operator.
func ParseAggOp(name string) (AggOp, bool) {
	op, ok := aggNames[name]
	return op, ok
}

// String returns the WXQuery function name of the operator.
func (a AggOp) String() string {
	switch a {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	}
	return fmt.Sprintf("AggOp(%d)", int(a))
}

// WindowKind distinguishes item-based (count) and time-based (diff) windows.
type WindowKind int

// Window kinds.
const (
	WindowCount WindowKind = iota
	WindowDiff
)

// Window is a data-window specification |count ∆ step µ| or
// |ref diff ∆ step µ| (§2). Step defaults to Size when omitted.
type Window struct {
	Kind WindowKind
	// Ref is the ordered reference element controlling a time-based window.
	Ref xmlstream.Path
	// Size is ∆: the item count (count) or reference-value span (diff).
	Size decimal.D
	// Step is µ: the update interval, in items (count) or reference units
	// (diff).
	Step decimal.D
}

// String renders the window in WXQuery syntax.
func (w *Window) String() string {
	var b strings.Builder
	b.WriteByte('|')
	if w.Kind == WindowCount {
		b.WriteString("count ")
	} else {
		b.WriteString(w.Ref.String())
		b.WriteString(" diff ")
	}
	b.WriteString(w.Size.String())
	if w.Step.Cmp(w.Size) != 0 {
		b.WriteString(" step ")
		b.WriteString(w.Step.String())
	}
	b.WriteByte('|')
	return b.String()
}

// Equal reports structural equality of two window specs.
func (w *Window) Equal(o *Window) bool {
	if w == nil || o == nil {
		return w == o
	}
	return w.Kind == o.Kind && w.Ref.Equal(o.Ref) &&
		w.Size.Cmp(o.Size) == 0 && w.Step.Cmp(o.Step) == 0
}

// VarPath is a variable reference with an optional relative path, e.g.
// $p/coord/cel/ra. In path conditions ("[…]") Var is empty and the path is
// relative to the context item.
type VarPath struct {
	Var  string
	Path xmlstream.Path
}

// String renders the reference in WXQuery syntax.
func (v VarPath) String() string {
	if v.Var == "" {
		return v.Path.String()
	}
	if len(v.Path) == 0 {
		return "$" + v.Var
	}
	return "$" + v.Var + "/" + v.Path.String()
}

// CondAtom is one atomic predicate $v θ c or $v θ $w + c (§2).
type CondAtom struct {
	Left  VarPath
	Op    predicate.Op
	Right *VarPath // nil for a constant comparison
	Const decimal.D
}

// String renders the atom in WXQuery syntax.
func (a CondAtom) String() string {
	if a.Right == nil {
		return fmt.Sprintf("%s %s %s", a.Left, a.Op, a.Const)
	}
	if a.Const.IsZero() {
		return fmt.Sprintf("%s %s %s", a.Left, a.Op, a.Right)
	}
	return fmt.Sprintf("%s %s %s + %s", a.Left, a.Op, a.Right, a.Const)
}

// Condition is a conjunction of atomic predicates.
type Condition struct {
	Atoms []CondAtom
}

// String renders the conjunction in WXQuery syntax.
func (c *Condition) String() string {
	parts := make([]string, len(c.Atoms))
	for i, a := range c.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " and ")
}

// PathStep is one segment of a source path, optionally carrying a path
// condition "[p]" (π̄ in the definition).
type PathStep struct {
	Name string
	Cond *Condition
}

// Source is the binding source of a for clause: either the stream() input
// function or a previously bound variable, followed by a relative path whose
// steps may carry conditions.
type Source struct {
	// Stream is the stream name when the source is stream("name"); otherwise
	// empty and Var names the referenced variable.
	Stream string
	Var    string
	Steps  []PathStep
}

// Path returns the plain path of the source (condition-free π).
func (s Source) Path() xmlstream.Path {
	p := make(xmlstream.Path, len(s.Steps))
	for i, st := range s.Steps {
		p[i] = st.Name
	}
	return p
}

// String renders the source in WXQuery syntax.
func (s Source) String() string {
	var b strings.Builder
	if s.Stream != "" {
		// Stream names are identifier-restricted at parse time, so plain
		// quoting round-trips.
		fmt.Fprintf(&b, `stream("%s")`, s.Stream)
	} else {
		b.WriteByte('$')
		b.WriteString(s.Var)
	}
	for _, st := range s.Steps {
		b.WriteByte('/')
		b.WriteString(st.Name)
		if st.Cond != nil {
			b.WriteByte('[')
			b.WriteString(st.Cond.String())
			b.WriteByte(']')
		}
	}
	return b.String()
}

// Clause is a for or let clause of a FLWR expression.
type Clause interface {
	clause()
	String() string
}

// ForClause binds Var to the items produced by Source, optionally grouped
// into data windows.
type ForClause struct {
	Var    string
	Source Source
	Window *Window
}

func (*ForClause) clause() {}

// String renders the clause in WXQuery syntax.
func (c *ForClause) String() string {
	s := fmt.Sprintf("for $%s in %s", c.Var, c.Source)
	if c.Window != nil {
		s += " " + c.Window.String()
	}
	return s
}

// LetClause binds Var to an aggregate over the contents of a window
// variable: let $a := avg($w/en). A non-builtin function name is treated as
// an unknown (user-defined) operator per Algorithm 2's fourth case; it must
// be deterministic.
type LetClause struct {
	Var string
	// Agg is the aggregation operator when builtin.
	Agg AggOp
	// UDF is the function name when not one of the builtin aggregates.
	UDF string
	// Of is the aggregated element: window variable plus relative path.
	Of VarPath
	// ExtraArgs holds additional constant arguments of a UDF call; together
	// with Of they form the operator's input vector.
	ExtraArgs []decimal.D
}

func (*LetClause) clause() {}

// String renders the clause in WXQuery syntax.
func (c *LetClause) String() string {
	name := c.Agg.String()
	if c.UDF != "" {
		name = c.UDF
	}
	var args []string
	args = append(args, c.Of.String())
	for _, a := range c.ExtraArgs {
		args = append(args, a.String())
	}
	return fmt.Sprintf("let $%s := %s(%s)", c.Var, name, strings.Join(args, ", "))
}

// Expr is any WXQuery expression (α in Definition 2.1).
type Expr interface {
	expr()
	String() string
}

// ElemCtor is a direct element constructor <t>…</t> or <t/> (expressions 1
// and 2). Content entries are nested constructors or enclosed expressions.
type ElemCtor struct {
	Tag     string
	Content []Expr
}

func (*ElemCtor) expr() {}

// String renders the constructor in WXQuery syntax.
func (e *ElemCtor) String() string {
	if len(e.Content) == 0 {
		return "<" + e.Tag + "/>"
	}
	var b strings.Builder
	b.WriteByte('<')
	b.WriteString(e.Tag)
	b.WriteByte('>')
	for _, c := range e.Content {
		if _, ok := c.(*ElemCtor); ok {
			b.WriteString(c.String())
		} else {
			b.WriteString(" { ")
			b.WriteString(c.String())
			b.WriteString(" } ")
		}
	}
	b.WriteString("</")
	b.WriteString(e.Tag)
	b.WriteByte('>')
	return b.String()
}

// FLWR is a for/let-where-return expression (expression 3).
type FLWR struct {
	Clauses []Clause
	Where   *Condition
	Return  Expr
}

func (*FLWR) expr() {}

// String renders the expression in WXQuery syntax.
func (f *FLWR) String() string {
	var b strings.Builder
	for i, c := range f.Clauses {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	if f.Where != nil {
		b.WriteString(" where ")
		b.WriteString(f.Where.String())
	}
	b.WriteString(" return ")
	b.WriteString(f.Return.String())
	return b.String()
}

// IfExpr is a conditional expression (expression 4).
type IfExpr struct {
	Cond Condition
	Then Expr
	Else Expr
}

func (*IfExpr) expr() {}

// String renders the conditional in WXQuery syntax.
func (e *IfExpr) String() string {
	return fmt.Sprintf("if %s then %s else %s", e.Cond.String(), e.Then, e.Else)
}

// Output emits the subtree(s) reachable from a variable through a path
// (expressions 5 and 6; a zero-length path outputs the variable itself).
type Output struct {
	Ref VarPath
}

func (*Output) expr() {}

// String renders the output expression in WXQuery syntax.
func (o *Output) String() string { return o.Ref.String() }

// Sequence is a parenthesized expression sequence (expression 7).
type Sequence struct {
	Items []Expr
}

func (*Sequence) expr() {}

// String renders the sequence in WXQuery syntax.
func (s *Sequence) String() string {
	parts := make([]string, len(s.Items))
	for i, e := range s.Items {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Query is a parsed WXQuery subscription: per §2 the outermost expression of
// every subscription is an element constructor wrapping the result stream.
type Query struct {
	Root *ElemCtor
	// Source is the original query text.
	Source string
}

// String renders the whole query.
func (q *Query) String() string { return q.Root.String() }
