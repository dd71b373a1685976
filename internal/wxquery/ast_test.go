package wxquery

import (
	"testing"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/xmlstream"
)

func dec(s string) decimal.D { return decimal.MustParse(s) }

func TestAggOpStrings(t *testing.T) {
	cases := map[AggOp]string{
		AggMin: "min", AggMax: "max", AggSum: "sum", AggCount: "count", AggAvg: "avg",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%v.String() = %s", op, op.String())
		}
		back, ok := ParseAggOp(want)
		if !ok || back != op {
			t.Errorf("ParseAggOp(%s) = %v, %v", want, back, ok)
		}
	}
	if _, ok := ParseAggOp("median"); ok {
		t.Error("median is not a builtin aggregate")
	}
}

func TestWindowStringAndEqual(t *testing.T) {
	count := &Window{Kind: WindowCount, Size: dec("20"), Step: dec("10")}
	if count.String() != "|count 20 step 10|" {
		t.Errorf("count window = %s", count)
	}
	diff := &Window{Kind: WindowDiff, Ref: xmlstream.ParsePath("det_time"), Size: dec("60"), Step: dec("60")}
	if diff.String() != "|det_time diff 60|" {
		t.Errorf("diff window = %s", diff)
	}
	if count.Equal(diff) {
		t.Error("different kinds must not be equal")
	}
	same := &Window{Kind: WindowCount, Size: dec("20"), Step: dec("10")}
	if !count.Equal(same) {
		t.Error("identical windows must be equal")
	}
	var nilW *Window
	if nilW.Equal(count) || !nilW.Equal(nil) {
		t.Error("nil window comparisons broken")
	}
}

func TestVarPathString(t *testing.T) {
	cases := []struct {
		vp   VarPath
		want string
	}{
		{VarPath{Var: "p"}, "$p"},
		{VarPath{Var: "p", Path: xmlstream.ParsePath("coord/cel/ra")}, "$p/coord/cel/ra"},
		{VarPath{Path: xmlstream.ParsePath("en")}, "en"},
	}
	for _, c := range cases {
		if got := c.vp.String(); got != c.want {
			t.Errorf("VarPath = %q, want %q", got, c.want)
		}
	}
}

func TestCondAtomString(t *testing.T) {
	a := CondAtom{Left: VarPath{Var: "p", Path: xmlstream.ParsePath("en")}, Op: predicate.Ge, Const: dec("1.3")}
	if a.String() != "$p/en >= 1.3" {
		t.Errorf("atom = %q", a.String())
	}
	right := VarPath{Var: "p", Path: xmlstream.ParsePath("phc")}
	b := CondAtom{Left: VarPath{Var: "p", Path: xmlstream.ParsePath("en")}, Op: predicate.Lt, Right: &right, Const: dec("2")}
	if b.String() != "$p/en < $p/phc + 2" {
		t.Errorf("atom = %q", b.String())
	}
	c := CondAtom{Left: VarPath{Var: "x"}, Op: predicate.Eq, Right: &right}
	if c.String() != "$x = $p/phc" {
		t.Errorf("atom = %q", c.String())
	}
}

func TestSourceString(t *testing.T) {
	s := Source{Stream: "photons", Steps: []PathStep{{Name: "photons"}, {Name: "photon"}}}
	if s.String() != `stream("photons")/photons/photon` {
		t.Errorf("source = %q", s.String())
	}
	cond := &Condition{Atoms: []CondAtom{{Left: VarPath{Path: xmlstream.ParsePath("en")}, Op: predicate.Ge, Const: dec("1")}}}
	s2 := Source{Var: "x", Steps: []PathStep{{Name: "i", Cond: cond}}}
	if s2.String() != "$x/i[en >= 1]" {
		t.Errorf("source = %q", s2.String())
	}
	if got := s.Path().String(); got != "photons/photon" {
		t.Errorf("path = %s", got)
	}
}

func TestExprStrings(t *testing.T) {
	empty := &ElemCtor{Tag: "x"}
	if empty.String() != "<x/>" {
		t.Errorf("empty ctor = %q", empty.String())
	}
	seq := &Sequence{Items: []Expr{&Output{Ref: VarPath{Var: "a"}}, &Output{Ref: VarPath{Var: "b"}}}}
	if seq.String() != "($a, $b)" {
		t.Errorf("sequence = %q", seq.String())
	}
	ife := &IfExpr{
		Cond: Condition{Atoms: []CondAtom{{Left: VarPath{Var: "a"}, Op: predicate.Gt, Const: dec("0")}}},
		Then: &Output{Ref: VarPath{Var: "a"}},
		Else: &ElemCtor{Tag: "none"},
	}
	if ife.String() != "if $a > 0 then $a else <none/>" {
		t.Errorf("if = %q", ife.String())
	}
	lc := &LetClause{Var: "s", UDF: "smooth", Of: VarPath{Var: "w", Path: xmlstream.ParsePath("en")}, ExtraArgs: []decimal.D{dec("3")}}
	if lc.String() != "let $s := smooth($w/en, 3)" {
		t.Errorf("let = %q", lc.String())
	}
	fc := &ForClause{Var: "w", Source: Source{Stream: "s"}, Window: &Window{Kind: WindowCount, Size: dec("5"), Step: dec("5")}}
	if fc.String() != `for $w in stream("s") |count 5|` {
		t.Errorf("for = %q", fc.String())
	}
}

// TestDecimalWindowSizes: diff windows accept fractional sizes and steps.
func TestDecimalWindowSizes(t *testing.T) {
	q := MustParse(`<r>{ for $w in stream("s")/r/i |t diff 1.5 step 0.5| let $a := sum($w/x) return <o>{ $a }</o> }</r>`)
	f := q.Root.Content[0].(*FLWR)
	w := f.Clauses[0].(*ForClause).Window
	if w.Size.String() != "1.5" || w.Step.String() != "0.5" {
		t.Errorf("window = %s", w)
	}
}
