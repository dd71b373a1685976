package exec

import (
	"strings"
	"testing"

	"streamshare/internal/decimal"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// What follows, down to evalCond, is the return-clause interpreter this
// package shipped before Restructure compiled its clause into a template:
// it walks the wxquery AST per item, resolves variables by name, deep-copies
// every input subtree it outputs and passes text as name-less sentinel
// elements. It stays here as the reference the template is compared with.

// refProcess is the old Restructure.Process.
func refProcess(r *Restructure, item *xmlstream.Element) []*xmlstream.Element {
	out := evalExpr(r.Return, &binding{r: r, item: item})
	res := make([]*xmlstream.Element, 0, len(out))
	for _, e := range out {
		if e.Name == "" {
			res = append(res, xmlstream.T("value", e.Text))
			continue
		}
		res = append(res, e)
	}
	return res
}

// binding resolves variable references during return-clause evaluation.
type binding struct {
	r    *Restructure
	item *xmlstream.Element
}

// resolve returns the elements a variable path denotes. Text results (e.g.
// aggregate values) are returned as name-less text sentinels.
func (b *binding) resolve(vp wxquery.VarPath) []*xmlstream.Element {
	switch b.r.Mode {
	case ModeAggregates:
		for i, lb := range b.r.Lets {
			if lb.Var == vp.Var {
				v, ok := b.aggText(i, &lb.Spec)
				if !ok {
					return nil
				}
				return []*xmlstream.Element{{Text: v}}
			}
		}
		return nil
	case ModeWindows:
		if vp.Var != b.r.ForVar {
			return nil
		}
		// The window element's item children are the window contents.
		var out []*xmlstream.Element
		for _, c := range b.item.Children {
			if c.Name == aggWinField || c.Name == aggWMField {
				continue
			}
			if len(vp.Path) == 0 {
				out = append(out, c.Clone())
				continue
			}
			for _, m := range c.AppendFind(nil, vp.Path) {
				out = append(out, m.Clone())
			}
		}
		return out
	default:
		if vp.Var != b.r.ForVar {
			return nil
		}
		if len(vp.Path) == 0 {
			return []*xmlstream.Element{b.item.Clone()}
		}
		var out []*xmlstream.Element
		for _, m := range b.item.AppendFind(nil, vp.Path) {
			out = append(out, m.Clone())
		}
		return out
	}
}

// aggText renders the final value of aggregate group i. avg values are
// finalized here as sum/count (§3.3: the division happens at the super-peer
// where the subscription is registered).
func (b *binding) aggText(i int, spec *AggSpec) (string, bool) {
	num, den, ok := aggValue(b.item, i, spec.Op, spec.UDF != "")
	if !ok {
		return "", false
	}
	if den == 1 {
		return num.String(), true
	}
	return formatRatio(num, den), true
}

// value resolves a variable path to an exact rational for condition
// evaluation.
func (b *binding) value(vp wxquery.VarPath) (decimal.D, int64, bool) {
	switch b.r.Mode {
	case ModeAggregates:
		for i, lb := range b.r.Lets {
			if lb.Var == vp.Var {
				return aggValue(b.item, i, lb.Spec.Op, lb.Spec.UDF != "")
			}
		}
		return decimal.D{}, 0, false
	default:
		if vp.Var != b.r.ForVar {
			return decimal.D{}, 0, false
		}
		d, ok := b.item.Decimal(vp.Path)
		if !ok {
			return decimal.D{}, 0, false
		}
		return d, 1, true
	}
}

// evalExpr evaluates a return-clause expression under a binding.
func evalExpr(e wxquery.Expr, b *binding) []*xmlstream.Element {
	switch x := e.(type) {
	case *wxquery.ElemCtor:
		return []*xmlstream.Element{evalCtor(x, b)}
	case *wxquery.Output:
		return b.resolve(x.Ref)
	case *wxquery.Sequence:
		var out []*xmlstream.Element
		for _, it := range x.Items {
			out = append(out, evalExpr(it, b)...)
		}
		return out
	case *wxquery.IfExpr:
		if evalCond(&x.Cond, b) {
			return evalExpr(x.Then, b)
		}
		return evalExpr(x.Else, b)
	default:
		// Nested FLWR is rejected by the properties builder; an unreachable
		// expression contributes nothing.
		return nil
	}
}

func evalCtor(c *wxquery.ElemCtor, b *binding) *xmlstream.Element {
	e := &xmlstream.Element{Name: c.Tag}
	var text strings.Builder
	for _, content := range c.Content {
		for _, r := range evalExpr(content, b) {
			if r.Name == "" {
				text.WriteString(r.Text)
				continue
			}
			e.Children = append(e.Children, r)
		}
	}
	if len(e.Children) == 0 {
		e.Text = text.String()
	}
	return e
}

// evalCond evaluates a conjunction with exact rational comparisons.
func evalCond(c *wxquery.Condition, b *binding) bool {
	for _, a := range c.Atoms {
		ln, ld, ok := b.value(a.Left)
		if !ok {
			return false
		}
		rn, rd := a.Const, int64(1)
		if a.Right != nil {
			vn, vd, ok := b.value(*a.Right)
			if !ok {
				return false
			}
			// v + const with a rational v: (vn + c·vd) / vd.
			cv, err := a.Const.Mul(vd)
			if err != nil {
				return false
			}
			sum, err := vn.Add(cv)
			if err != nil {
				return false
			}
			rn, rd = sum, vd
		}
		if !compareRational(ln, ld, a.Op, rn, rd) {
			return false
		}
	}
	return true
}

// oddPhotons are items the generators never produce: a repeated leaf, a
// missing one, padded and non-numeric text, a repeated interior node.
func oddPhotons() []*xmlstream.Element {
	two := photon("130.0", "-46.0", "5", "1.5", "3000")
	two.Children = append(two.Children, xmlstream.T("en", "2.5"), two.Children[0].Clone())
	noEn := photon("131.0", "-45.0", "6", "0", "3001")
	noEn.Children = append(noEn.Children[:2], noEn.Children[3:]...)
	return []*xmlstream.Element{
		two, noEn,
		photon(" 132.0 ", "-44.0", "7", " 1.4\n", "3002"),
		photon("133.0", "-43.0", "8", "n/a", "3003"),
	}
}

// restructureShapes covers every return-clause form wxquery parses, in
// each of the three binding modes.
var restructureShapes = []struct{ name, src string }{
	{"items/ctor of paths", q1src},
	{"items/whole item", `<r>{ for $p in stream("photons")/photons/photon return <o>{ $p }</o> }</r>`},
	{"items/bare output", `<r>{ for $p in stream("photons")/photons/photon return $p/coord/cel }</r>`},
	{"items/bare item", `<r>{ for $p in stream("photons")/photons/photon return $p }</r>`},
	{"items/sequence", `<r>{ for $p in stream("photons")/photons/photon return ($p/en, <mark/>, <c>{ $p/coord/cel/ra }</c>, $p/coord) }</r>`},
	{"items/nested ctor", `<r>{ for $p in stream("photons")/photons/photon return <a><b>{ $p/en }{ $p/phc }</b><e/>{ $p/coord }</a> }</r>`},
	{"items/if", `<r>{ for $p in stream("photons")/photons/photon return if $p/en >= 1.3 then <hot>{ $p/en }</hot> else <cold>{ $p/phc }</cold> }</r>`},
	{"items/if two operands", `<r>{ for $p in stream("photons")/photons/photon return <o>{ if $p/coord/cel/ra >= $p/det_time + 100 then ($p/en, $p/phc) else <none/> }</o> }</r>`},
	{"aggregates/text ctor", q3src},
	{"aggregates/filtered", q4src},
	{"aggregates/two values concatenate", `<r>{ for $w in stream("photons")/photons/photon |count 4 step 2| let $a := avg($w/en) let $c := count($w/en) return <o>{ $a }{ $c }</o> }</r>`},
	{"aggregates/text beside elements", `<r>{ for $w in stream("photons")/photons/photon |count 4| let $a := sum($w/en) let $m := max($w/en) return <o>{ $a }<m>{ $m }</m></o> }</r>`},
	{"aggregates/bare value", `<r>{ for $w in stream("photons")/photons/photon |count 5| let $a := min($w/en) return $a }</r>`},
	{"aggregates/sequence", `<r>{ for $w in stream("photons")/photons/photon |count 5| let $a := avg($w/en) let $c := count($w/phc) return ($a, <sep/>, $c) }</r>`},
	{"aggregates/if", `<r>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 10| let $a := avg($w/en) let $m := max($w/en) return if $m >= $a + 0.5 then <wide>{ $m }</wide> else <flat>{ $a }</flat> }</r>`},
	{"windows/paths", `<r>{ for $w in stream("photons")/photons/photon |count 3| return <batch>{ $w/en }{ $w/coord/cel }</batch> }</r>`},
	{"windows/whole items", `<r>{ for $w in stream("photons")/photons/photon |count 4 step 2| return <batch>{ $w }</batch> }</r>`},
	{"windows/bare", `<r>{ for $w in stream("photons")/photons/photon |det_time diff 10 step 10| return $w/phc }</r>`},
}

// sameAsReference runs rs and the reference interpreter over inputs and
// fails unless they build equal trees of equal canonical size, and unless
// rs counts, building nothing, as many results as the reference builds.
func sameAsReference(t *testing.T, rs *Restructure, inputs []*xmlstream.Element) {
	t.Helper()
	for i, in := range inputs {
		got, want := process1(rs, in), refProcess(rs, in)
		if len(got) != len(want) {
			t.Fatalf("input %d %s: %d results, reference %d", i, xmlstream.Marshal(in), len(got), len(want))
		}
		if n := rs.count([]*xmlstream.Element{in}); n != len(want) {
			t.Fatalf("input %d %s: counted %d results, reference %d", i, xmlstream.Marshal(in), n, len(want))
		}
		for k := range got {
			if !got[k].Equal(want[k]) || got[k].ByteSize() != want[k].ByteSize() {
				t.Fatalf("input %d %s, result %d:\n got  %s\n want %s", i, xmlstream.Marshal(in), k, xmlstream.Marshal(got[k]), xmlstream.Marshal(want[k]))
			}
		}
	}
}

func TestRestructureMatchesReference(t *testing.T) {
	items := append(randomPhotons(400, 23), oddPhotons()...)
	for _, sh := range restructureShapes {
		t.Run(sh.name, func(t *testing.T) {
			q, p := mustProps(t, sh.src)
			in, _ := p.SingleInput()
			rs, err := RestructureFor(q, in)
			if err != nil {
				t.Fatal(err)
			}
			if want := strings.SplitN(sh.name, "/", 2)[0]; []string{"items", "aggregates", "windows"}[rs.Mode] != want {
				t.Fatalf("mode %d, shape is filed under %s", rs.Mode, want)
			}
			inputs := CanonicalPipeline(in, nil).Run(items)
			if len(inputs) == 0 {
				t.Fatal("the canonical stream is empty")
			}
			sameAsReference(t, rs, inputs)
		})
	}
}

// TestRestructureUnboundMatchesReference covers what no accepted query
// reaches but the operator's constructor allows: references to variables
// the FLWR does not bind, a conditional without else, no return clause.
func TestRestructureUnboundMatchesReference(t *testing.T) {
	ref := func(v, path string) wxquery.VarPath {
		return wxquery.VarPath{Var: v, Path: xmlstream.ParsePath(path)}
	}
	en, one := ref("p", "en"), decimal.MustParse("1")
	exprs := []wxquery.Expr{
		nil,
		&wxquery.Output{Ref: ref("nope", "en")},
		&wxquery.ElemCtor{Tag: "o", Content: []wxquery.Expr{&wxquery.Output{Ref: ref("nope", "")}, &wxquery.Output{Ref: en}}},
		&wxquery.IfExpr{Cond: wxquery.Condition{Atoms: []wxquery.CondAtom{{Left: en, Op: 0, Const: one}}}, Then: &wxquery.Output{Ref: en}},
		&wxquery.IfExpr{
			Cond: wxquery.Condition{Atoms: []wxquery.CondAtom{{Left: ref("nope", "en"), Const: one}}},
			Then: &wxquery.ElemCtor{Tag: "then"}, Else: &wxquery.ElemCtor{Tag: "else"},
		},
		&wxquery.IfExpr{
			Cond: wxquery.Condition{Atoms: []wxquery.CondAtom{{Left: en, Right: &wxquery.VarPath{Var: "nope"}, Const: one}}},
			Then: &wxquery.ElemCtor{Tag: "then"}, Else: &wxquery.ElemCtor{Tag: "else"},
		},
		&wxquery.FLWR{},
	}
	items := append(randomPhotons(20, 5), oddPhotons()...)
	win := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("4"), Step: dec("4")}
	spec := AggSpec{Op: wxquery.AggAvg, Elem: xmlstream.ParsePath("en")}
	for _, e := range exprs {
		sameAsReference(t, NewRestructure(ModeItems, "p", nil, e), items)
		sameAsReference(t, NewRestructure(ModeWindows, "p", nil, e), NewPipeline(NewWindowContents(win)).Run(items))
		sameAsReference(t, NewRestructure(ModeAggregates, "", []LetBinding{{Var: "p", Spec: spec}}, e),
			NewPipeline(NewWindowAgg(win, []AggSpec{spec}, nil)).Run(items))
	}
}
