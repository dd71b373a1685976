package exec

import (
	"fmt"
	"testing"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

func TestRemapAvgToSumLayout(t *testing.T) {
	// Fine stream layout: g0 = avg(en) carrying sum+n; subscription wants
	// g0 = sum(en) — Remap renames the group and keeps the fields the
	// restructuring step reads.
	item := xmlstream.E(AggItemName,
		xmlstream.T("win", "10"), xmlstream.T("wm", "30"),
		xmlstream.E("g0", xmlstream.T("n", "4"), xmlstream.T("sum", "6.4")),
		xmlstream.E("g1", xmlstream.T("n", "4"), xmlstream.T("max", "2.2")),
	)
	r := NewRemap(
		[]AggSpec{{Op: wxquery.AggMax, Elem: xmlstream.ParsePath("en")}},
		[]int{1},
		[]wxquery.AggOp{wxquery.AggMax},
	)
	out := process1(r, item)
	if len(out) != 1 {
		t.Fatalf("remap emitted %d", len(out))
	}
	e := out[0]
	if e.First(xmlstream.ParsePath("win")).Value() != "10" {
		t.Error("win lost")
	}
	if got := e.First(xmlstream.ParsePath("g0/max")).Value(); got != "2.2" {
		t.Errorf("remapped g0/max = %q", got)
	}
	if e.Child("g1") != nil {
		t.Error("unreferenced source group should not survive")
	}
	if r.Name() != "remap" {
		t.Errorf("name = %s", r.Name())
	}
	if flush1(r) != nil {
		t.Error("remap is stateless")
	}
}

func TestMultiAggregationWindowWithFilter(t *testing.T) {
	// One FLWR with two lets: the avg group is filtered, the count group is
	// not; both travel in one aggregate item.
	src := `<r>{ for $w in stream("photons")/photons/photon |count 4|
	  let $a := avg($w/en)
	  let $c := count($w/en)
	  where $a >= 1.0
	  return <o>{ $a }<n>{ $c }</n></o> }</r>`
	q, p := mustProps(t, src)
	in, _ := p.SingleInput()
	pl, err := FullPipeline(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	var items []*xmlstream.Element
	for i := 0; i < 16; i++ {
		items = append(items, photon("1", "1", "1", fmt.Sprintf("%d", i%4), fmt.Sprintf("%d", i)))
	}
	out := pl.Run(items)
	// Each window of 4 has en values {0,1,2,3} → avg 1.5 ≥ 1.0 passes.
	if len(out) != 4 {
		t.Fatalf("windows = %d", len(out))
	}
	for _, e := range out {
		if got := e.First(xmlstream.ParsePath("n")).Value(); got != "4" {
			t.Errorf("count = %s", got)
		}
	}
	// Tighten the filter beyond reach: everything drops.
	src2 := `<r>{ for $w in stream("photons")/photons/photon |count 4|
	  let $a := avg($w/en)
	  let $c := count($w/en)
	  where $a >= 2.0
	  return <o>{ $a }</o> }</r>`
	q2, p2 := mustProps(t, src2)
	in2, _ := p2.SingleInput()
	pl2, err := FullPipeline(q2, in2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out := pl2.Run(items); len(out) != 0 {
		t.Errorf("over-tight filter passed %d windows", len(out))
	}
}

func TestPipelineFlushChainsThroughWindows(t *testing.T) {
	// A selection upstream of a window: Flush must drain the window stage
	// through the remaining stages (here the trailing filter).
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "en", Op: predicate.Ge, Const: dec("0")})
	w := wxquery.Window{Kind: wxquery.WindowDiff, Ref: xmlstream.ParsePath("det_time"), Size: dec("10"), Step: dec("10")}
	filter := predicate.New()
	filter.AddAtom(predicate.Atom{Left: "sum(en)", Op: predicate.Ge, Const: dec("0")})
	pl := NewPipeline(
		NewSelect(g),
		NewWindowAgg(w, []AggSpec{{Op: wxquery.AggSum, Elem: xmlstream.ParsePath("en")}}, nil),
		NewAggFilter(filter, map[string]FilterGroup{"sum(en)": {Index: 0, Op: wxquery.AggSum}}),
	)
	var items []*xmlstream.Element
	for i := 0; i < 25; i++ {
		items = append(items, photon("1", "1", "1", "1", fmt.Sprintf("%d", i)))
	}
	out := pl.Run(items)
	// Windows [0,10) and [10,20) close via item arrivals; [20,30) stays
	// open at stream end (windows only emit when closed by later input).
	if len(out) != 2 {
		t.Fatalf("windows = %d", len(out))
	}
}

func TestUDFSharingIdenticalVector(t *testing.T) {
	reg := UDFRegistry{
		"first": func(vals, args []decimal.D) decimal.D {
			if len(vals) == 0 {
				return decimal.D{}
			}
			return vals[0]
		},
	}
	src := `<r>{ for $w in stream("photons")/photons/photon |count 5| let $a := first($w/en, 2) return <o>{ $a }</o> }</r>`
	items := randomPhotons(60, 23)
	direct := func() []*xmlstream.Element {
		q, p := mustProps(t, src)
		in, _ := p.SingleInput()
		pl, err := FullPipeline(q, in, reg)
		if err != nil {
			t.Fatal(err)
		}
		return pl.Run(items)
	}()
	// Share the stream for an identical UDF subscription.
	_, basep := mustProps(t, src)
	subq, subp := mustProps(t, src)
	basein, _ := basep.Result().SingleInput()
	subin, _ := subp.SingleInput()
	res, err := ResidualPipeline(basein, subin, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 0 {
		t.Fatalf("identical UDF residual should be empty, got %d ops", len(res.Ops))
	}
	canon := CanonicalPipeline(basein, reg)
	rs, err := RestructureFor(subq, subin)
	if err != nil {
		t.Fatal(err)
	}
	via := NewPipeline(append(canon.Ops, rs)...).Run(items)
	if len(via) != len(direct) {
		t.Fatalf("direct %d vs shared %d", len(direct), len(via))
	}
	for i := range direct {
		if !direct[i].Equal(via[i]) {
			t.Fatalf("item %d differs", i)
		}
	}
	// Mismatched constant arguments must not find a serving group.
	other := `<r>{ for $w in stream("photons")/photons/photon |count 5| let $a := first($w/en, 3) return <o>{ $a }</o> }</r>`
	_, otherp := mustProps(t, other)
	otherin, _ := otherp.SingleInput()
	if _, err := ResidualPipeline(basein, otherin, reg); err == nil {
		t.Error("different UDF args should have no serving group")
	}
}

func TestRestructureConditionalOnAggregate(t *testing.T) {
	src := `<r>{ for $w in stream("photons")/photons/photon |count 3|
	  let $a := avg($w/en)
	  return if $a >= 1.5 then <hi>{ $a }</hi> else <lo>{ $a }</lo> }</r>`
	q, p := mustProps(t, src)
	in, _ := p.SingleInput()
	pl, err := FullPipeline(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	var items []*xmlstream.Element
	for _, en := range []string{"1", "1", "1", "2", "2", "2"} {
		items = append(items, photon("1", "1", "1", en, "1"))
	}
	out := pl.Run(items)
	if len(out) != 2 {
		t.Fatalf("windows = %d", len(out))
	}
	if out[0].Name != "lo" || out[1].Name != "hi" {
		t.Errorf("conditional routing = %s, %s", out[0].Name, out[1].Name)
	}
	if out[1].Value() != "2" {
		t.Errorf("hi value = %s", out[1].Value())
	}
}

func TestOperatorNames(t *testing.T) {
	want := map[Operator]string{
		NewSelect(predicate.New()): "select",
		NewProject(nil):            "project",
		NewWindowContents(wxquery.Window{Kind: wxquery.WindowCount, Size: dec("1"), Step: dec("1")}): "window-contents",
		NewAggFilter(predicate.New(), nil):         "agg-filter",
		NewSortBuffer(xmlstream.ParsePath("t"), 1): "sort-buffer",
		NewRestructure(ModeItems, "p", nil, nil):   "restructure",
	}
	for op, name := range want {
		if op.Name() != name {
			t.Errorf("Name = %s, want %s", op.Name(), name)
		}
	}
}

func TestSelectNilSafePaths(t *testing.T) {
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "en", Op: predicate.Ge, Const: dec("1")})
	s := NewSelect(g)
	if out := process1(s, xmlstream.E("empty")); out != nil {
		t.Error("item without the predicate path must be dropped")
	}
	if out := process1(s, xmlstream.E("x", xmlstream.T("en", "junk"))); out != nil {
		t.Error("non-numeric value must be dropped")
	}
}

func TestCompareRationalAllOps(t *testing.T) {
	cases := []struct {
		ln   string
		ld   int64
		op   predicate.Op
		rn   string
		rd   int64
		want bool
	}{
		{"13", 10, predicate.Ge, "1.3", 1, true},  // 1.3 ≥ 1.3
		{"13", 10, predicate.Gt, "1.3", 1, false}, // 1.3 > 1.3
		{"13", 10, predicate.Eq, "26", 20, true},  // 1.3 = 1.3 cross-denominator
		{"13", 10, predicate.Le, "1.31", 1, true}, // 1.3 ≤ 1.31
		{"13", 10, predicate.Lt, "1.3", 1, false}, // 1.3 < 1.3
		{"-5", 2, predicate.Lt, "0", 1, true},     // -2.5 < 0
		{"7", 3, predicate.Gt, "2.33", 1, true},   // 7/3 > 2.33
		{"7", 3, predicate.Lt, "2.34", 1, true},   // 7/3 < 2.34
		{"1", 1, predicate.Eq, "1.0000001", 1, false},
	}
	for _, c := range cases {
		got := compareRational(dec(c.ln), c.ld, c.op, dec(c.rn), c.rd)
		if got != c.want {
			t.Errorf("(%s/%d) %s (%s/%d) = %v, want %v", c.ln, c.ld, c.op, c.rn, c.rd, got, c.want)
		}
	}
}

func TestRestructureConditionalVarVsVar(t *testing.T) {
	src := `<r>{ for $p in stream("s")/r/i
	  return if $p/x >= $p/y + 1 then <gt/> else <le/> }</r>`
	q, p := mustProps(t, src)
	in, _ := p.SingleInput()
	rs, err := RestructureFor(q, in)
	if err != nil {
		t.Fatal(err)
	}
	gt := process1(rs, xmlstream.E("i", xmlstream.T("x", "5"), xmlstream.T("y", "3")))
	if len(gt) != 1 || gt[0].Name != "gt" {
		t.Fatalf("5 >= 3+1: %v", gt)
	}
	le := process1(rs, xmlstream.E("i", xmlstream.T("x", "3.9"), xmlstream.T("y", "3")))
	if len(le) != 1 || le[0].Name != "le" {
		t.Fatalf("3.9 >= 4: %v", le)
	}
	// Missing condition value routes to else.
	missing := process1(rs, xmlstream.E("i", xmlstream.T("x", "5")))
	if len(missing) != 1 || missing[0].Name != "le" {
		t.Fatalf("missing y: %v", missing)
	}
}

func TestProjectDropsEmptyItems(t *testing.T) {
	p := NewProject([]xmlstream.Path{xmlstream.ParsePath("nope")})
	if out := process1(p, photon("1", "1", "1", "1", "1")); out != nil {
		t.Error("projection with no matching paths should drop the item")
	}
}
