package exec

import (
	"fmt"
	"testing"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

func dec(s string) decimal.D { return decimal.MustParse(s) }

func photon(ra, dec, phc, en, det string) *xmlstream.Element {
	return xmlstream.E("photon",
		xmlstream.E("coord",
			xmlstream.E("cel", xmlstream.T("ra", ra), xmlstream.T("dec", dec)),
			xmlstream.E("det", xmlstream.T("dx", "1"), xmlstream.T("dy", "2")),
		),
		xmlstream.T("phc", phc),
		xmlstream.T("en", en),
		xmlstream.T("det_time", det),
	)
}

func velaGraph() *predicate.Graph {
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "coord/cel/ra", Op: predicate.Ge, Const: dec("120.0")})
	g.AddAtom(predicate.Atom{Left: "coord/cel/ra", Op: predicate.Le, Const: dec("138.0")})
	g.AddAtom(predicate.Atom{Left: "coord/cel/dec", Op: predicate.Ge, Const: dec("-49.0")})
	g.AddAtom(predicate.Atom{Left: "coord/cel/dec", Op: predicate.Le, Const: dec("-40.0")})
	return g
}

func TestSelect(t *testing.T) {
	s := NewSelect(velaGraph())
	in := photon("130.0", "-46.0", "5", "1.5", "10")
	if got := process1(s, in); len(got) != 1 {
		t.Error("in-box photon should pass")
	}
	out := photon("150.0", "-46.0", "5", "1.5", "10")
	if got := process1(s, out); len(got) != 0 {
		t.Error("out-of-box photon should be dropped")
	}
	// Boundary values are inclusive for ≥/≤.
	if got := process1(s, photon("120.0", "-49.0", "5", "1.5", "10")); len(got) != 1 {
		t.Error("boundary photon should pass")
	}
	// Missing referenced element fails.
	bare := xmlstream.E("photon", xmlstream.T("en", "1.5"))
	if got := process1(s, bare); len(got) != 0 {
		t.Error("photon without coordinates must fail the predicate")
	}
}

func TestSelectStrictAndVarVsVar(t *testing.T) {
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "en", Op: predicate.Lt, Const: dec("1.5")})
	s := NewSelect(g)
	if len(process1(s, photon("1", "1", "1", "1.5", "1"))) != 0 {
		t.Error("en < 1.5 must drop en = 1.5")
	}
	if len(process1(s, photon("1", "1", "1", "1.4", "1"))) != 1 {
		t.Error("en < 1.5 must keep en = 1.4")
	}

	vv := predicate.New()
	vv.AddAtom(predicate.Atom{Left: "phc", Op: predicate.Le, RightVar: "en", Const: dec("2")})
	sv := NewSelect(vv)
	if len(process1(sv, photon("1", "1", "3", "1.5", "1"))) != 1 {
		t.Error("phc ≤ en + 2: 3 ≤ 3.5 should pass")
	}
	if len(process1(sv, photon("1", "1", "4", "1.5", "1"))) != 0 {
		t.Error("phc ≤ en + 2: 4 > 3.5 should fail")
	}
}

func TestProject(t *testing.T) {
	p := NewProject([]xmlstream.Path{xmlstream.ParsePath("coord/cel/ra"), xmlstream.ParsePath("en")})
	out := process1(p, photon("130", "-46", "5", "1.5", "10"))
	if len(out) != 1 {
		t.Fatal("projection dropped item")
	}
	if out[0].First(xmlstream.ParsePath("phc")) != nil {
		t.Error("phc survived projection")
	}
	if out[0].First(xmlstream.ParsePath("coord/cel/ra")).Value() != "130" {
		t.Error("kept path lost")
	}
}

func TestPipelineOrderAndFlush(t *testing.T) {
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "en", Op: predicate.Ge, Const: dec("1")})
	win := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("2"), Step: dec("2")}
	p := NewPipeline(NewSelect(g), NewWindowAgg(win, []AggSpec{{Op: wxquery.AggSum, Elem: xmlstream.ParsePath("en")}}, nil))
	var items []*xmlstream.Element
	for i := 0; i < 5; i++ {
		items = append(items, photon("1", "1", "1", fmt.Sprintf("%d", i), "1"))
	}
	// en values 0..4; selection keeps 1,2,3,4; windows of 2: (1,2)=3, (3,4)=7.
	out := p.Run(items)
	if len(out) != 2 {
		t.Fatalf("out = %d items", len(out))
	}
	sums := []string{
		out[0].First(xmlstream.ParsePath("g0/sum")).Value(),
		out[1].First(xmlstream.ParsePath("g0/sum")).Value(),
	}
	if sums[0] != "3" || sums[1] != "7" {
		t.Errorf("sums = %v", sums)
	}
}

func aggItems(t *testing.T, w wxquery.Window, specs []AggSpec, items []*xmlstream.Element) []*xmlstream.Element {
	t.Helper()
	return NewPipeline(NewWindowAgg(w, specs, nil)).Run(items)
}

func TestCountWindowTumbling(t *testing.T) {
	// |count 3|: windows (0,1,2), (3,4,5), (6,7,8) close after their last
	// item; (9) closes at end of stream.
	var items []*xmlstream.Element
	for i := 0; i < 10; i++ {
		items = append(items, photon("1", "1", "1", fmt.Sprintf("%d", i), fmt.Sprintf("%d", i)))
	}
	w := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("3"), Step: dec("3")}
	out := aggItems(t, w, []AggSpec{{Op: wxquery.AggSum, Elem: xmlstream.ParsePath("en")}}, items)
	want := []aggWin{{"0", "2", "3", "3"}, {"3", "5", "3", "12"}, {"6", "8", "3", "21"}, {"9", "9", "1", "9"}}
	checkAggWindows(t, out, want)
}

// aggWin is an expected aggregate item: window start, watermark, and the
// first group's n and sum ("" for no sum).
type aggWin struct{ start, wm, n, sum string }

// checkAggWindows asserts out is exactly want, window for window.
func checkAggWindows(t *testing.T, out []*xmlstream.Element, want []aggWin) {
	t.Helper()
	if len(out) != len(want) {
		t.Fatalf("windows = %d, want %d", len(out), len(want))
	}
	for i, wnt := range want {
		var got aggWin
		for f, v := range map[string]*string{"win": &got.start, "wm": &got.wm, "g0/n": &got.n, "g0/sum": &got.sum} {
			if e := out[i].First(xmlstream.ParsePath(f)); e != nil {
				*v = e.Value()
			}
		}
		if got != wnt {
			t.Errorf("window %d = %+v, want %+v", i, got, wnt)
		}
	}
}

func TestCountWindowSliding(t *testing.T) {
	// |count 20 step 10| (the paper's §2 example): each window holds 20
	// items, updates remove the 10 oldest and add 10 new.
	var items []*xmlstream.Element
	for i := 0; i < 40; i++ {
		items = append(items, photon("1", "1", "1", "1", fmt.Sprintf("%d", i)))
	}
	w := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("20"), Step: dec("10")}
	out := aggItems(t, w, []AggSpec{{Op: wxquery.AggCount, Elem: xmlstream.ParsePath("en")}}, items)
	// Full windows [0,20), [10,30), [20,40) close after their last item;
	// [30,50) closes at end of stream holding items 30..39.
	checkAggWindows(t, out, []aggWin{{"0", "19", "20", ""}, {"10", "29", "20", ""}, {"20", "39", "20", ""}, {"30", "39", "10", ""}})
}

func TestDiffWindow(t *testing.T) {
	// det_time values 5,12,18,25,31,44 (en values 1..6) with
	// |det_time diff 20 step 10|. Windows are aligned to absolute multiples
	// of the step; each closes at the first item reaching its end:
	// [-10,10): {5}, [0,20): {5,12,18}, [10,30): {12,18,25},
	// [20,40): {25,31}. [30,50): {31,44} and [40,60): {44} close at end of
	// stream, stamped with the last reference seen.
	times := []string{"5", "12", "18", "25", "31", "44"}
	var items []*xmlstream.Element
	for i, dt := range times {
		items = append(items, photon("1", "1", "1", fmt.Sprintf("%d", i+1), dt))
	}
	w := wxquery.Window{Kind: wxquery.WindowDiff, Ref: xmlstream.ParsePath("det_time"), Size: dec("20"), Step: dec("10")}
	out := aggItems(t, w, []AggSpec{{Op: wxquery.AggSum, Elem: xmlstream.ParsePath("en")}}, items)
	checkAggWindows(t, out, []aggWin{
		{"-10", "12", "1", "1"}, {"0", "25", "3", "6"}, {"10", "31", "3", "9"}, {"20", "44", "2", "9"},
		{"30", "44", "2", "11"}, {"40", "44", "1", "6"},
	})
}

func TestDiffWindowDecimalRefs(t *testing.T) {
	times := []string{"0.5", "1.25", "2.0", "3.5"}
	var items []*xmlstream.Element
	for _, dt := range times {
		items = append(items, photon("1", "1", "1", "1", dt))
	}
	w := wxquery.Window{Kind: wxquery.WindowDiff, Ref: xmlstream.ParsePath("det_time"), Size: dec("1.5"), Step: dec("0.5")}
	out := aggItems(t, w, []AggSpec{{Op: wxquery.AggCount, Elem: xmlstream.ParsePath("en")}}, items)
	// [-0.5, 1) holds only 0.5, [0, 1.5) holds 0.5 and 1.25. 3.5 closes
	// everything before [2.5, 4); [2.5, 4), [3, 4.5) and [3.5, 5) each hold
	// 3.5 alone and close at end of stream.
	checkAggWindows(t, out, []aggWin{
		{"-0.5", "1.25", "1", ""}, {"0", "2", "2", ""}, {"0.5", "2", "2", ""},
		{"1", "3.5", "2", ""}, {"1.5", "3.5", "1", ""}, {"2", "3.5", "1", ""},
		{"2.5", "3.5", "1", ""}, {"3", "3.5", "1", ""}, {"3.5", "3.5", "1", ""},
	})
}

func TestAllAggOps(t *testing.T) {
	var items []*xmlstream.Element
	for _, en := range []string{"2", "8", "5"} {
		items = append(items, photon("1", "1", "1", en, "1"))
	}
	w := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("3"), Step: dec("3")}
	specs := []AggSpec{
		{Op: wxquery.AggMin, Elem: xmlstream.ParsePath("en")},
		{Op: wxquery.AggMax, Elem: xmlstream.ParsePath("en")},
		{Op: wxquery.AggSum, Elem: xmlstream.ParsePath("en")},
		{Op: wxquery.AggCount, Elem: xmlstream.ParsePath("en")},
		{Op: wxquery.AggAvg, Elem: xmlstream.ParsePath("en")},
	}
	out := aggItems(t, w, specs, items)
	if len(out) != 1 {
		t.Fatalf("windows = %d", len(out))
	}
	e := out[0]
	checks := map[string]string{
		"g0/min": "2", "g1/max": "8", "g2/sum": "15", "g3/n": "3",
		"g4/sum": "15", "g4/n": "3",
	}
	for path, want := range checks {
		if got := e.First(xmlstream.ParsePath(path)).Value(); got != want {
			t.Errorf("%s = %s, want %s", path, got, want)
		}
	}
}

func TestNonNumericSkipped(t *testing.T) {
	items := []*xmlstream.Element{
		photon("1", "1", "1", "2", "1"),
		photon("1", "1", "1", "oops", "2"),
		photon("1", "1", "1", "4", "3"),
	}
	w := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("3"), Step: dec("3")}
	out := aggItems(t, w, []AggSpec{{Op: wxquery.AggAvg, Elem: xmlstream.ParsePath("en")}}, items)
	if len(out) != 1 {
		t.Fatalf("windows = %d", len(out))
	}
	if n := out[0].First(xmlstream.ParsePath("g0/n")).Value(); n != "2" {
		t.Errorf("avg n = %s, want 2 (non-numeric skipped)", n)
	}
}

// TestMergeEquivalence is the Fig. 5 scenario: a coarse aggregate computed
// by recomposing a shared finer aggregate stream must equal direct
// evaluation of the coarse window, trailing windows included: for time
// windows and for count windows, on feeds whose length is and is not a
// multiple of the step.
func TestMergeEquivalence(t *testing.T) {
	dt := xmlstream.ParsePath("det_time")
	diff := func(size, step string) wxquery.Window {
		return wxquery.Window{Kind: wxquery.WindowDiff, Ref: dt, Size: dec(size), Step: dec(step)}
	}
	count := func(size, step string) wxquery.Window {
		return wxquery.Window{Kind: wxquery.WindowCount, Size: dec(size), Step: dec(step)}
	}
	for _, c := range []struct {
		fine, coarse wxquery.Window
		items        int
	}{
		{diff("20", "10"), diff("60", "40"), 200},
		{diff("20", "10"), diff("60", "40"), 213},
		{count("10", "5"), count("20", "10"), 100},
		{count("10", "5"), count("20", "10"), 101},
		{count("10", "5"), count("20", "10"), 107},
		{count("10", "5"), count("20", "10"), 113},
	} {
		var items []*xmlstream.Element
		for i := 0; i < c.items; i++ {
			items = append(items, photon("1", "1", "1",
				fmt.Sprintf("%d.%d", i%7, i%10), fmt.Sprintf("%d", i)))
		}
		kind := map[wxquery.WindowKind]string{wxquery.WindowDiff: "diff", wxquery.WindowCount: "count"}[c.coarse.Kind]
		t.Run(fmt.Sprintf("%s_%d", kind, c.items), func(t *testing.T) {
			for _, op := range []wxquery.AggOp{wxquery.AggSum, wxquery.AggCount, wxquery.AggMin, wxquery.AggMax, wxquery.AggAvg} {
				elem := xmlstream.ParsePath("en")
				direct := NewPipeline(NewWindowAgg(c.coarse, []AggSpec{{Op: op, Elem: elem}}, nil)).Run(items)
				// avg travels as (sum, count); the shared fine stream uses avg
				// so it can serve everything but min and max.
				srcOp := wxquery.AggAvg
				if op == wxquery.AggMin || op == wxquery.AggMax {
					srcOp = op
				}
				fineOut := NewPipeline(NewWindowAgg(c.fine, []AggSpec{{Op: srcOp, Elem: elem}}, nil)).Run(items)
				merged := NewPipeline(NewWindowMerge(c.fine, c.coarse, []AggSpec{{Op: op, Elem: elem}}, []int{0}, []wxquery.AggOp{srcOp})).Run(fineOut)
				if len(merged) != len(direct) {
					t.Fatalf("%s: merged %d windows, direct %d", op, len(merged), len(direct))
				}
				for i := range direct {
					if !direct[i].Equal(merged[i]) {
						t.Errorf("%s window %d:\ndirect %s\nmerged %s", op, i, xmlstream.Marshal(direct[i]), xmlstream.Marshal(merged[i]))
					}
				}
			}
		})
	}
}

func TestAggFilterExactBoundary(t *testing.T) {
	// avg = 13/10 = 1.3 exactly: filter avg ≥ 1.3 keeps, avg > 1.3 drops.
	item := xmlstream.E(AggItemName,
		xmlstream.T("win", "0"), xmlstream.T("wm", "20"),
		xmlstream.E("g0", xmlstream.T("n", "10"), xmlstream.T("sum", "13")),
	)
	groups := map[string]FilterGroup{"avg(en)": {Index: 0, Op: wxquery.AggAvg}}

	ge := predicate.New()
	ge.AddAtom(predicate.Atom{Left: "avg(en)", Op: predicate.Ge, Const: dec("1.3")})
	if len(process1(NewAggFilter(ge, groups), item)) != 1 {
		t.Error("avg ≥ 1.3 should keep avg = 1.3")
	}
	gt := predicate.New()
	gt.AddAtom(predicate.Atom{Left: "avg(en)", Op: predicate.Gt, Const: dec("1.3")})
	if len(process1(NewAggFilter(gt, groups), item)) != 0 {
		t.Error("avg > 1.3 must drop avg = 1.3")
	}
	// Missing group fails.
	empty := xmlstream.E(AggItemName, xmlstream.T("win", "0"))
	if len(process1(NewAggFilter(ge, groups), empty)) != 0 {
		t.Error("missing aggregate value must fail the filter")
	}
}

func TestWindowContents(t *testing.T) {
	var items []*xmlstream.Element
	for i := 0; i < 7; i++ {
		items = append(items, photon("1", "1", "1", fmt.Sprintf("%d", i), fmt.Sprintf("%d", i)))
	}
	w := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("3"), Step: dec("3")}
	out := NewPipeline(NewWindowContents(w)).Run(items)
	// (0,1,2) and (3,4,5) close after their last item, (6) at end of stream.
	want := [][]string{{"0", "1", "2"}, {"3", "4", "5"}, {"6"}}
	if len(out) != len(want) {
		t.Fatalf("windows = %d, want %d", len(out), len(want))
	}
	for i, ens := range want {
		var got []string
		for _, e := range out[i].AppendFind(nil, xmlstream.ParsePath("photon/en")) {
			got = append(got, e.Value())
		}
		if fmt.Sprint(got) != fmt.Sprint(ens) {
			t.Errorf("window %d holds en %v, want %v", i, got, ens)
		}
		if start := out[i].Child("win").Value(); start != ens[0] {
			t.Errorf("window %d starts at %s", i, start)
		}
	}
	if wm := out[2].Child("wm").Value(); wm != "6" {
		t.Errorf("end-of-stream window stamped %s, want the last index 6", wm)
	}
}

func TestUDFAggregation(t *testing.T) {
	reg := UDFRegistry{
		"range": func(vals, args []decimal.D) decimal.D {
			if len(vals) == 0 {
				return decimal.D{}
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals[1:] {
				if v.Cmp(lo) < 0 {
					lo = v
				}
				if v.Cmp(hi) > 0 {
					hi = v
				}
			}
			d, _ := hi.Sub(lo)
			return d
		},
	}
	var items []*xmlstream.Element
	for _, en := range []string{"2", "9", "4"} {
		items = append(items, photon("1", "1", "1", en, "1"))
	}
	w := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("3"), Step: dec("3")}
	out := NewPipeline(NewWindowAgg(w, []AggSpec{{UDF: "range", Elem: xmlstream.ParsePath("en")}}, reg)).Run(items)
	if len(out) != 1 {
		t.Fatalf("windows = %d", len(out))
	}
	if got := out[0].First(xmlstream.ParsePath("g0/v")).Value(); got != "7" {
		t.Errorf("range = %s", got)
	}
}

func TestFormatRatio(t *testing.T) {
	cases := []struct {
		num  string
		den  int64
		want string
	}{
		{"15", 3, "5"},
		{"13", 10, "1.3"},
		{"1", 3, "0.3333333333"},
		{"-15", 10, "-1.5"},
		{"0", 7, "0"},
	}
	for _, c := range cases {
		if got := formatRatio(dec(c.num), c.den); got != c.want {
			t.Errorf("formatRatio(%s,%d) = %s, want %s", c.num, c.den, got, c.want)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct {
		a, b string
		want int64
	}{
		{"10", "3", 3}, {"-10", "3", -4}, {"9", "3", 3}, {"-9", "3", -3},
		{"2.5", "0.5", 5}, {"-2.6", "0.5", -6}, {"0", "7", 0},
	}
	for _, c := range cases {
		if got := floorDiv(dec(c.a), dec(c.b)); got != c.want {
			t.Errorf("floorDiv(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
