package properties

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"streamshare/internal/predicate"
	"streamshare/internal/wxquery"
)

// The paper's queries (§1 and §2).
const (
	q1 = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0
  and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0
  return <vela> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/phc } { $p/en } { $p/det_time } </vela> }
</photons>`

	q2 = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3
  and $p/coord/cel/ra >= 130.5 and $p/coord/cel/ra <= 135.5
  and $p/coord/cel/dec >= -48.0 and $p/coord/cel/dec <= -45.0
  return <rxj> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/en } { $p/det_time } </rxj> }
</photons>`

	q3 = `<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0
   and coord/cel/dec >= -49.0 and coord/cel/dec <= -40.0]
  |det_time diff 20 step 10|
  let $a := avg($w/en)
  return <avg_en> { $a } </avg_en> }
</photons>`

	q4 = `<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0
   and coord/cel/dec >= -49.0 and coord/cel/dec <= -40.0]
  |det_time diff 60 step 40|
  let $a := avg($w/en)
  where $a >= 1.3
  return <avg_en> { $a } </avg_en> }
</photons>`
)

func props(t *testing.T, src string) *Properties {
	t.Helper()
	p, err := FromQuery(wxquery.MustParse(src))
	if err != nil {
		t.Fatalf("FromQuery: %v", err)
	}
	return p
}

func TestBuildQ1(t *testing.T) {
	p := props(t, q1)
	in, ok := p.SingleInput()
	if !ok {
		t.Fatalf("inputs = %d", len(p.Inputs))
	}
	if in.Stream != "photons" || in.ItemPath.String() != "photons/photon" {
		t.Errorf("input = %s/%s", in.Stream, in.ItemPath)
	}
	sel := in.Find(OpSelect)
	if sel == nil || sel.Sel.Len() != 4 {
		t.Fatalf("selection = %v", sel)
	}
	proj := in.Find(OpProject)
	if proj == nil {
		t.Fatal("no projection")
	}
	wantOut := []string{"coord/cel/dec", "coord/cel/ra", "det_time", "en", "phc"}
	if len(proj.Out) != len(wantOut) {
		t.Fatalf("out = %v", proj.Out)
	}
	for i, w := range wantOut {
		if proj.Out[i].String() != w {
			t.Errorf("out[%d] = %s, want %s", i, proj.Out[i], w)
		}
	}
	// All referenced elements are also returned for Q1, so Ref == Out.
	if len(proj.Ref) != len(proj.Out) {
		t.Errorf("ref = %v", proj.Ref)
	}
	if in.Find(OpAggregate) != nil || in.Find(OpWindow) != nil {
		t.Error("Q1 has no window operators")
	}
}

func TestBuildQ3(t *testing.T) {
	p := props(t, q3)
	in, _ := p.SingleInput()
	agg := in.Find(OpAggregate)
	if agg == nil {
		t.Fatal("no aggregation")
	}
	a := agg.Agg
	if a.Op != wxquery.AggAvg || a.Elem.String() != "en" {
		t.Errorf("agg = %s", a.Label())
	}
	if a.Window.Kind != wxquery.WindowDiff || a.Window.Size.String() != "20" || a.Window.Step.String() != "10" {
		t.Errorf("window = %s", a.Window.String())
	}
	if a.Filter != nil {
		t.Error("Q3 has no aggregate filter")
	}
	proj := in.Find(OpProject)
	if proj == nil || len(proj.Out) != 0 {
		t.Fatalf("aggregate projection = %+v", proj)
	}
	// Referenced: en, det_time, ra, dec.
	if len(proj.Ref) != 4 {
		t.Errorf("ref = %v", proj.Ref)
	}
}

func TestBuildQ4Filter(t *testing.T) {
	p := props(t, q4)
	in, _ := p.SingleInput()
	a := in.Find(OpAggregate).Agg
	if a.Filter == nil || a.Filter.Len() != 1 {
		t.Fatalf("filter = %v", a.Filter)
	}
	if !slices.Contains(a.Filter.Nodes(), "avg(en)") {
		t.Errorf("filter nodes = %v", a.Filter.Nodes())
	}
}

func TestPaperSharingQ2ReusesQ1(t *testing.T) {
	p1 := props(t, q1).Result()
	p2 := props(t, q2)
	if !MatchProperties(p1, p2) {
		t.Error("Q2 should be answerable from Q1's result stream (paper §1)")
	}
	if MatchProperties(p2.Result(), p1) {
		t.Error("Q1 must not be answerable from Q2's narrower stream")
	}
}

func TestPaperSharingQ4ReusesQ3(t *testing.T) {
	p3 := props(t, q3).Result()
	p4 := props(t, q4)
	if !MatchProperties(p3, p4) {
		t.Error("Q4 should be answerable from Q3's aggregate stream (paper Fig. 5)")
	}
	if MatchProperties(p4.Result(), p3) {
		t.Error("Q3 must not reuse Q4's filtered, coarser aggregates")
	}
}

func TestAggregateOverProjectedStream(t *testing.T) {
	// Q3 references only ra, dec, en, det_time — all contained in Q1's
	// result stream with an identical selection, so Alg. 2's R ⊇ R′ rule
	// admits computing Q3 from Q1's stream.
	p1 := props(t, q1).Result()
	p3 := props(t, q3)
	if !MatchProperties(p1, p3) {
		t.Error("Q3 should be computable from Q1's result stream")
	}
	// The reverse is impossible: Q1 needs items, Q3's stream has aggregates.
	if MatchProperties(p3.Result(), p1) {
		t.Error("Q1 must not match Q3's aggregate stream")
	}
}

func TestResultDropsAggregateProjection(t *testing.T) {
	p3 := props(t, q3)
	in, _ := p3.SingleInput()
	if in.Find(OpProject) == nil {
		t.Fatal("subscription properties should record referenced elements")
	}
	rin, _ := p3.Result().SingleInput()
	if rin.Find(OpProject) != nil {
		t.Error("result stream of an aggregate query must not advertise a projection")
	}
	// Result() must not mutate the original.
	if in.Find(OpProject) == nil {
		t.Error("Result() mutated the subscription properties")
	}
}

func TestProjectionInsufficient(t *testing.T) {
	// A stream that only kept en cannot serve a query needing ra.
	narrow := props(t, `<r>{ for $p in stream("photons")/photons/photon return <o>{ $p/en }</o> }</r>`).Result()
	wide := props(t, `<r>{ for $p in stream("photons")/photons/photon return <o>{ $p/coord/cel/ra }</o> }</r>`)
	if MatchProperties(narrow, wide) {
		t.Error("en-only stream must not serve an ra query")
	}
	if !MatchProperties(narrow, props(t, `<r>{ for $p in stream("photons")/photons/photon return <o>{ $p/en }</o> }</r>`)) {
		t.Error("identical projection should match")
	}
}

func TestPredicatePathNotProjectedAway(t *testing.T) {
	// Subscription filters on phc but returns only en: its Ref must include
	// phc, so a stream without phc cannot serve it.
	enOnly := props(t, `<r>{ for $p in stream("photons")/photons/photon return <o>{ $p/en }</o> }</r>`).Result()
	sub := props(t, `<r>{ for $p in stream("photons")/photons/photon where $p/phc >= 50 return <o>{ $p/en }</o> }</r>`)
	if MatchProperties(enOnly, sub) {
		t.Error("stream lacking phc must not serve a phc-filtered query")
	}
}

func TestDifferentStreamsNeverMatch(t *testing.T) {
	a := props(t, `<r>{ for $p in stream("a")/r/i return <o>{ $p/x }</o> }</r>`).Result()
	b := props(t, `<r>{ for $p in stream("b")/r/i return <o>{ $p/x }</o> }</r>`)
	if MatchProperties(a, b) {
		t.Error("different input streams must not match")
	}
	// Same stream name, different item path.
	c := props(t, `<r>{ for $p in stream("a")/r/j return <o>{ $p/x }</o> }</r>`)
	if MatchProperties(a, c) {
		t.Error("different item paths must not match")
	}
}

func TestSelectionOneWayImplication(t *testing.T) {
	// Sub's predicate is tighter → match; looser → no match.
	stream := props(t, `<r>{ for $p in stream("s")/r/i where $p/x >= 10 return <o>{ $p/x }</o> }</r>`).Result()
	tight := props(t, `<r>{ for $p in stream("s")/r/i where $p/x >= 20 return <o>{ $p/x }</o> }</r>`)
	loose := props(t, `<r>{ for $p in stream("s")/r/i where $p/x >= 5 return <o>{ $p/x }</o> }</r>`)
	if !MatchProperties(stream, tight) {
		t.Error("tighter subscription should match")
	}
	if MatchProperties(stream, loose) {
		t.Error("looser subscription must not match")
	}
	// Unfiltered subscription against filtered stream: no σ in sub → fail.
	nofilter := props(t, `<r>{ for $p in stream("s")/r/i return <o>{ $p/x }</o> }</r>`)
	if MatchProperties(stream, nofilter) {
		t.Error("unfiltered subscription must not match filtered stream")
	}
	// Filtered subscription against unfiltered stream: fine.
	if !MatchProperties(nofilter.Result(), tight) {
		t.Error("filtered subscription should match unfiltered stream")
	}
	// The subscription implies the stream's d ≥ 3 only through a path:
	// minimizing it drops its own d ≥ 3 edge, as a ≥ 2 ∧ a < d − 1 gives
	// d > 3. Matching on the closure still accepts it.
	pathQuery := func(sel string) *Properties {
		return props(t, `<r>{ for $p in stream("s")/r/i where `+sel+` return <o>{ $p/a }{ $p/d }</o> }</r>`)
	}
	wide := pathQuery("$p/d >= 3 and $p/a < $p/d - 0.5")
	viaPath := pathQuery("$p/d >= 3 and $p/a < $p/d - 1 and $p/a >= 2")
	if !MatchProperties(wide.Result(), viaPath) {
		t.Error("a bound the subscription implies through a path of its edges should match")
	}
	if MatchProperties(viaPath.Result(), wide) {
		t.Error("looser subscription must not match the path-implied stream")
	}
	// x ≤ x + c holds for every item that has x: beside another edge at x it
	// says nothing more, but alone it still refuses items without x.
	selfQuery := func(sel string) *Properties {
		return props(t, `<r>{ for $p in stream("s")/r/i where `+sel+` return <o>{ $p/en }{ $p/phc }</o> }</r>`)
	}
	for _, c := range []struct {
		stream, sub string
		match       bool
	}{
		{"$p/en <= 2 and $p/en <= $p/en + 2", "$p/en <= 1.5", true},
		{"$p/en <= 1.5", "$p/en <= 2 and $p/en <= $p/en + 2", false},
		{"$p/en >= $p/en", "$p/phc <= 1.5", false},
		{"$p/phc <= 1.5", "$p/en >= $p/en", false},
	} {
		if got := MatchProperties(selfQuery(c.stream).Result(), selfQuery(c.sub)); got != c.match {
			t.Errorf("stream [%s] for subscription [%s]: match %v, want %v", c.stream, c.sub, got, c.match)
		}
	}
}

func TestAggregateSelectionMustBeEqual(t *testing.T) {
	// Aggregate reuse demands identical pre-aggregation selections, not mere
	// implication (§3.3).
	mk := func(lo string) *Properties {
		return props(t, `<r>{ for $w in stream("s")/r/i [x >= `+lo+`] |count 10 step 5| let $a := sum($w/x) return <o>{ $a }</o> }</r>`)
	}
	stream := mk("10").Result()
	if MatchProperties(stream, mk("20")) {
		t.Error("tighter selection must not reuse aggregate stream (data already aggregated)")
	}
	if !MatchProperties(stream, mk("10")) {
		t.Error("identical aggregate subscription should match")
	}
	// The same equality cycle written two ways minimizes to different edge
	// sets; the selections are still equal, so each reuses the other.
	cycle := func(sel string) *Properties {
		return props(t, `<r>{ for $w in stream("s")/r/i [`+sel+`] |count 10 step 10| let $a := sum($w/x) return <o>{ $a }</o> }</r>`)
	}
	xyz, xzy := cycle("x = y and y = z"), cycle("x = z and z = y")
	if !MatchProperties(xyz.Result(), xzy) || !MatchProperties(xzy.Result(), xyz) {
		t.Error("equal pre-aggregation selections should match both ways")
	}
}

func TestWindowCompatibility(t *testing.T) {
	mk := func(size, step string) *Properties {
		return props(t, `<r>{ for $w in stream("s")/r/i |count `+size+` step `+step+`| let $a := sum($w/x) return <o>{ $a }</o> }</r>`)
	}
	stream := mk("20", "10").Result()
	cases := []struct {
		size, step string
		want       bool
	}{
		{"20", "10", true},  // identical
		{"60", "40", true},  // paper Fig. 5 shape: ∆′=60 mod 20, µ′=40 mod 10
		{"40", "20", true},  // clean multiples
		{"30", "10", false}, // ∆′ not a multiple of ∆
		{"40", "15", false}, // µ′ not a multiple of µ
		{"20", "20", true},  // coarser step, same size
		{"10", "10", false}, // finer than the stream
	}
	for _, c := range cases {
		got := MatchProperties(stream, mk(c.size, c.step))
		if got != c.want {
			t.Errorf("window %s/%s over 20/10: match = %v, want %v", c.size, c.step, got, c.want)
		}
	}
	// ∆ mod µ ≠ 0 on the reused stream blocks recomposition but not
	// identical reuse.
	odd := mk("20", "15").Result()
	if !MatchProperties(odd, mk("20", "15")) {
		t.Error("identical odd window should match")
	}
	if MatchProperties(odd, mk("40", "30")) {
		t.Error("∆ mod µ ≠ 0 must block recomposition")
	}
}

func TestWindowKindAndRef(t *testing.T) {
	count := props(t, `<r>{ for $w in stream("s")/r/i |count 10| let $a := sum($w/x) return <o>{ $a }</o> }</r>`).Result()
	diff := props(t, `<r>{ for $w in stream("s")/r/i |t diff 10| let $a := sum($w/x) return <o>{ $a }</o> }</r>`)
	if MatchProperties(count, diff) {
		t.Error("count window must not serve diff window")
	}
	refA := props(t, `<r>{ for $w in stream("s")/r/i |t diff 10| let $a := sum($w/x) return <o>{ $a }</o> }</r>`).Result()
	refB := props(t, `<r>{ for $w in stream("s")/r/i |u diff 20| let $a := sum($w/x) return <o>{ $a }</o> }</r>`)
	if MatchProperties(refA, refB) {
		t.Error("different reference elements must not match")
	}
}

func TestAvgServesSumAndCount(t *testing.T) {
	mk := func(op string) *Properties {
		return props(t, `<r>{ for $w in stream("s")/r/i |count 10 step 5| let $a := `+op+`($w/x) return <o>{ $a }</o> }</r>`)
	}
	avg := mk("avg").Result()
	if !MatchProperties(avg, mk("sum")) || !MatchProperties(avg, mk("count")) {
		t.Error("avg stream carries (sum,count) and should serve sum/count (§3.3)")
	}
	if !MatchProperties(avg, mk("avg")) {
		t.Error("avg serves avg")
	}
	if MatchProperties(avg, mk("min")) {
		t.Error("avg must not serve min")
	}
	sum := mk("sum").Result()
	if MatchProperties(sum, mk("avg")) {
		t.Error("sum stream lacks counts, must not serve avg")
	}
	if MatchProperties(sum, mk("count")) {
		t.Error("sum must not serve count")
	}
}

func TestFilteredAggregateReuse(t *testing.T) {
	mk := func(win, filter string) *Properties {
		where := ""
		if filter != "" {
			where = " where $a >= " + filter
		}
		return props(t, `<r>{ for $w in stream("s")/r/i |count `+win+`| let $a := sum($w/x)`+where+` return <o>{ $a }</o> }</r>`)
	}
	filtered := mk("10", "5").Result()
	// Same window, same filter → reuse.
	if !MatchProperties(filtered, mk("10", "5")) {
		t.Error("identical filtered aggregate should match")
	}
	// More restrictive filter → reuse.
	if !MatchProperties(filtered, mk("10", "7")) {
		t.Error("more restrictive filter should reuse filtered aggregates")
	}
	// Less restrictive filter → no.
	if MatchProperties(filtered, mk("10", "3")) {
		t.Error("less restrictive filter must not reuse filtered aggregates")
	}
	// No filter → no.
	if MatchProperties(filtered, mk("10", "")) {
		t.Error("unfiltered subscription must not reuse filtered aggregates")
	}
	// Coarser window over filtered values → no (data was filtered out).
	if MatchProperties(filtered, mk("20", "7")) {
		t.Error("recomposition from filtered aggregates must be rejected")
	}
	// Unfiltered stream serves filtered subscription (filter applied after).
	unfiltered := mk("10", "").Result()
	if !MatchProperties(unfiltered, mk("10", "5")) {
		t.Error("unfiltered aggregate stream should serve filtered subscription")
	}
}

func TestUDFMatching(t *testing.T) {
	mk := func(fn, args string) *Properties {
		return props(t, `<r>{ for $w in stream("s")/r/i |count 5| let $a := `+fn+`($w/x`+args+`) return <o>{ $a }</o> }</r>`)
	}
	udf := mk("smooth", ", 3").Result()
	if !MatchProperties(udf, mk("smooth", ", 3")) {
		t.Error("identical UDF should match")
	}
	if MatchProperties(udf, mk("smooth", ", 4")) {
		t.Error("different input vector must not match")
	}
	if MatchProperties(udf, mk("sharpen", ", 3")) {
		t.Error("different UDF name must not match")
	}
}

func TestWindowContentsMatching(t *testing.T) {
	mk := func(win string) *Properties {
		return props(t, `<r>{ for $w in stream("s")/r/i |count `+win+`| return <o>{ $w }</o> }</r>`)
	}
	w := mk("10").Result()
	if !MatchProperties(w, mk("10")) {
		t.Error("identical window-content query should match")
	}
	if MatchProperties(w, mk("20")) {
		t.Error("different window spec must not match")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name, src string
		wantUnsat bool
	}{
		{"no stream input", `<r>{ for $p in $q/i return <o>{ $p/x }</o> }</r>`, false},
		{"nested flwr", `<r>{ for $p in stream("s")/r/i return <o>{ for $q in stream("t")/r/i return <u>{ $q/x }</u> }</o> }</r>`, false},
		{"unsatisfiable", `<r>{ for $p in stream("s")/r/i where $p/x >= 10 and $p/x <= 5 return <o>{ $p/x }</o> }</r>`, true},
		{"two for clauses", `<r>{ for $p in stream("s")/r/i for $q in stream("t")/r/i return <o>{ $p/x }</o> }</r>`, false},
		{"agg without window", `<r>{ for $p in stream("s")/r/i let $a := sum($p/x) return <o>{ $a }</o> }</r>`, false},
		{"unbound var in where", `<r>{ for $p in stream("s")/r/i where $z/x >= 1 return <o>{ $p/x }</o> }</r>`, false},
		{"unbound var in return", `<r>{ for $p in stream("s")/r/i return <o>{ $z/x }</o> }</r>`, false},
		{"mix agg and item", `<r>{ for $w in stream("s")/r/i |count 5| let $a := sum($w/x) where $a >= $w/x return <o>{ $a }</o> }</r>`, false},
		{"agg and item output", `<r>{ for $w in stream("s")/r/i |count 5| let $a := sum($w/x) return <o>{ $a }{ $w/x }</o> }</r>`, false},
		{"path under aggregate", `<r>{ for $w in stream("s")/r/i |count 5| let $a := sum($w/x) where $a/y >= 1 return <o>{ $a }</o> }</r>`, false},
		{"same stream twice", `<r>{ for $p in stream("s")/r/i return <o>{ $p/x }</o> }{ for $p in stream("s")/r/i return <o>{ $p/y }</o> }</r>`, false},
		{"top-level output", `<r>{ $p }</r>`, false},
		{"double binding", `<r>{ for $w in stream("s")/r/i |count 5| let $a := sum($w/x) let $a := min($w/x) return <o>{ $a }</o> }</r>`, false},
	}
	for _, c := range cases {
		_, err := FromQuery(wxquery.MustParse(c.src))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if c.wantUnsat != errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("%s: error = %v (unsat want %v)", c.name, err, c.wantUnsat)
		}
		if !c.wantUnsat && !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: error should wrap ErrUnsupported: %v", c.name, err)
		}
	}
}

func TestMultiInputProperties(t *testing.T) {
	p := props(t, `<r>
{ for $p in stream("a")/r/i return <o>{ $p/x }</o> }
{ for $q in stream("b")/r/i return <o>{ $q/y }</o> }
</r>`)
	if len(p.Inputs) != 2 {
		t.Fatalf("inputs = %d", len(p.Inputs))
	}
	if p.Input("a") == nil || p.Input("b") == nil || p.Input("c") != nil {
		t.Error("Input lookup broken")
	}
	if _, ok := p.SingleInput(); ok {
		t.Error("SingleInput on multi-input properties")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := props(t, q4)
	c := p.Clone()
	cin, _ := c.SingleInput()
	cin.Find(OpSelect).Sel.AddAtom(predicate.Atom{Left: "extra", Op: predicate.Ge})
	pin, _ := p.SingleInput()
	if slices.Contains(pin.Find(OpSelect).Sel.Nodes(), "extra") {
		t.Error("Clone shares selection graph")
	}
	if p.String() == "" || c.String() == "" {
		t.Error("String should describe properties")
	}
}

func TestExplainMismatch(t *testing.T) {
	p1, p2 := props(t, q1), props(t, q2)
	if got := ExplainMismatch(p1.Result(), p2); got != "match" {
		t.Errorf("Q2 from Q1 = %q", got)
	}
	// Q1 from Q2: the narrower selection is the blocker.
	if got := ExplainMismatch(p2.Result(), p1); !strings.Contains(got, "selection") {
		t.Errorf("selection mismatch = %q", got)
	}
	// Projection mismatch.
	narrow := props(t, `<r>{ for $p in stream("photons")/photons/photon return <o>{ $p/en }</o> }</r>`)
	wide := props(t, `<r>{ for $p in stream("photons")/photons/photon return <o>{ $p/phc }</o> }</r>`)
	if got := ExplainMismatch(narrow.Result(), wide); !strings.Contains(got, "projection") {
		t.Errorf("projection mismatch = %q", got)
	}
	// Aggregate mismatch.
	a1 := props(t, `<r>{ for $w in stream("photons")/photons/photon |count 10| let $a := min($w/en) return <o>{ $a }</o> }</r>`)
	a2 := props(t, `<r>{ for $w in stream("photons")/photons/photon |count 10| let $a := max($w/en) return <o>{ $a }</o> }</r>`)
	if got := ExplainMismatch(a1.Result(), a2); !strings.Contains(got, "aggregate min(en)") {
		t.Errorf("aggregate mismatch = %q", got)
	}
	// Different streams.
	other := props(t, `<r>{ for $p in stream("other")/photons/photon return <o>{ $p/en }</o> }</r>`)
	if got := ExplainMismatch(other.Result(), p1); !strings.Contains(got, "does not read") {
		t.Errorf("stream mismatch = %q", got)
	}
}

func TestMinimizationTightensSubscription(t *testing.T) {
	// Redundant predicate x≥5 alongside x≥10 is minimized away.
	p := props(t, `<r>{ for $p in stream("s")/r/i where $p/x >= 5 and $p/x >= 10 return <o>{ $p/x }</o> }</r>`)
	in, _ := p.SingleInput()
	if got := in.Selection().Len(); got != 1 {
		t.Errorf("minimized selection has %d edges: %s", got, in.Selection())
	}
}
