package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"streamshare/internal/decimal"
	"streamshare/internal/properties"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

const (
	q1src = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0
  and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0
  return <vela> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/phc } { $p/en } { $p/det_time } </vela> }
</photons>`

	q2src = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3
  and $p/coord/cel/ra >= 130.5 and $p/coord/cel/ra <= 135.5
  and $p/coord/cel/dec >= -48.0 and $p/coord/cel/dec <= -45.0
  return <rxj> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/en } { $p/det_time } </rxj> }
</photons>`

	q3src = `<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0
   and coord/cel/dec >= -49.0 and coord/cel/dec <= -40.0]
  |det_time diff 20 step 10|
  let $a := avg($w/en)
  return <avg_en> { $a } </avg_en> }
</photons>`

	q4src = `<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0
   and coord/cel/dec >= -49.0 and coord/cel/dec <= -40.0]
  |det_time diff 60 step 40|
  let $a := avg($w/en)
  where $a >= 1.3
  return <avg_en> { $a } </avg_en> }
</photons>`
)

// randomPhotons generates deterministic pseudo-random photons with strictly
// increasing det_time over the vela region and surroundings.
func randomPhotons(n int, seed int64) []*xmlstream.Element {
	r := rand.New(rand.NewSource(seed))
	items := make([]*xmlstream.Element, n)
	t := 0.0
	for i := range items {
		t += 0.1 + r.Float64()*2
		items[i] = photon(
			fmt.Sprintf("%.1f", 110+r.Float64()*40),  // ra 110..150
			fmt.Sprintf("%.1f", -55+r.Float64()*20),  // dec -55..-35
			fmt.Sprintf("%d", r.Intn(100)),           // phc
			fmt.Sprintf("%.1f", 0.5+r.Float64()*2.5), // en 0.5..3.0
			fmt.Sprintf("%.1f", t),
		)
	}
	return items
}

func mustProps(t *testing.T, src string) (*wxquery.Query, *properties.Properties) {
	t.Helper()
	q := wxquery.MustParse(src)
	p, err := properties.FromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return q, p
}

func runFull(t *testing.T, src string, items []*xmlstream.Element) []*xmlstream.Element {
	t.Helper()
	q, p := mustProps(t, src)
	in, _ := p.SingleInput()
	pl, err := FullPipeline(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pl.Run(items)
}

func sameItems(t *testing.T, name string, a, b []*xmlstream.Element) {
	t.Helper()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		t.Fatalf("%s: no output to compare (%d vs %d)", name, len(a), len(b))
	}
	for i := 0; i < n; i++ {
		if !a[i].Equal(b[i]) {
			t.Fatalf("%s: item %d differs:\n%s\n%s", name, i, xmlstream.Marshal(a[i]), xmlstream.Marshal(b[i]))
		}
	}
}

// shared evaluates sub by reusing the canonical result stream of base:
// canonical(base) → residual → restructure(sub), as a stream-sharing plan
// would install it. A second instance counts what the first builds, as a run
// that keeps no result does, and must count as many items.
func shared(t *testing.T, baseSrc, subSrc string, items []*xmlstream.Element) []*xmlstream.Element {
	t.Helper()
	_, basep := mustProps(t, baseSrc)
	subq, subp := mustProps(t, subSrc)
	basein, _ := basep.Result().SingleInput()
	subin, _ := subp.SingleInput()
	if !properties.MatchInput(basein, subin) {
		t.Fatalf("properties do not match:\n%s\n%s", basep.Result(), subp)
	}
	canon := CanonicalPipeline(basein, nil)
	residual, err := ResidualPipeline(basein, subin, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RestructureFor(subq, subin)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(append(append(canon.Ops, residual.Ops...), rs)...)
	out := pl.Instance().Run(items)
	if _, n, _ := pl.Instance().Results(items, true, nil, false); n != len(out) {
		t.Fatalf("counted %d items, built %d\nstream: %s\nsub: %s", n, len(out), baseSrc, subSrc)
	}
	return out
}

func TestFullQ1(t *testing.T) {
	items := randomPhotons(500, 1)
	out := runFull(t, q1src, items)
	if len(out) == 0 {
		t.Fatal("Q1 produced nothing")
	}
	for _, e := range out {
		if e.Name != "vela" {
			t.Fatalf("result element = %s", e.Name)
		}
		ra, ok := e.Decimal(xmlstream.ParsePath("ra"))
		if !ok || ra.Float() < 120 || ra.Float() > 138 {
			t.Fatalf("ra out of range: %s", xmlstream.Marshal(e))
		}
		if e.First(xmlstream.ParsePath("phc")) == nil {
			t.Fatal("phc missing from vela item")
		}
		if e.First(xmlstream.ParsePath("coord")) != nil {
			t.Fatal("restructuring must flatten paths, not keep coord")
		}
	}
}

func TestFullQ3Q4(t *testing.T) {
	items := randomPhotons(2000, 2)
	out3 := runFull(t, q3src, items)
	if len(out3) == 0 {
		t.Fatal("Q3 produced nothing")
	}
	for _, e := range out3 {
		if e.Name != "avg_en" || e.Value() == "" {
			t.Fatalf("Q3 item = %s", xmlstream.Marshal(e))
		}
	}
	out4 := runFull(t, q4src, items)
	for _, e := range out4 {
		v, ok := e.Decimal(nil)
		if !ok || v.Cmp(dec("1.3")) < 0 {
			t.Fatalf("Q4 filter violated: %s", xmlstream.Marshal(e))
		}
	}
	if len(out4) >= len(out3) {
		t.Errorf("Q4 (coarser, filtered) emitted %d ≥ Q3's %d", len(out4), len(out3))
	}
}

// TestSharingEquivalenceQ2fromQ1 is the paper's §1 scenario: Q2's answer
// computed from Q1's shared stream must equal direct evaluation.
func TestSharingEquivalenceQ2fromQ1(t *testing.T) {
	items := randomPhotons(1000, 3)
	direct := runFull(t, q2src, items)
	viaQ1 := shared(t, q1src, q2src, items)
	if len(direct) != len(viaQ1) {
		t.Fatalf("direct %d items, shared %d", len(direct), len(viaQ1))
	}
	sameItems(t, "Q2-from-Q1", direct, viaQ1)
}

// TestSharingEquivalenceQ4fromQ3 is Fig. 5: Q4 recomposed from Q3's shared
// aggregate stream.
func TestSharingEquivalenceQ4fromQ3(t *testing.T) {
	items := randomPhotons(3000, 4)
	direct := runFull(t, q4src, items)
	viaQ3 := shared(t, q3src, q4src, items)
	if len(viaQ3) == 0 {
		t.Fatal("shared evaluation produced nothing")
	}
	if len(viaQ3) != len(direct) {
		t.Fatalf("direct %d items, shared %d", len(direct), len(viaQ3))
	}
	sameItems(t, "Q4-from-Q3", direct, viaQ3)
}

// TestSharingEquivalenceQ3fromQ1 aggregates over a projected shared stream.
func TestSharingEquivalenceQ3fromQ1(t *testing.T) {
	items := randomPhotons(1500, 5)
	direct := runFull(t, q3src, items)
	viaQ1 := shared(t, q1src, q3src, items)
	if len(direct) != len(viaQ1) {
		t.Fatalf("direct %d items, shared %d", len(direct), len(viaQ1))
	}
	sameItems(t, "Q3-from-Q1", direct, viaQ1)
}

// TestSharingIdenticalQuery reuses a stream for an identical subscription:
// the residual pipeline must be empty.
func TestSharingIdenticalQuery(t *testing.T) {
	_, p := mustProps(t, q1src)
	in, _ := p.Result().SingleInput()
	sub, _ := p.SingleInput()
	res, err := ResidualPipeline(in, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 0 {
		names := make([]string, len(res.Ops))
		for i, o := range res.Ops {
			names[i] = o.Name()
		}
		t.Errorf("identical query residual = %v, want empty", names)
	}
	items := randomPhotons(400, 6)
	direct := runFull(t, q1src, items)
	via := shared(t, q1src, q1src, items)
	sameItems(t, "Q1-from-Q1", direct, via)
	if len(direct) != len(via) {
		t.Errorf("direct %d, shared %d", len(direct), len(via))
	}
}

// TestAvgStreamServesSum: an avg aggregate stream answers a sum
// subscription over the same window.
func TestAvgStreamServesSum(t *testing.T) {
	avgSrc := `<r>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 10| let $a := avg($w/en) return <o>{ $a }</o> }</r>`
	sumSrc := `<r>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 10| let $a := sum($w/en) return <o>{ $a }</o> }</r>`
	countSrc := `<r>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 10| let $a := count($w/en) return <o>{ $a }</o> }</r>`
	items := randomPhotons(800, 7)
	for _, sub := range []string{sumSrc, countSrc, avgSrc} {
		direct := runFull(t, sub, items)
		via := shared(t, avgSrc, sub, items)
		if len(direct) != len(via) {
			t.Fatalf("%s: direct %d, shared %d", sub[:20], len(direct), len(via))
		}
		sameItems(t, "from-avg", direct, via)
	}
}

func TestRestructureQ1Shape(t *testing.T) {
	q, p := mustProps(t, q1src)
	in, _ := p.SingleInput()
	rs, err := RestructureFor(q, in)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Mode != ModeItems || rs.ForVar != "p" {
		t.Errorf("mode/var = %v/%s", rs.Mode, rs.ForVar)
	}
	item := photon("130.0", "-46.0", "5", "1.5", "10")
	out := process1(rs, item)
	if len(out) != 1 {
		t.Fatalf("restructure emitted %d", len(out))
	}
	want := "<vela><ra>130.0</ra><dec>-46.0</dec><phc>5</phc><en>1.5</en><det_time>10</det_time></vela>"
	if got := xmlstream.Marshal(out[0]); got != want {
		t.Errorf("restructured = %s", got)
	}
}

func TestRestructureConditional(t *testing.T) {
	src := `<r>{ for $p in stream("s")/r/i return if $p/x >= 10 then <big>{ $p/x }</big> else <small>{ $p/x }</small> }</r>`
	q, p := mustProps(t, src)
	in, _ := p.SingleInput()
	rs, err := RestructureFor(q, in)
	if err != nil {
		t.Fatal(err)
	}
	big := process1(rs, xmlstream.E("i", xmlstream.T("x", "12")))
	if len(big) != 1 || big[0].Name != "big" {
		t.Fatalf("big = %v", big)
	}
	small := process1(rs, xmlstream.E("i", xmlstream.T("x", "3")))
	if len(small) != 1 || small[0].Name != "small" {
		t.Fatalf("small = %v", small)
	}
}

func TestRestructureSequence(t *testing.T) {
	src := `<r>{ for $p in stream("s")/r/i return ($p/x, $p/y) }</r>`
	q, p := mustProps(t, src)
	in, _ := p.SingleInput()
	rs, err := RestructureFor(q, in)
	if err != nil {
		t.Fatal(err)
	}
	out := process1(rs, xmlstream.E("i", xmlstream.T("x", "1"), xmlstream.T("y", "2")))
	if len(out) != 2 || out[0].Name != "x" || out[1].Name != "y" {
		t.Fatalf("sequence output = %v", out)
	}
}

func TestWindowContentsEndToEnd(t *testing.T) {
	src := `<r>{ for $w in stream("photons")/photons/photon |count 3| return <batch>{ $w/en }</batch> }</r>`
	q, p := mustProps(t, src)
	in, _ := p.SingleInput()
	pl, err := FullPipeline(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	items := randomPhotons(7, 8)
	out := pl.Run(items)
	// Two full batches, then the seventh photon alone, closed at end of
	// stream.
	if len(out) != 3 {
		t.Fatalf("batches = %d", len(out))
	}
	for i, want := range [][]*xmlstream.Element{items[0:3], items[3:6], items[6:]} {
		ens := out[i].AppendFind(nil, xmlstream.ParsePath("en"))
		if len(ens) != len(want) {
			t.Fatalf("batch %d holds %d en values, want %d", i, len(ens), len(want))
		}
		for j, e := range ens {
			if v := want[j].Child("en").Value(); e.Value() != v {
				t.Errorf("batch %d en %d = %s, want %s", i, j, e.Value(), v)
			}
		}
	}
}

func TestUDFEndToEnd(t *testing.T) {
	reg := UDFRegistry{
		"spread": func(vals, args []decimal.D) decimal.D {
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
	src := `<r>{ for $w in stream("photons")/photons/photon |count 4| let $s := spread($w/en) return <sp>{ $s }</sp> }</r>`
	q, p := mustProps(t, src)
	in, _ := p.SingleInput()
	pl, err := FullPipeline(q, in, reg)
	if err != nil {
		t.Fatal(err)
	}
	out := pl.Run(randomPhotons(12, 9))
	if len(out) != 3 {
		t.Fatalf("windows = %d", len(out))
	}
	for _, e := range out {
		if e.Name != "sp" || e.Value() == "" {
			t.Errorf("udf output = %s", xmlstream.Marshal(e))
		}
	}
}
