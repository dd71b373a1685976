package stats

import (
	"fmt"
	"math"
	"testing"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/xmlstream"
)

func dec(s string) decimal.D { return decimal.MustParse(s) }

func samplePhotons(n int) []*xmlstream.Element {
	items := make([]*xmlstream.Element, n)
	for i := 0; i < n; i++ {
		ra := 100.0 + float64(i%50)        // 100..149
		en := 0.5 + float64(i%20)*0.1      // 0.5..2.4
		det := fmt.Sprintf("%d", (i+1)*10) // strictly increasing
		items[i] = xmlstream.E("photon",
			xmlstream.E("coord",
				xmlstream.E("cel",
					xmlstream.T("ra", fmt.Sprintf("%.1f", ra)),
					xmlstream.T("dec", fmt.Sprintf("%.1f", -40.0-float64(i%10))),
				),
			),
			xmlstream.T("phc", fmt.Sprintf("%d", i)),
			xmlstream.T("en", fmt.Sprintf("%.1f", en)),
			xmlstream.T("det_time", det),
		)
	}
	return items
}

func TestCollectBasics(t *testing.T) {
	items := samplePhotons(100)
	s := Collect("photons", "photon", items, 50)
	if s.Freq != 50 || s.SampleCount != 100 {
		t.Errorf("freq/sample = %v/%v", s.Freq, s.SampleCount)
	}
	var total int
	for _, it := range items {
		total += it.ByteSize()
	}
	if want := float64(total) / 100; math.Abs(s.AvgItemSize-want) > 1e-9 {
		t.Errorf("AvgItemSize = %v, want %v", s.AvgItemSize, want)
	}

	ra := s.Lookup(xmlstream.ParsePath("coord/cel/ra"))
	if ra == nil {
		t.Fatal("no ra stats")
	}
	if !ra.Numeric || ra.Min.String() != "100" || ra.Max.String() != "149" {
		t.Errorf("ra stats = %+v", ra)
	}
	if ra.Occ != 1 {
		t.Errorf("ra occ = %v", ra.Occ)
	}
	if ra.Sorted {
		t.Error("ra is cyclic, must not be sorted")
	}

	dt := s.Lookup(xmlstream.ParsePath("det_time"))
	if dt == nil || !dt.Sorted || !dt.Numeric {
		t.Fatalf("det_time stats = %+v", dt)
	}
	if math.Abs(dt.AvgIncrement-10) > 1e-9 {
		t.Errorf("det_time increment = %v, want 10", dt.AvgIncrement)
	}

	coord := s.Lookup(xmlstream.ParsePath("coord"))
	if coord == nil || coord.Numeric {
		t.Errorf("interior element stats = %+v", coord)
	}
	if coord.AvgSize <= ra.AvgSize {
		t.Error("subtree size should exceed leaf size")
	}
}

func TestCollectEmptyAndNonNumeric(t *testing.T) {
	s := Collect("x", "item", nil, 1)
	if s.AvgItemSize != 0 || len(s.Elements) != 0 {
		t.Errorf("empty collect = %+v", s)
	}
	items := []*xmlstream.Element{
		xmlstream.E("item", xmlstream.T("tag", "abc")),
		xmlstream.E("item", xmlstream.T("tag", "1.5")),
	}
	st := Collect("x", "item", items, 1)
	tag := st.Lookup(xmlstream.ParsePath("tag"))
	if tag == nil || tag.Numeric {
		t.Errorf("mixed text element must be non-numeric: %+v", tag)
	}
}

func TestOccurrenceCounting(t *testing.T) {
	items := []*xmlstream.Element{
		xmlstream.E("item", xmlstream.T("a", "1"), xmlstream.T("a", "2")),
		xmlstream.E("item", xmlstream.T("a", "3")),
	}
	s := Collect("x", "item", items, 1)
	a := s.Lookup(xmlstream.ParsePath("a"))
	if a == nil || math.Abs(a.Occ-1.5) > 1e-9 {
		t.Errorf("occ = %+v", a)
	}
}

func TestSelectivityInterval(t *testing.T) {
	s := Collect("photons", "photon", samplePhotons(1000), 50)
	// ra uniform over [100,149]; predicate ra ∈ [120,138] → ~18/49.
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "coord/cel/ra", Op: predicate.Ge, Const: dec("120")})
	g.AddAtom(predicate.Atom{Left: "coord/cel/ra", Op: predicate.Le, Const: dec("138")})
	got := s.Selectivity(g)
	want := 18.0 / 49.0
	if math.Abs(got-want) > 0.01 {
		t.Errorf("selectivity = %v, want ~%v", got, want)
	}
	// Empty predicate → 1.
	if s.Selectivity(predicate.New()) != 1 || s.Selectivity(nil) != 1 {
		t.Error("empty predicate should have selectivity 1")
	}
	// Disjoint interval → 0.
	g2 := predicate.New()
	g2.AddAtom(predicate.Atom{Left: "coord/cel/ra", Op: predicate.Ge, Const: dec("500")})
	g2.AddAtom(predicate.Atom{Left: "coord/cel/ra", Op: predicate.Le, Const: dec("600")})
	if got := s.Selectivity(g2); got != 0 {
		t.Errorf("disjoint selectivity = %v", got)
	}
}

func TestSelectivityCombines(t *testing.T) {
	s := Collect("photons", "photon", samplePhotons(1000), 50)
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "coord/cel/ra", Op: predicate.Ge, Const: dec("120")})
	g.AddAtom(predicate.Atom{Left: "coord/cel/ra", Op: predicate.Le, Const: dec("138")})
	g.AddAtom(predicate.Atom{Left: "en", Op: predicate.Ge, Const: dec("1.3")})
	sra := 18.0 / 49.0
	sen := (2.4 - 1.3) / (2.4 - 0.5)
	got := s.Selectivity(g)
	if math.Abs(got-sra*sen) > 0.02 {
		t.Errorf("combined selectivity = %v, want ~%v", got, sra*sen)
	}
}

func TestSelectivityUnknownVariable(t *testing.T) {
	s := Collect("photons", "photon", samplePhotons(100), 50)
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "no/such/path", Op: predicate.Ge, Const: dec("1")})
	got := s.Selectivity(g)
	if got <= 0 || got >= 1 {
		t.Errorf("unknown variable should fall back to default selectivity, got %v", got)
	}
}

func TestSelectivityBounds(t *testing.T) {
	s := Collect("photons", "photon", samplePhotons(500), 50)
	// One-sided bound wider than the data range → ~1 (histogram estimates
	// carry float rounding).
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "en", Op: predicate.Ge, Const: dec("-100")})
	if got := s.Selectivity(g); math.Abs(got-1) > 1e-9 {
		t.Errorf("vacuous bound selectivity = %v", got)
	}
	// Variable-vs-variable constraints use the heuristic join factor.
	g2 := predicate.New()
	g2.AddAtom(predicate.Atom{Left: "en", Op: predicate.Le, RightVar: "phc"})
	if got := s.Selectivity(g2); got != 0.5 {
		t.Errorf("join selectivity = %v, want 0.5", got)
	}
}

func TestHistogramSkewedBeatsUniform(t *testing.T) {
	// Exponential-ish values concentrated near zero: the uniform-range
	// model badly overestimates the tail fraction; the histogram does not.
	var items []*xmlstream.Element
	for i := 0; i < 4000; i++ {
		v := float64(i%40) * float64(i%40) / 160.0 // 0..~9.8, quadratic skew
		items = append(items, xmlstream.E("item", xmlstream.T("x", fmt.Sprintf("%.3f", v))))
	}
	s := Collect("s", "item", items, 1)
	x := s.Lookup(xmlstream.ParsePath("x"))
	if x == nil || x.Hist == nil {
		t.Fatal("no histogram collected")
	}
	// True fraction with value ≥ 5: i%40 ≥ ~28.3 → 12/40 = 0.30.
	g := predicate.New()
	g.AddAtom(predicate.Atom{Left: "x", Op: predicate.Ge, Const: dec("5")})
	got := s.Selectivity(g)
	if math.Abs(got-0.30) > 0.05 {
		t.Errorf("histogram selectivity = %v, want ≈0.30", got)
	}
	// The uniform model would have said (9.8-5)/9.8 ≈ 0.49 — verify the
	// histogram actually moved the estimate.
	uniform := (x.Max.Float() - 5) / (x.Max.Float() - x.Min.Float())
	if math.Abs(got-uniform) < 0.1 {
		t.Errorf("histogram estimate %v indistinguishable from uniform %v", got, uniform)
	}
}

func TestHistogramFractionEdges(t *testing.T) {
	h := &Histogram{Lo: 0, Hi: 10, Counts: make([]int, histogramBuckets), Total: 100}
	for i := range h.Counts {
		h.Counts[i] = 100 / histogramBuckets
	}
	h.Total = 0
	for _, c := range h.Counts {
		h.Total += c
	}
	if f := h.Fraction(0, 10); math.Abs(f-1) > 1e-9 {
		t.Errorf("full range fraction = %v", f)
	}
	if f := h.Fraction(10, 0); f != 0 {
		t.Errorf("inverted range fraction = %v", f)
	}
	if f := h.Fraction(-5, 0); f != 0 {
		t.Errorf("out-of-range fraction = %v", f)
	}
	if f := h.Fraction(0, 5); math.Abs(f-0.5) > 0.05 {
		t.Errorf("half range fraction = %v", f)
	}
}

func TestHistogramRequiresEnoughValues(t *testing.T) {
	items := []*xmlstream.Element{
		xmlstream.E("item", xmlstream.T("x", "1")),
		xmlstream.E("item", xmlstream.T("x", "2")),
	}
	s := Collect("s", "item", items, 1)
	if s.Lookup(xmlstream.ParsePath("x")).Hist != nil {
		t.Error("two values should not build a histogram")
	}
}

func TestPathsSorted(t *testing.T) {
	s := Collect("photons", "photon", samplePhotons(10), 50)
	ps := s.Paths()
	for i := 1; i < len(ps); i++ {
		if ps[i-1] >= ps[i] {
			t.Errorf("paths not sorted: %v", ps)
		}
	}
}
