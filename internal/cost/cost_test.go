package cost

import (
	"fmt"
	"math"
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/properties"
	"streamshare/internal/stats"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

func samplePhotons(n int) []*xmlstream.Element {
	items := make([]*xmlstream.Element, n)
	for i := 0; i < n; i++ {
		items[i] = xmlstream.E("photon",
			xmlstream.E("coord",
				xmlstream.E("cel",
					xmlstream.T("ra", fmt.Sprintf("%.1f", 100.0+float64(i%50))),
					xmlstream.T("dec", fmt.Sprintf("%.1f", -50.0+float64(i%10))),
				),
			),
			xmlstream.T("phc", fmt.Sprintf("%d", i%100)),
			xmlstream.T("en", fmt.Sprintf("%.1f", 0.5+float64(i%20)*0.1)),
			xmlstream.T("det_time", fmt.Sprintf("%d", i*2)),
		)
	}
	return items
}

func estimator(t *testing.T) *Estimator {
	t.Helper()
	st := stats.Collect("photons", "photon", samplePhotons(1000), 100)
	return NewEstimator(DefaultModel(), map[string]*stats.Stream{"photons": st})
}

func inputOf(t *testing.T, src string) *properties.Input {
	t.Helper()
	p, err := properties.FromQuery(wxquery.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	in, _ := p.SingleInput()
	return in
}

func TestSizeFreqSelection(t *testing.T) {
	e := estimator(t)
	// ra uniform 100..149, predicate keeps [120,138] → sel ≈ 18/49.
	in := inputOf(t, `<r>{ for $p in stream("photons")/photons/photon
		where $p/coord/cel/ra >= 120 and $p/coord/cel/ra <= 138
		return <o>{ $p }</o> }</r>`)
	size, freq := e.SizeFreq(in)
	if math.Abs(freq-100*18.0/49.0) > 2 {
		t.Errorf("freq = %v", freq)
	}
	// No projection: full item size.
	if math.Abs(size-e.Stats["photons"].AvgItemSize) > 1e-9 {
		t.Errorf("size = %v", size)
	}
}

func TestSizeFreqProjection(t *testing.T) {
	e := estimator(t)
	in := inputOf(t, `<r>{ for $p in stream("photons")/photons/photon
		return <o>{ $p/en }</o> }</r>`)
	size, freq := e.SizeFreq(in)
	if freq != 100 {
		t.Errorf("projection must not change frequency: %v", freq)
	}
	full := e.Stats["photons"].AvgItemSize
	if size >= full || size <= 0 {
		t.Errorf("projected size = %v (full %v)", size, full)
	}
	// en leaf is ~12 bytes; dropping coord+phc+det_time should shrink a lot.
	if size > full/2 {
		t.Errorf("en-only projection too large: %v of %v", size, full)
	}
}

func TestSizeFreqCountWindow(t *testing.T) {
	e := estimator(t)
	in := inputOf(t, `<r>{ for $w in stream("photons")/photons/photon |count 20 step 10|
		let $a := avg($w/en) return <o>{ $a }</o> }</r>`)
	size, freq := e.SizeFreq(in)
	if math.Abs(freq-10) > 1e-9 { // 100 items/s ÷ step 10
		t.Errorf("count-window freq = %v", freq)
	}
	if size < 40 || size > 200 {
		t.Errorf("aggregate item size = %v", size)
	}
}

func TestSizeFreqDiffWindow(t *testing.T) {
	e := estimator(t)
	// det_time increments by 2 per item at 100 items/s → 200 units/s.
	// step 40 → 5 windows/s.
	in := inputOf(t, `<r>{ for $w in stream("photons")/photons/photon |det_time diff 60 step 40|
		let $a := avg($w/en) return <o>{ $a }</o> }</r>`)
	_, freq := e.SizeFreq(in)
	if math.Abs(freq-5) > 0.1 {
		t.Errorf("diff-window freq = %v, want 5", freq)
	}
	// Selection does not change a time-based window's output frequency.
	in2 := inputOf(t, `<r>{ for $w in stream("photons")/photons/photon
		[coord/cel/ra >= 120 and coord/cel/ra <= 138] |det_time diff 60 step 40|
		let $a := avg($w/en) return <o>{ $a }</o> }</r>`)
	_, freq2 := e.SizeFreq(in2)
	if math.Abs(freq2-5) > 0.1 {
		t.Errorf("filtered diff-window freq = %v, want 5", freq2)
	}
}

func TestSizeFreqFilteredAggregate(t *testing.T) {
	e := estimator(t)
	unfiltered := inputOf(t, `<r>{ for $w in stream("photons")/photons/photon |count 20 step 10|
		let $a := avg($w/en) return <o>{ $a }</o> }</r>`)
	filtered := inputOf(t, `<r>{ for $w in stream("photons")/photons/photon |count 20 step 10|
		let $a := avg($w/en) where $a >= 1.3 return <o>{ $a }</o> }</r>`)
	_, f1 := e.SizeFreq(unfiltered)
	_, f2 := e.SizeFreq(filtered)
	if f2 >= f1 || f2 <= 0 {
		t.Errorf("filtered freq %v should be below unfiltered %v", f2, f1)
	}
}

func TestWindowContentsDiffSize(t *testing.T) {
	e := estimator(t)
	// det_time advances 2 per item; a diff-60 window spans ~30 items, and a
	// selection halves the population inside the window.
	in := inputOf(t, `<r>{ for $w in stream("photons")/photons/photon |det_time diff 60 step 60|
		return <o>{ $w }</o> }</r>`)
	size, freq := e.SizeFreq(in)
	full := e.Stats["photons"].AvgItemSize
	if size < 25*full || size > 35*full {
		t.Errorf("diff window of ~30 items sized %v (item %v)", size, full)
	}
	if math.Abs(freq-100.0/30.0) > 0.2 {
		t.Errorf("diff window-contents freq = %v", freq)
	}
}

func TestWindowContentsSize(t *testing.T) {
	e := estimator(t)
	in := inputOf(t, `<r>{ for $w in stream("photons")/photons/photon |count 20 step 20|
		return <o>{ $w }</o> }</r>`)
	size, freq := e.SizeFreq(in)
	if math.Abs(freq-5) > 1e-9 {
		t.Errorf("window-contents freq = %v", freq)
	}
	full := e.Stats["photons"].AvgItemSize
	if size < 19*full || size > 22*full {
		t.Errorf("window of 20 items sized %v (item %v)", size, full)
	}
}

func TestCostFunction(t *testing.T) {
	m := DefaultModel()
	base := Usage{
		Links: []LinkUsage{{Ub: 0.2, Ab: 0.8}},
		Peers: []PeerUsage{{Ul: 0.1, Al: 0.9}},
	}
	c := m.Cost(base)
	if math.Abs(c-(0.5*0.2+0.5*0.1)) > 1e-12 {
		t.Errorf("cost = %v", c)
	}
	// Overload adds an exponential penalty.
	over := Usage{Links: []LinkUsage{{Ub: 1.5, Ab: 0.5}}}
	if m.Cost(over) <= 0.5*1.5 {
		t.Error("overload penalty missing")
	}
	if !over.Overloaded() || base.Overloaded() {
		t.Error("Overloaded() broken")
	}
	// γ=1 ignores peers entirely.
	m.Gamma = 1
	if m.Cost(Usage{Peers: []PeerUsage{{Ul: 5, Al: 0}}}) != 0 {
		t.Error("γ=1 should ignore peer load")
	}
}

func TestCostMonotonicInTraffic(t *testing.T) {
	m := DefaultModel()
	prev := -1.0
	for _, ub := range []float64{0.1, 0.3, 0.5, 0.9, 1.2, 2.0} {
		c := m.Cost(Usage{Links: []LinkUsage{{Ub: ub, Ab: 1}}})
		if c <= prev {
			t.Errorf("cost not monotone at ub=%v", ub)
		}
		prev = c
	}
}

func TestOpLoadScaling(t *testing.T) {
	m := DefaultModel()
	fast := &network.Peer{ID: "A", PerfIndex: 1}
	slow := &network.Peer{ID: "B", PerfIndex: 2}
	if m.OpLoad(OpSelect, slow, 10) != 2*m.OpLoad(OpSelect, fast, 10) {
		t.Error("pindex scaling broken")
	}
	if m.OpLoad(OpSelect, fast, 20) != 2*m.OpLoad(OpSelect, fast, 10) {
		t.Error("frequency scaling broken")
	}
	if m.ForwardLoad(fast, 10, 100) <= 0 {
		t.Error("forward load should be positive")
	}
}

func TestUnknownStream(t *testing.T) {
	e := NewEstimator(DefaultModel(), map[string]*stats.Stream{})
	in := inputOf(t, `<r>{ for $p in stream("nope")/r/i return <o>{ $p/x }</o> }</r>`)
	size, freq := e.SizeFreq(in)
	if size != 0 || freq != 0 {
		t.Errorf("unknown stream = %v/%v", size, freq)
	}
}
