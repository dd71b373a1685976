package core

import (
	"math/rand"
	"strings"
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/xmlstream"
)

// TestMultiInputSubscription registers a query over two streams; each input
// is planned independently and the combination happens at the target (§3.3:
// "each stream is handled individually by the subscription algorithm").
func TestMultiInputSubscription(t *testing.T) {
	eng, items := newEngine(t, Config{})
	cfg2 := photons.DefaultConfig()
	items2, st2 := photons.Stream("photons2", cfg2, 77, 3000)
	if _, err := eng.RegisterStream("photons2", xmlstream.ParsePath("photons/photon"), "SP6", st2); err != nil {
		t.Fatal(err)
	}
	src := `<both>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3
  return <a> { $p/en } </a> }
{ for $q in stream("photons2")/photons/photon
  where $q/en >= 2.0
  return <b> { $q/en } </b> }
</both>`
	sub, err := eng.Subscribe(src, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Inputs) != 2 {
		t.Fatalf("inputs = %d", len(sub.Inputs))
	}
	if sub.Inputs[0].Feed.Tap != "SP4" || sub.Inputs[1].Feed.Tap != "SP6" {
		t.Errorf("taps = %s, %s (want the two sources)",
			sub.Inputs[0].Feed.Tap, sub.Inputs[1].Feed.Tap)
	}
	res, err := eng.Simulate(map[string][]*xmlstream.Element{
		"photons": items, "photons2": items2,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	for _, it := range res.Collected[sub.ID] {
		switch it.Name {
		case "a":
			a++
		case "b":
			b++
		default:
			t.Fatalf("unexpected result element %s", it.Name)
		}
	}
	if a == 0 || b == 0 {
		t.Errorf("results from both inputs expected: a=%d b=%d", a, b)
	}
}

// TestFuzzyOrderRepair shuffles the photon stream within a small window; a
// sort buffer at the source restores the order so time-window results match
// the sorted stream's.
func TestFuzzyOrderRepair(t *testing.T) {
	agg := `<photons>
{ for $w in stream("photons")/photons/photon |det_time diff 20 step 10|
  let $a := sum($w/en)
  return <s> { $a } </s> }
</photons>`

	items, st := photons.Stream("photons", photons.DefaultConfig(), 3, 2500)
	fuzzy := append([]*xmlstream.Element(nil), items...)
	r := rand.New(rand.NewSource(1))
	for i := 0; i+4 < len(fuzzy); i += 5 {
		j := i + 1 + r.Intn(3)
		fuzzy[i], fuzzy[j] = fuzzy[j], fuzzy[i]
	}

	run := func(feed []*xmlstream.Element, repair bool) []*xmlstream.Element {
		eng := NewEngine(exampleNet(), Config{})
		if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
			t.Fatal(err)
		}
		if repair {
			if err := eng.RepairFuzzyOrder("photons", xmlstream.ParsePath("det_time"), 16); err != nil {
				t.Fatal(err)
			}
		}
		sub, err := eng.Subscribe(agg, "SP1", StreamSharing)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": feed}, true)
		if err != nil {
			t.Fatal(err)
		}
		return res.Collected[sub.ID]
	}

	want := run(items, false)
	got := run(fuzzy, true)
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("windows: sorted %d, repaired %d", len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("window %d differs: %s vs %s", i,
				xmlstream.Marshal(want[i]), xmlstream.Marshal(got[i]))
		}
	}
}

func TestExplainAndStrategyString(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	s1, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Subscribe(q2, "SP7", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	e1 := s1.Explain()
	for _, want := range []string{"q1 at SP1", "original stream", "select", "restructure"} {
		if !strings.Contains(e1, want) {
			t.Errorf("Explain(q1) lacks %q:\n%s", want, e1)
		}
	}
	e2 := s2.Explain()
	if !strings.Contains(e2, "shared stream") {
		t.Errorf("Explain(q2) should name the reused stream:\n%s", e2)
	}
	for s, want := range map[Strategy]string{
		DataShipping: "Data Shipping", QueryShipping: "Query Shipping", StreamSharing: "Stream Sharing",
	} {
		if s.String() != want {
			t.Errorf("Strategy(%d).String() = %s", int(s), s)
		}
	}
}

// TestRegistrationOrderIndependence: registering the same queries in
// reverse order changes which streams get shared (sharing is incremental,
// §5: "we incrementally optimize queries one after another"), but the
// delivered results are identical.
func TestRegistrationOrderIndependence(t *testing.T) {
	queries := []struct {
		src string
		at  string
	}{
		{q1, "SP1"}, {q2, "SP7"}, {q3, "SP3"}, {q4, "SP5"},
	}
	run := func(reverse bool) map[string]int {
		eng, items := newEngine(t, Config{})
		order := make([]int, len(queries))
		for i := range order {
			order[i] = i
			if reverse {
				order[i] = len(queries) - 1 - i
			}
		}
		// Map the engine-assigned ids back to the query index.
		byQuery := map[int]string{}
		for _, qi := range order {
			sub, err := eng.Subscribe(queries[qi].src, network.PeerID(queries[qi].at), StreamSharing)
			if err != nil {
				t.Fatal(err)
			}
			byQuery[qi] = sub.ID
		}
		res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items}, false)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for qi, id := range byQuery {
			out[queries[qi].src[:30]+queries[qi].at] = res.Results[id]
			_ = qi
		}
		return out
	}
	fwd, rev := run(false), run(true)
	for k, n := range fwd {
		if n == 0 {
			t.Errorf("%q produced nothing", k)
		}
		if n != rev[k] {
			t.Errorf("%q: forward %d vs reverse %d results", k, n, rev[k])
		}
	}
}

// TestAdmissionNeverOvercommits: with admission control on, the analytic
// reservations never exceed any link's bandwidth or peer's capacity, no
// matter how many subscriptions are thrown at the engine.
func TestAdmissionNeverOvercommits(t *testing.T) {
	items, st := photons.Stream("photons", photons.DefaultConfig(), 2, 600)
	_ = items
	rawBps := st.AvgItemSize * st.Freq
	tight := exampleNet2(rawBps * 2.5) // room for ~2 raw streams per link
	eng := NewEngine(tight, Config{Admission: true})
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	accepted, rejected := 0, 0
	targets := tight.SuperPeers()
	for i := 0; i < 40; i++ {
		if _, err := eng.Subscribe(q1, targets[i%len(targets)], DataShipping); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("expected a mix, got %d accepted / %d rejected", accepted, rejected)
	}
	for _, l := range tight.Links() {
		if e := eng.LinkLoad(l); e > tight.Link(l.A, l.B).Bandwidth+1e-6 {
			t.Errorf("link %s over-committed: %v of %v", l, e, tight.Link(l.A, l.B).Bandwidth)
		}
	}
	for _, p := range tight.Peers() {
		if e := eng.PeerLoad(p); e > tight.Peer(p).Capacity+1e-6 {
			t.Errorf("peer %s over-committed: %v of %v", p, e, tight.Peer(p).Capacity)
		}
	}
}

func TestRepairFuzzyOrderUnknownStream(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	if err := eng.RepairFuzzyOrder("nope", xmlstream.ParsePath("t"), 4); err == nil {
		t.Error("unknown stream should error")
	}
}
