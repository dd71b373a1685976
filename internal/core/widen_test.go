package core

import (
	"math"
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/photons"
	"streamshare/internal/plan"
	"streamshare/internal/properties"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// Overlapping but mutually non-contained sky boxes: neither stream can
// serve the other directly, yet their union is barely larger than each box,
// so widening one stream is cheaper than shipping a second one.
const boxA = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 110.0 and $p/coord/cel/ra <= 130.0
  return <a> { $p/coord/cel/ra } { $p/en } </a> }
</photons>`

const boxB = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 125.0 and $p/coord/cel/ra <= 145.0
  return <b> { $p/coord/cel/ra } { $p/en } </b> }
</photons>`

// lineNet is a 5-peer chain so widening's single widened stream clearly
// beats two parallel streams from the source.
func lineNet() *network.Network {
	n := network.New()
	ids := []network.PeerID{"SRC", "N1", "N2", "N3", "END"}
	for _, id := range ids {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 50000, PerfIndex: 1})
	}
	for i := 0; i+1 < len(ids); i++ {
		n.Connect(ids[i], ids[i+1], 12_500_000)
	}
	return n
}

func widenEngines(t *testing.T) (plain, widening *Engine, items []*xmlstream.Element) {
	t.Helper()
	items, st := photons.Stream("photons", photons.DefaultConfig(), 5, 2500)
	plain = NewEngine(lineNet(), Config{})
	widening = NewEngine(lineNet(), Config{Widening: true})
	for _, e := range []*Engine{plain, widening} {
		if _, err := e.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SRC", st); err != nil {
			t.Fatal(err)
		}
	}
	return plain, widening, items
}

func TestWideningRewiresStream(t *testing.T) {
	_, eng, _ := widenEngines(t)
	s1, err := eng.Subscribe(boxA, "END", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Subscribe(boxB, "END", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := s1.Inputs[0].Feed, s2.Inputs[0].Feed
	// Disjoint boxes cannot share directly; with widening both queries end
	// up fed from the same widened stream.
	if f2.Parent == nil || f2.Parent.Original {
		t.Fatalf("Q2 should be fed from the widened stream, parent = %v", f2.Parent)
	}
	w := f2.Parent
	if f1.Parent != w {
		t.Errorf("Q1's feed should have been re-parented onto the widened stream, parent = %s", f1.Parent.ID)
	}
	// The widened stream took over Q1's original route; Q1's feed became a
	// local derivation at its target.
	if len(f1.Route) != 1 || f1.Tap != "END" {
		t.Errorf("rewired Q1 feed: tap=%s route=%v", f1.Tap, f1.Route)
	}
	if w.Tap != "SRC" || w.Target() != "END" {
		t.Errorf("widened stream: tap=%s route=%v", w.Tap, w.Route)
	}
}

func TestWideningPreservesResults(t *testing.T) {
	plain, widening, items := widenEngines(t)
	feed := map[string][]*xmlstream.Element{"photons": items}
	for _, q := range []struct {
		src string
		at  network.PeerID
	}{{boxA, "END"}, {boxB, "END"}} {
		if _, err := plain.Subscribe(q.src, q.at, StreamSharing); err != nil {
			t.Fatal(err)
		}
		if _, err := widening.Subscribe(q.src, q.at, StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	rp, err := plain.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := widening.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"q1", "q2"} {
		a, b := rp.Collected[id], rw.Collected[id]
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: plain %d vs widened %d results", id, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%s item %d differs:\n%s\n%s", id, i,
					xmlstream.Marshal(a[i]), xmlstream.Marshal(b[i]))
			}
		}
	}
	// The whole point: one widened stream on the backbone instead of two.
	if rw.Metrics.TotalBytes() >= rp.Metrics.TotalBytes() {
		t.Errorf("widening should reduce traffic: plain %.0f, widened %.0f",
			rp.Metrics.TotalBytes(), rw.Metrics.TotalBytes())
	}
}

func TestWideningOnlyWhenCheaper(t *testing.T) {
	// Queries at opposite ends: widening Q1's short stream to also serve a
	// subscriber next to the source would be pointless; the cost model must
	// route from the original instead.
	_, eng, _ := widenEngines(t)
	if _, err := eng.Subscribe(boxA, "N1", StreamSharing); err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Subscribe(boxB, "N1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	// Widening is allowed here (same target), so it may trigger; what must
	// hold is correctness of the decision: the feed delivers at N1.
	if s2.Inputs[0].Feed.Target() != "N1" {
		t.Errorf("feed target = %s", s2.Inputs[0].Feed.Target())
	}
}

func TestWideningDisabledByDefault(t *testing.T) {
	plain, _, _ := widenEngines(t)
	s1, _ := plain.Subscribe(boxA, "END", StreamSharing)
	s2, _ := plain.Subscribe(boxB, "END", StreamSharing)
	if !s1.Inputs[0].Feed.Parent.Original || !s2.Inputs[0].Feed.Parent.Original {
		t.Error("without widening, disjoint queries must route from the original")
	}
}

func TestWideningUsageAccounting(t *testing.T) {
	_, eng, _ := widenEngines(t)
	s1, _ := eng.Subscribe(boxA, "END", StreamSharing)
	s2, _ := eng.Subscribe(boxB, "END", StreamSharing)
	// Tearing both down must restore a clean slate (including the widened
	// stream, which has no consumers left).
	if err := eng.Unsubscribe(s2.ID); err != nil {
		t.Fatal(err)
	}
	if err := eng.Unsubscribe(s1.ID); err != nil {
		t.Fatal(err)
	}
	links, peers := totalUse(eng)
	if links < 0 || peers < 0 {
		t.Errorf("negative usage after teardown: links %v, peers %v", links, peers)
	}
	// The widened stream may linger if the old stream still references it;
	// what must not happen is negative accounting or dangling subscriptions.
	if len(eng.Subscriptions()) != 0 {
		t.Errorf("subscriptions left: %d", len(eng.Subscriptions()))
	}
}

// TestWideningAtSourcePeer widens a stream whose route is one peer — the
// first subscription sits at the source's own super-peer — so the rewiring
// delta has peer entries and no link entry. The widening plan must still
// carry the delta: what install leaves as the subscription's own footprint
// is what sharing the widened stream costs once it flows, and tearing down
// returns every peer and link to zero.
func TestWideningAtSourcePeer(t *testing.T) {
	_, eng, _ := widenEngines(t)
	s1, err := eng.Subscribe(boxA, "SRC", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	planB := func() *plan.Candidate {
		t.Helper()
		q, err := wxquery.Parse(boxB)
		if err != nil {
			t.Fatal(err)
		}
		props, err := properties.Build(q, properties.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dt := &obs.DecisionTrace{SubID: "probe"}
		c, err := eng.planner.PlanInput(q, props.Inputs[0], "END", StreamSharing, &RegStats{}, dt.Input("photons"))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	wc := planB()
	if wc.Widen == nil {
		t.Fatal("expected a widening plan")
	}
	if len(wc.Widen.DeltaLink) != 0 || len(wc.Widen.DeltaPeer) == 0 {
		t.Fatalf("one-peer route: delta links %v, peers %v", wc.Widen.DeltaLink, wc.Widen.DeltaPeer)
	}
	own := map[network.PeerID]float64{}
	for v, u := range wc.PeerAdd {
		own[v] = u - wc.Widen.DeltaPeer[v]
	}
	s2, err := eng.Subscribe(boxB, "END", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if w := s2.Inputs[0].Feed.Parent; w == nil || w.Original {
		t.Fatalf("q2 should be fed from the widened stream, parent = %v", w)
	}
	// With the widened stream flowing (the first query holds it) and q2
	// gone, the same query is an ordinary share of it: that plan's additions
	// are the widening plan's minus the delta.
	if err := eng.Unsubscribe(s2.ID); err != nil {
		t.Fatal(err)
	}
	share := planB()
	if share.Widen != nil || share.Source.Original {
		t.Fatalf("second plan should share the widened stream, source %s", share.Source.ID)
	}
	if len(share.PeerAdd) != len(own) {
		t.Errorf("widening plan touches %v, ordinary share %v", wc.PeerAdd, share.PeerAdd)
	}
	for v, u := range share.PeerAdd {
		if math.Abs(own[v]-u) > 1e-9*(1+math.Abs(u)) {
			t.Errorf("peer %s: widening plan's own share %v, ordinary share %v", v, own[v], u)
		}
	}
	if err := eng.Unsubscribe(s1.ID); err != nil {
		t.Fatal(err)
	}
	for _, v := range []network.PeerID{"SRC", "N1", "N2", "N3", "END"} {
		if u := eng.PeerLoad(v); u != 0 {
			t.Errorf("peer %s load after teardown = %v", v, u)
		}
	}
	if links, _ := totalUse(eng); links != 0 {
		t.Errorf("link use after teardown = %v", links)
	}
}
