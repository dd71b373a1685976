package core

import (
	"errors"
	"strings"
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/properties"
	"streamshare/internal/xmlstream"
)

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

// exampleNet builds the backbone of the paper's motivating example
// (Figs. 1/2) with SP4 as the photon source. The unique shortest path from
// SP4 to SP1 runs via SP5, matching the narrative of §1.
func exampleNet() *network.Network {
	n := network.New()
	for _, id := range []network.PeerID{"SP0", "SP1", "SP2", "SP3", "SP4", "SP5", "SP6", "SP7"} {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 3000, PerfIndex: 1})
	}
	bw := 12_500_000.0 // 100 Mbit/s
	for _, e := range [][2]network.PeerID{
		{"SP4", "SP5"}, {"SP5", "SP1"},
		{"SP4", "SP6"}, {"SP6", "SP7"}, {"SP5", "SP7"}, {"SP7", "SP1"},
		{"SP4", "SP2"}, {"SP2", "SP0"}, {"SP0", "SP1"}, {"SP1", "SP3"}, {"SP3", "SP5"},
	} {
		n.Connect(e[0], e[1], bw)
	}
	return n
}

func newEngine(t *testing.T, cfg Config) (*Engine, []*xmlstream.Element) {
	t.Helper()
	eng := NewEngine(exampleNet(), cfg)
	items, st := photons.Stream("photons", photons.DefaultConfig(), 42, 3000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	return eng, items
}

func TestSubscribeSharingPushesToSource(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	sub, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	feed := sub.Inputs[0].Feed
	if feed.Tap != "SP4" {
		t.Errorf("Q1 should be computed at the source SP4, got %s", feed.Tap)
	}
	want := []network.PeerID{"SP4", "SP5", "SP1"}
	if len(feed.Route) != len(want) {
		t.Fatalf("route = %v", feed.Route)
	}
	for i, p := range want {
		if feed.Route[i] != p {
			t.Fatalf("route = %v, want %v", feed.Route, want)
		}
	}
	if feed.Parent == nil || !feed.Parent.Original {
		t.Error("Q1 feed should derive from the original stream")
	}
	if len(feed.Residual.Ops) == 0 {
		t.Error("Q1's selection/projection should be installed in-network")
	}
}

// TestSubscribeSharingReusesAtSP5 is the paper's §1 narrative: Query 2,
// registered after Query 1, reuses Query 1's result stream, duplicated at
// SP5, and routes the filtered copy to SP7.
func TestSubscribeSharingReusesAtSP5(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	sub1, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := eng.Subscribe(q2, "SP7", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	feed2 := sub2.Inputs[0].Feed
	if feed2.Parent != sub1.Inputs[0].Feed {
		t.Fatalf("Q2 should reuse Q1's stream, parent = %s", feed2.Parent.ID)
	}
	if feed2.Tap != "SP5" {
		t.Errorf("Q2 should duplicate Q1's stream at SP5, got %s", feed2.Tap)
	}
	if feed2.Target() != "SP7" {
		t.Errorf("Q2 target = %s", feed2.Target())
	}
}

func TestSubscribeAggregateChain(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	sub3, err := eng.Subscribe(q3, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	sub4, err := eng.Subscribe(q4, "SP3", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if sub4.Inputs[0].Feed.Parent != sub3.Inputs[0].Feed {
		t.Errorf("Q4 should recompose Q3's aggregate stream, parent = %s",
			sub4.Inputs[0].Feed.Parent.ID)
	}
}

func TestStrategiesProduceIdenticalResults(t *testing.T) {
	queries := []struct {
		src string
		at  network.PeerID
	}{
		{q1, "SP1"}, {q2, "SP7"}, {q3, "SP1"}, {q4, "SP3"},
	}
	var collected []map[string][]*xmlstream.Element
	for _, strat := range []Strategy{DataShipping, QueryShipping, StreamSharing} {
		eng, items := newEngine(t, Config{})
		for _, q := range queries {
			if _, err := eng.Subscribe(q.src, q.at, strat); err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
		}
		res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items}, true)
		if err != nil {
			t.Fatal(err)
		}
		collected = append(collected, res.Collected)
	}
	for qi := 1; qi <= len(queries); qi++ {
		id := []string{"q1", "q2", "q3", "q4"}[qi-1]
		ds, qs, ss := collected[0][id], collected[1][id], collected[2][id]
		if len(ds) == 0 {
			t.Fatalf("%s: data shipping produced nothing", id)
		}
		if len(ds) != len(qs) {
			t.Errorf("%s: DS %d vs QS %d results", id, len(ds), len(qs))
		}
		// Stream sharing may lag by trailing windows when recomposing.
		n := len(ss)
		if n == 0 || n > len(ds) || len(ds)-n > 2 {
			t.Fatalf("%s: DS %d vs SS %d results", id, len(ds), n)
		}
		for i := 0; i < n; i++ {
			if !ds[i].Equal(ss[i]) {
				t.Fatalf("%s: item %d differs between DS and SS:\n%s\n%s",
					id, i, xmlstream.Marshal(ds[i]), xmlstream.Marshal(ss[i]))
			}
			if !ds[i].Equal(qs[i]) {
				t.Fatalf("%s: item %d differs between DS and QS", id, i)
			}
		}
	}
}

func TestSharingReducesTraffic(t *testing.T) {
	queries := []struct {
		src string
		at  network.PeerID
	}{
		{q1, "SP1"}, {q2, "SP7"}, {q1, "SP7"}, {q2, "SP3"}, {q3, "SP1"}, {q4, "SP3"},
	}
	var totals []float64
	for _, strat := range []Strategy{DataShipping, QueryShipping, StreamSharing} {
		eng, items := newEngine(t, Config{})
		for _, q := range queries {
			if _, err := eng.Subscribe(q.src, q.at, strat); err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
		}
		res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items}, false)
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, res.Metrics.TotalBytes())
	}
	ds, qs, ss := totals[0], totals[1], totals[2]
	if !(ss < qs && qs < ds) {
		t.Errorf("traffic should be SS < QS < DS, got DS=%.0f QS=%.0f SS=%.0f", ds, qs, ss)
	}
}

func TestIdenticalQuerySharedVerbatim(t *testing.T) {
	eng, items := newEngine(t, Config{})
	s1, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	f2 := s2.Inputs[0].Feed
	if f2.Parent != s1.Inputs[0].Feed || len(f2.Residual.Ops) != 0 || len(f2.Route) != 1 {
		t.Errorf("identical query at same peer should alias the stream: parent=%v ops=%d route=%v",
			f2.Parent.ID, len(f2.Residual.Ops), f2.Route)
	}
	res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results["q1"] == 0 || res.Results["q1"] != res.Results["q2"] {
		t.Errorf("both subscribers should see the same results: %v", res.Results)
	}
}

func TestAdmissionRejection(t *testing.T) {
	// Tiny capacities: the raw stream overloads every link, so data
	// shipping rejects; sharing computes at the source and the small result
	// fits.
	n := exampleNet()
	eng := NewEngine(n, Config{Admission: true})
	items, st := photons.Stream("photons", photons.DefaultConfig(), 1, 500)
	_ = items
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	// Raw stream ≈ size·freq bytes/s; pick bandwidth below that for every
	// link by rebuilding with a tight network.
	tight := network.New()
	for _, id := range n.Peers() {
		tight.AddPeer(*n.Peer(id))
	}
	rawBps := st.AvgItemSize * st.Freq
	for _, l := range n.Links() {
		tight.Connect(l.A, l.B, rawBps*0.5)
	}
	eng2 := NewEngine(tight, Config{Admission: true})
	if _, err := eng2.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Subscribe(q1, "SP1", DataShipping); !errors.Is(err, ErrRejected) {
		t.Errorf("data shipping should be rejected, got %v", err)
	}
	// Q2's result is small enough to fit.
	if _, err := eng2.Subscribe(q2, "SP1", StreamSharing); err != nil {
		t.Errorf("stream sharing should fit: %v", err)
	}
}

func TestSubscribeErrors(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	if _, err := eng.Subscribe(`<r>{ for $p in stream("nope")/r/i return <o>{ $p/x }</o> }</r>`, "SP1", StreamSharing); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("unknown stream: %v", err)
	}
	if _, err := eng.Subscribe("not a query", "SP1", StreamSharing); err == nil {
		t.Error("parse error expected")
	}
	if _, err := eng.Subscribe(q1, "nowhere", StreamSharing); err == nil {
		t.Error("unknown peer expected")
	}
	// Unsatisfiable subscriptions are rejected at registration (§3.3).
	unsat := `<r>{ for $p in stream("photons")/photons/photon where $p/en >= 10 and $p/en <= 5 return <o>{ $p/en }</o> }</r>`
	if _, err := eng.Subscribe(unsat, "SP1", StreamSharing); err == nil {
		t.Error("unsatisfiable subscription should be rejected")
	}
}

// TestSubscribeRefusesUnknownAggregate: a let-clause function other than
// sum, count, avg, min or max has no evaluator, so the engine refuses the
// subscription before planning and names the function. Installed, the typo
// below delivered every window as an empty element.
func TestSubscribeRefusesUnknownAggregate(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	typo := `<photons>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 20|
  let $a := averag($w/en) return <fine>{ $a }</fine> }</photons>`
	_, err := eng.Subscribe(typo, "SP1", StreamSharing)
	if !errors.Is(err, properties.ErrUnsupported) || !strings.Contains(err.Error(), "averag") {
		t.Fatalf("unknown aggregate: got %v, want ErrUnsupported naming averag", err)
	}
	if len(eng.Subscriptions()) != 0 || len(eng.Streams()) != 1 {
		t.Errorf("refused subscription left %d subscriptions, %d streams", len(eng.Subscriptions()), len(eng.Streams()))
	}
	if got := eng.Obs().Metrics.Snapshot().Counters["core.discovery.visited"]; got != 0 {
		t.Errorf("refused subscription was planned: %v peers visited", got)
	}
}

func TestRegStats(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	s1, _ := eng.Subscribe(q1, "SP1", StreamSharing)
	if s1.Reg.Messages <= 0 || s1.Reg.Visited == 0 {
		t.Errorf("reg stats = %+v", s1.Reg)
	}
	s2, _ := eng.Subscribe(q2, "SP7", StreamSharing)
	if s2.Reg.Candidates < 2 {
		t.Errorf("Q2 should have examined original + Q1 stream: %+v", s2.Reg)
	}
	if s2.Reg.Time(0) != s2.Reg.Compute {
		t.Error("Time(0) should equal compute time")
	}
	if s2.Reg.Time(1e6) <= s2.Reg.Compute {
		t.Error("modeled latency missing")
	}
}
