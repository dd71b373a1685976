package adapt

import (
	"slices"
	"strings"
	"testing"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/photons"
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
)

// testEngine builds the paper's example backbone (SP0–SP7, photon source at
// SP4) with the given link bandwidth.
func testEngine(t *testing.T, bw float64) *core.Engine {
	t.Helper()
	n := network.New()
	for _, id := range []network.PeerID{"SP0", "SP1", "SP2", "SP3", "SP4", "SP5", "SP6", "SP7"} {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 3000, PerfIndex: 1})
	}
	for _, e := range [][2]network.PeerID{
		{"SP4", "SP5"}, {"SP5", "SP1"},
		{"SP4", "SP6"}, {"SP6", "SP7"}, {"SP5", "SP7"}, {"SP7", "SP1"},
		{"SP4", "SP2"}, {"SP2", "SP0"}, {"SP0", "SP1"}, {"SP1", "SP3"}, {"SP3", "SP5"},
	} {
		n.Connect(e[0], e[1], bw)
	}
	eng := core.NewEngine(n, core.Config{})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 42, 3000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestManagerRepairsLinkFailure(t *testing.T) {
	eng := testEngine(t, 12_500_000)
	sub, err := eng.Subscribe(q1, "SP1", core.StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(eng)
	reports, err := m.Apply(Event{Kind: FailLink, A: "SP5", B: "SP1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Sub != sub.ID || reports[0].Outcome != Repaired {
		t.Fatalf("reports = %v", reports)
	}
	if reports[0].Latency <= 0 {
		t.Error("repair latency should be measured")
	}
	if len(eng.Affected()) != 0 {
		t.Error("nothing should remain affected")
	}
	snap := eng.Obs().Metrics.Snapshot()
	if snap.Counters["adapt.repairs.total"] != 1 || snap.Counters["adapt.events.fail_link"] != 1 {
		t.Errorf("counters = %v", snap.Counters)
	}
}

func TestManagerReportsRejection(t *testing.T) {
	eng := testEngine(t, 12_500_000)
	if _, err := eng.Subscribe(q1, "SP1", core.StreamSharing); err != nil {
		t.Fatal(err)
	}
	m := NewManager(eng)
	reports, err := m.ApplyAll([]Event{{Kind: FailPeer, Peer: "SP1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Outcome != Rejected || reports[0].Err == "" {
		t.Fatalf("reports = %v", reports)
	}
	if len(eng.Subscriptions()) != 0 {
		t.Error("rejected subscription should be torn down")
	}
	if got := eng.Obs().Metrics.Snapshot().Counters["adapt.repairs.rejected"]; got != 1 {
		t.Errorf("adapt.repairs.rejected = %v", got)
	}
}

// TestManagerFailRestoreReoptimize drives the full cycle on a bandwidth-
// tight network: failure forces a detour, restore + reopt migrates back.
func TestManagerFailRestoreReoptimize(t *testing.T) {
	eng := testEngine(t, 5000)
	sub, err := eng.Subscribe(q1, "SP1", core.StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(eng)
	evs, err := ParseSchedule("fail:SP4-SP5; restore:SP4-SP5, reopt")
	if err != nil {
		t.Fatal(err)
	}
	reports, err := m.ApplyAll(evs)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []string
	for _, r := range reports {
		outcomes = append(outcomes, r.Outcome.String())
	}
	if got := strings.Join(outcomes, " "); got != "repaired migrated" {
		t.Fatalf("outcomes = %q, want \"repaired migrated\"", got)
	}
	if got := len(sub.Inputs[0].Feed.Route); got != 3 {
		t.Errorf("after migration the route should be the direct one, got %v", sub.Inputs[0].Feed.Route)
	}
	if got := eng.Obs().Metrics.Snapshot().Counters["adapt.migrations.total"]; got != 1 {
		t.Errorf("adapt.migrations.total = %v", got)
	}
}

func TestManagerUnsubscribeTriggersMigration(t *testing.T) {
	eng := testEngine(t, 5000)
	// q1 at SP7 saturates SP4-SP5 and SP5-SP7 enough that a later identical
	// plan matters less than the shape: register q1 twice so the second
	// shares the first's stream, then drop the first and check the pass runs.
	s1, err := eng.Subscribe(q1, "SP1", core.StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(q2, "SP7", core.StreamSharing); err != nil {
		t.Fatal(err)
	}
	m := NewManager(eng)
	if _, err := m.Apply(Event{Kind: Unsubscribe, Sub: s1.ID}); err != nil {
		t.Fatal(err)
	}
	if slices.ContainsFunc(eng.Subscriptions(), func(s *core.Subscription) bool { return s.ID == s1.ID }) {
		t.Error("unsubscribed subscription still present")
	}
	if got := eng.Obs().Metrics.Snapshot().Counters["adapt.events.unsubscribe"]; got != 1 {
		t.Errorf("adapt.events.unsubscribe = %v", got)
	}
}

func TestManagerGrowsTopology(t *testing.T) {
	eng := testEngine(t, 12_500_000)
	m := NewManager(eng)
	evs, err := ParseSchedule("addpeer:SP8=3000, addlink:SP4-SP8=12500000, addlink:SP8-SP1=12500000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyAll(evs); err != nil {
		t.Fatal(err)
	}
	if eng.Net.Peer("SP8") == nil || eng.Net.Link("SP4", "SP8") == nil {
		t.Fatal("new peer/link missing")
	}
	// The new two-hop backbone is usable immediately.
	sub, err := eng.Subscribe(q1, "SP8", core.StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Inputs[0].Feed.Target() != "SP8" {
		t.Errorf("feed ends at %s", sub.Inputs[0].Feed.Target())
	}
	// Re-applying the same join fails gracefully.
	if _, err := m.Apply(Event{Kind: AddPeer, Peer: "SP8", Value: 3000}); err == nil {
		t.Error("duplicate addpeer should error")
	}
}

func TestApplyErrors(t *testing.T) {
	eng := testEngine(t, 12_500_000)
	m := NewManager(eng)
	for _, ev := range []Event{
		{Kind: FailPeer, Peer: "nope"},
		{Kind: FailLink, A: "SP0", B: "SP7"},
		{Kind: Unsubscribe, Sub: "q99"},
		{Kind: AddLink, A: "SP0", B: "SP1", Value: 1000},
		{Kind: SetCapacity, Peer: "SP0", Value: -1},
		{Kind: Kind(99)},
	} {
		if _, err := m.Apply(ev); err == nil {
			t.Errorf("%v should fail", ev)
		}
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	src := "fail:SP6; fail:SP1-SP2, restore:SP6; addpeer:SP9=50000; addlink:SP8-SP9=1.25e+07; cap:SP5=1000; bw:SP0-SP1=125000; unsub:q3; reopt"
	evs, err := ParseSchedule(src)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{FailPeer, FailLink, RestorePeer, AddPeer, AddLink, SetCapacity, SetBandwidth, Unsubscribe, Reoptimize}
	if len(evs) != len(wantKinds) {
		t.Fatalf("parsed %d events, want %d", len(evs), len(wantKinds))
	}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, ev.Kind, wantKinds[i])
		}
		back, err := ParseEvent(ev.String())
		if err != nil {
			t.Errorf("%v does not re-parse: %v", ev, err)
		} else if back != ev {
			t.Errorf("round trip changed event: %v → %v", ev, back)
		}
	}
}

func TestParseEventErrors(t *testing.T) {
	for _, src := range []string{
		"", "fail", "fail:", "fail:SP0-", "fail:-SP1", "explode:SP1",
		"fail:SP1=3", "cap:SP5", "cap:SP5=x", "cap:SP5=-3", "cap:SP5=0",
		"addlink:SP1=5", "addpeer:SP1-SP2=5", "unsub:a-b", "unsub:q1=2",
		"bw:SP0:SP1=5", "cap:SP 5=3",
	} {
		if _, err := ParseEvent(src); err == nil {
			t.Errorf("ParseEvent(%q) should fail", src)
		}
	}
	if _, err := ParseSchedule("fail:SP5, nope"); err == nil {
		t.Error("bad schedule should fail")
	}
}
