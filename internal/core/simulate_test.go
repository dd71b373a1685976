package core

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/xmlstream"
)

func TestSimResultMetricsMath(t *testing.T) {
	eng, items := newEngine(t, Config{})
	if _, err := eng.Subscribe(q1, "SP1", StreamSharing); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Duration = items / frequency.
	want := float64(len(items)) / eng.origStats["photons"].Freq
	if math.Abs(res.Duration-want) > 1e-9 {
		t.Errorf("duration = %v, want %v", res.Duration, want)
	}
	// LinkKbps inverts to the recorded bytes.
	l := network.MakeLinkID("SP4", "SP5")
	kbps := res.LinkKbps(l)
	if got := kbps * 1000 / 8 * res.Duration; math.Abs(got-res.Metrics.LinkBytes[l]) > 1e-6 {
		t.Errorf("LinkKbps inversion: %v vs %v", got, res.Metrics.LinkBytes[l])
	}
	// AvgCPUPercent inverts to work units.
	p := network.PeerID("SP4")
	cpu := res.AvgCPUPercent(eng.Net, p)
	if got := cpu / 100 * res.Duration * eng.Net.Peer(p).Capacity; math.Abs(got-res.Metrics.PeerWork[p]) > 1e-6 {
		t.Errorf("AvgCPUPercent inversion: %v vs %v", got, res.Metrics.PeerWork[p])
	}
	// PeerMbit counts both endpoints of each incident link.
	mbit := res.PeerMbit("SP5")
	var bytes float64
	for lid, b := range res.Metrics.LinkBytes {
		if lid.A == "SP5" || lid.B == "SP5" {
			bytes += b
		}
	}
	if math.Abs(mbit-bytes*8/1e6) > 1e-9 {
		t.Errorf("PeerMbit = %v, want %v", mbit, bytes*8/1e6)
	}
}

func TestSimulateZeroDuration(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	if _, err := eng.Subscribe(q1, "SP1", StreamSharing); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": nil}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 0 {
		t.Errorf("duration = %v", res.Duration)
	}
	if res.AvgCPUPercent(eng.Net, "SP4") != 0 || res.LinkKbps(network.MakeLinkID("SP4", "SP5")) != 0 {
		t.Error("zero-duration metrics should be zero, not NaN")
	}
}

// TestSimulateUnknownStream: a feed naming an unknown stream is refused
// before any item is simulated, whichever stream the feed map yields first.
func TestSimulateUnknownStream(t *testing.T) {
	eng, items := newEngine(t, Config{})
	if _, err := eng.Subscribe(q1, "SP1", StreamSharing); err != nil {
		t.Fatal(err)
	}
	eng.obs.Latency.SetRate(1) // every simulated item starts a span
	for i := 0; i < 20; i++ {
		if _, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items[:10], "nope": nil}, false); err == nil {
			t.Fatal("unknown stream should error")
		}
	}
	if n := eng.obs.Metrics.Snapshot().Counters["latency.spans.started"]; n != 0 {
		t.Errorf("a refused feed simulated %v items", n)
	}
}

// TestSimulatePlanOrder: with two original streams, Simulate feeds them in
// plan order, so the order in which a shared peer's work is summed — and
// with it every bit of the metrics — is the same on every call.
func TestSimulatePlanOrder(t *testing.T) {
	eng, items := newEngine(t, Config{})
	items2, st2 := photons.Stream("photons2", photons.DefaultConfig(), 77, 3000)
	if _, err := eng.RegisterStream("photons2", xmlstream.ParsePath("photons/photon"), "SP6", st2); err != nil {
		t.Fatal(err)
	}
	both := `<both>
{ for $p in stream("photons")/photons/photon where $p/en >= 1.3 return <a> { $p/en } </a> }
{ for $q in stream("photons2")/photons/photon where $q/en >= 2.0 return <b> { $q/en } </b> }
</both>`
	for _, at := range []network.PeerID{"SP1", "SP7", "SP5"} {
		for _, q := range []string{both, q1, q3} {
			if _, err := eng.Subscribe(q, at, StreamSharing); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed := map[string][]*xmlstream.Element{"photons": items[:500], "photons2": items2[:500]}
	var first *network.Metrics
	for i := 0; i < 20; i++ {
		res, err := eng.Simulate(feed, false)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Metrics
			continue
		}
		if !sameBits(res.Metrics.LinkBytes, first.LinkBytes) || !sameBits(res.Metrics.PeerWork, first.PeerWork) {
			t.Fatalf("call %d: metrics differ from the first call's\n%v\n%v", i, res.Metrics, first)
		}
	}
}

// sameBits reports whether a and b hold bit-identical values under the
// same keys.
func sameBits[K comparable](a, b map[K]float64) bool {
	return maps.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestSimulateCollectToggle(t *testing.T) {
	eng, items := newEngine(t, Config{})
	if _, err := eng.Subscribe(q1, "SP1", StreamSharing); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items[:500]}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collected != nil {
		t.Error("collect=false should not retain items")
	}
	if res.Results["q1"] == 0 {
		t.Error("counts should still be recorded")
	}
}

// TestSimulateWindowFlushOrder: a derived aggregate stream (child of a
// shared stream) must flush after its parent, so windows closed by the
// parent's flush are not lost.
func TestSimulateWindowFlushOrder(t *testing.T) {
	eng, items := newEngine(t, Config{})
	if _, err := eng.Subscribe(q1, "SP1", StreamSharing); err != nil {
		t.Fatal(err)
	}
	// Q3 aggregates over Q1's shared stream.
	sub3, err := eng.Subscribe(q3, "SP3", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if sub3.Inputs[0].Feed.Parent.Original {
		t.Skip("plan did not chain (topology change?)")
	}
	res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[sub3.ID] == 0 {
		t.Error("chained aggregate produced nothing")
	}
}

func TestLoadAccounting(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	if eng.LinkLoad(network.MakeLinkID("SP4", "SP5")) != 0 {
		t.Error("fresh engine should have no link load")
	}
	if _, err := eng.Subscribe(q1, "SP1", StreamSharing); err != nil {
		t.Fatal(err)
	}
	// Q1's stream flows SP4→SP5→SP1 at its estimated rate.
	feed := eng.Subscriptions()[0].Inputs[0].Feed
	want := feed.Size * feed.Freq
	for _, l := range network.PathLinks(feed.Route) {
		if got := eng.LinkLoad(l); math.Abs(got-want) > 1e-9 {
			t.Errorf("link %s load = %v, want %v", l, got, want)
		}
	}
	if eng.PeerLoad("SP4") <= 0 {
		t.Error("operators at SP4 should contribute load")
	}
}

// The stateful shapes whose operators keep stream positions between items:
// a fine diff window and a coarser one recomposed from it (WindowMerge), a
// count window, and window contents. cleanRunEngine adds the §2 sort buffer
// on the original stream.
const (
	fineQ     = `<photons>{ for $w in stream("photons")/photons/photon |det_time diff 10 step 10| let $a := sum($w/en) return <fine>{ $a }</fine> }</photons>`
	coarseQ   = `<photons>{ for $w in stream("photons")/photons/photon |det_time diff 40 step 20| let $a := sum($w/en) return <coarse>{ $a }</coarse> }</photons>`
	countQ    = `<photons>{ for $w in stream("photons")/photons/photon |count 20 step 10| let $c := count($w/en) return <n>{ $c }</n> }</photons>`
	contentsQ = `<photons>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 10| return <batch>{ $w/en }</batch> }</photons>`
)

// cleanRunEngine builds the engine the clean-run tests feed; twin calls are
// identical.
func cleanRunEngine(t testing.TB) *Engine {
	t.Helper()
	eng := NewEngine(exampleNet(), Config{})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 42, 3000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	if err := eng.RepairFuzzyOrder("photons", xmlstream.ParsePath("det_time"), 8); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{fineQ, coarseQ, countQ, contentsQ} {
		if _, err := eng.Subscribe(q, "SP1", StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(eng.Subscriptions()[1].Explain(), "window-merge") {
		t.Fatalf("the coarse window is not recomposed from the fine one:\n%s", eng.Subscriptions()[1].Explain())
	}
	return eng
}

// runFeed is what the server's RUN feeds the one original stream on its
// k-th call: a fresh photon generator per call, so det_time starts again.
func runFeed(k int) map[string][]*xmlstream.Element {
	return map[string][]*xmlstream.Element{"photons": photons.NewGenerator(photons.DefaultConfig(), int64(k)).Generate(400)}
}

// sameItems fails t unless got equals want item for item.
func sameItems(t testing.TB, label string, got, want []*xmlstream.Element) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: the reference delivered nothing", label)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s item %d: %s, reference %s", label, i, xmlstream.Marshal(got[i]), xmlstream.Marshal(want[i]))
		}
	}
}

// TestRunsStartClean feeds one engine three streams the way successive RUN
// commands do and holds each Simulate to a fresh engine's: no operator
// position — a merge's next coarse window, a count window's item index, a
// sort buffer's release mark — carries from one run into the next.
func TestRunsStartClean(t *testing.T) {
	eng := cleanRunEngine(t)
	for k := 1; k <= 3; k++ {
		got, err := eng.Simulate(runFeed(k), true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cleanRunEngine(t).Simulate(runFeed(k), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range eng.Subscriptions() {
			sameItems(t, fmt.Sprintf("run %d %s", k, sub.ID), got.Collected[sub.ID], want.Collected[sub.ID])
		}
	}
}
