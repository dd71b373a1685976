package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/photons"
	"streamshare/internal/xmlstream"
)

const velaQ = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0
  and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0
  return <vela> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/phc } { $p/en } { $p/det_time } </vela> }
</photons>`

const rxjQ = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3
  and $p/coord/cel/ra >= 130.5 and $p/coord/cel/ra <= 135.5
  and $p/coord/cel/dec >= -48.0 and $p/coord/cel/dec <= -45.0
  return <rxj> { $p/coord/cel/ra } { $p/en } </rxj> }
</photons>`

const aggQ = `<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0]
  |det_time diff 20 step 10|
  let $a := avg($w/en)
  return <avg_en> { $a } </avg_en> }
</photons>`

func testNet() *network.Network {
	n := network.New()
	ids := []network.PeerID{"SP0", "SP1", "SP2", "SP3", "SP4", "SP5"}
	for _, id := range ids {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 20000, PerfIndex: 1})
	}
	edges := [][2]network.PeerID{
		{"SP0", "SP1"}, {"SP1", "SP2"}, {"SP2", "SP3"},
		{"SP1", "SP4"}, {"SP4", "SP5"}, {"SP5", "SP3"},
	}
	for _, e := range edges {
		n.Connect(e[0], e[1], 12_500_000)
	}
	return n
}

func setup(t *testing.T, strat core.Strategy) (*core.Engine, []*xmlstream.Element) {
	t.Helper()
	eng := core.NewEngine(testNet(), core.Config{})
	items, st := photons.Stream("photons", photons.DefaultConfig(), 13, 2000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		src string
		at  network.PeerID
	}{{velaQ, "SP3"}, {rxjQ, "SP2"}, {aggQ, "SP5"}, {velaQ, "SP4"}} {
		if _, err := eng.Subscribe(q.src, q.at, strat); err != nil {
			t.Fatal(err)
		}
	}
	return eng, items
}

// TestDistributedMatchesSimulator is the backend-equivalence check: the
// concurrent runtime (with real wire serialization on every hop) must
// produce exactly the results, traffic and work of the in-process
// simulator.
func TestDistributedMatchesSimulator(t *testing.T) {
	for _, strat := range []core.Strategy{core.DataShipping, core.QueryShipping, core.StreamSharing} {
		eng, items := setup(t, strat)
		feed := map[string][]*xmlstream.Element{"photons": items}

		sim, err := eng.Simulate(feed, true)
		if err != nil {
			t.Fatal(err)
		}
		// A twin engine with identical plans for the distributed run (a run
		// on eng itself would see the same plan and start as clean).
		eng2, items2 := setup(t, strat)
		rt := New(eng2, true)
		dist, err := rt.Run(map[string][]*xmlstream.Element{"photons": items2})
		if err != nil {
			t.Fatal(err)
		}

		compareInOrder(t, strat.String(), sim, dist)
	}
}

// compareInOrder holds a single-process run to the simulator: counts,
// traffic and work (chaosCompare), and every subscription's collected items
// one by one in delivery order.
func compareInOrder(t *testing.T, label string, sim *core.SimResult, dist *Result) {
	t.Helper()
	chaosCompare(t, label, sim, dist)
	for id, a := range sim.Collected {
		b := dist.Collected[id]
		if len(a) != len(b) {
			t.Fatalf("%s/%s: %d vs %d items", label, id, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%s/%s item %d differs:\n%s\n%s", label, id, i,
					xmlstream.Marshal(a[i]), xmlstream.Marshal(b[i]))
			}
		}
	}
}

// TestCollectedOutputsOutliveTheirBatch holds a collecting Run to the rule
// that a result owns what its operators built it with: in 3-item batches a
// run builds its results in hundreds of per-batch slabs, and a window
// subscription's WindowContents keeps items across batches. Every result
// must equal the simulator's (64-item batches) once the run is over, and
// still read as it did after a second run on the same engine has built its
// own.
func TestCollectedOutputsOutliveTheirBatch(t *testing.T) {
	eng, items := setup(t, core.StreamSharing)
	const windowQ = `<r>{ for $w in stream("photons")/photons/photon [en >= 1.3] |count 5 step 3| return <hot>{ $w/en }{ $w/coord/cel }</hot> }</r>`
	win, err := eng.Subscribe(windowQ, "SP3", core.StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	feed := map[string][]*xmlstream.Element{"photons": items}
	sim, err := eng.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.BatchSize = 3
	first, err := NewWith(eng, true, opts).Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string][]string{}
	for id, outs := range first.Collected {
		for _, e := range outs {
			texts[id] = append(texts[id], xmlstream.Marshal(e))
		}
	}
	if _, err := NewWith(eng, true, opts).Run(feed); err != nil {
		t.Fatal(err)
	}
	goruntime.GC()
	if n := len(sim.Collected[win.ID]); n < 20 {
		t.Fatalf("the window subscription has %d results: too few to span batches", n)
	}
	for id, want := range sim.Collected {
		got := first.Collected[id]
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, the simulator has %d", id, len(got), len(want))
		}
		for i := range want {
			if now := xmlstream.Marshal(got[i]); now != texts[id][i] {
				t.Fatalf("%s result %d changed after a later run:\n when run %s\n now      %s", id, i, texts[id][i], now)
			}
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s result %d is %s, the simulator gives %s", id, i, texts[id][i], xmlstream.Marshal(want[i]))
			}
		}
	}
}

// fuzzyBuild registers a fuzzily ordered photon stream (every fifth item
// swapped up to three places forward) at the given source peer with the §2
// sort buffer attached, and one windowed aggregate over it at target. Twin
// builds are identical.
func fuzzyBuild(t *testing.T, at, target network.PeerID) (*core.Engine, map[string][]*xmlstream.Element) {
	t.Helper()
	eng := core.NewEngine(testNet(), core.Config{})
	items, st := photons.Stream("photons", photons.DefaultConfig(), 3, 2500)
	r := rand.New(rand.NewSource(1))
	for i := 0; i+4 < len(items); i += 5 {
		j := i + 1 + r.Intn(3)
		items[i], items[j] = items[j], items[i]
	}
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), at, st); err != nil {
		t.Fatal(err)
	}
	if err := eng.RepairFuzzyOrder("photons", xmlstream.ParsePath("det_time"), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(aggQ, target, core.StreamSharing); err != nil {
		t.Fatal(err)
	}
	return eng, map[string][]*xmlstream.Element{"photons": items}
}

// TestDistributedFuzzyOrderMatchesSimulator: an original stream's residual —
// the sort buffer Engine.RepairFuzzyOrder attaches — runs at the source in
// the runtime exactly as in the simulator: same windows, same bytes, same
// work.
func TestDistributedFuzzyOrderMatchesSimulator(t *testing.T) {
	engSim, feed := fuzzyBuild(t, "SP0", "SP5")
	sim, err := engSim.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Collected["q1"]) == 0 {
		t.Fatal("simulator delivered no windows")
	}
	eng, feed := fuzzyBuild(t, "SP0", "SP5")
	dist, err := New(eng, true).Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	compareInOrder(t, "fuzzy", sim, dist)
}

func TestDistributedMultiStream(t *testing.T) {
	eng := core.NewEngine(testNet(), core.Config{})
	itemsA, stA := photons.Stream("photons", photons.DefaultConfig(), 1, 800)
	itemsB, stB := photons.Stream("photons2", photons.DefaultConfig(), 2, 800)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", stA); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterStream("photons2", xmlstream.ParsePath("photons/photon"), "SP3", stB); err != nil {
		t.Fatal(err)
	}
	q2 := `<photons>
{ for $p in stream("photons2")/photons/photon
  where $p/en >= 1.0
  return <hit> { $p/en } </hit> }
</photons>`
	s1, err := eng.Subscribe(velaQ, "SP2", core.StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Subscribe(q2, "SP2", core.StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(eng, false).Run(map[string][]*xmlstream.Element{
		"photons": itemsA, "photons2": itemsB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[s1.ID] == 0 || res.Results[s2.ID] == 0 {
		t.Errorf("results = %v", res.Results)
	}
}

func TestDistributedEmptyFeed(t *testing.T) {
	eng, _ := setup(t, core.StreamSharing)
	res, err := New(eng, true).Run(map[string][]*xmlstream.Element{"photons": nil})
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range res.Results {
		if n != 0 {
			t.Errorf("%s produced %d items from an empty stream", id, n)
		}
	}
	if res.Metrics.TotalBytes() != 0 {
		t.Errorf("traffic %v from empty stream", res.Metrics.TotalBytes())
	}
}

func TestDistributedDeterministicPerSubscription(t *testing.T) {
	// Two runs deliver identical per-subscription sequences even though
	// node scheduling differs.
	run := func() map[string][]string {
		eng, items := setup(t, core.StreamSharing)
		res, err := New(eng, true).Run(map[string][]*xmlstream.Element{"photons": items})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]string{}
		for id, its := range res.Collected {
			for _, it := range its {
				out[id] = append(out[id], xmlstream.Marshal(it))
			}
		}
		return out
	}
	a, b := run(), run()
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if len(a[id]) != len(b[id]) {
			t.Fatalf("%s: %d vs %d items across runs", id, len(a[id]), len(b[id]))
		}
		for i := range a[id] {
			if a[id][i] != b[id][i] {
				t.Fatalf("%s item %d differs across runs", id, i)
			}
		}
	}
}

// batchMsg builds a white-box test message carrying k (nil) items.
func batchMsg(k int) message {
	return message{elems: make([]*xmlstream.Element, k)}
}

// TestInboxHighWaterMark drives an inbox through a known push/drain
// schedule and checks the reported depth at every step: the high-water mark
// counts items (not batches), rises with queued backlog, and never falls
// when the queue drains.
func TestInboxHighWaterMark(t *testing.T) {
	b := newInbox()
	if got := b.highWater(); got != 0 {
		t.Fatalf("fresh inbox hwm = %d, want 0", got)
	}
	// Two batches of 2 and 3 items: depth peaks at 5 items.
	b.push(batchMsg(2))
	b.push(batchMsg(3))
	if got := b.highWater(); got != 5 {
		t.Fatalf("after 2+3 items hwm = %d, want 5", got)
	}
	// Drain the lane (both messages leave at once), then queue 3: depth
	// reaches only 3, hwm must hold at 5.
	ln, msgs, ok := b.next()
	if !ok || len(msgs) != 2 {
		t.Fatalf("next returned %d messages, ok=%v; want 2 messages", len(msgs), ok)
	}
	b.done(ln, msgs)
	b.push(batchMsg(3))
	if got := b.highWater(); got != 5 {
		t.Fatalf("hwm after drain = %d, want 5 (high-water must not fall)", got)
	}
	// Push past the old peak; an EOS marker counts one unit.
	b.push(batchMsg(3))
	b.push(message{eos: true})
	if got := b.highWater(); got != 7 {
		t.Fatalf("hwm after backlog of 7 = %d, want 7", got)
	}
}

// TestInboxLaneSerialization checks the one-owner-per-lane invariant: a
// push to a lane a worker currently owns must not reschedule it (two
// workers on one stream would break per-subscription order), and releasing
// the lane with pending messages requeues it.
func TestInboxLaneSerialization(t *testing.T) {
	b := newInbox()
	b.push(batchMsg(1))
	ln, msgs, ok := b.next()
	if !ok {
		t.Fatal("next failed on non-empty inbox")
	}
	b.push(batchMsg(1)) // arrives while the lane is owned
	b.mu.Lock()
	queued := len(b.runq)
	b.mu.Unlock()
	if queued != 0 {
		t.Fatalf("owned lane was rescheduled (runq len %d); a stream must have one consumer", queued)
	}
	b.done(ln, msgs)
	b.mu.Lock()
	queued = len(b.runq)
	b.mu.Unlock()
	if queued != 1 {
		t.Fatalf("lane with pending messages not requeued on done (runq len %d)", queued)
	}
}

// TestRuntimePublishesMailboxHWM checks that after a run every peer has a
// high-water gauge in the engine's metrics registry matching MailboxHWM, and
// that the source peer (which receives every injected item) saw at least one
// queued message.
func TestRuntimePublishesMailboxHWM(t *testing.T) {
	eng, items := setup(t, core.StreamSharing)
	rt := New(eng, false)
	if _, err := rt.Run(map[string][]*xmlstream.Element{"photons": items}); err != nil {
		t.Fatal(err)
	}
	hwm := rt.MailboxHWM()
	if len(hwm) != len(eng.Net.Peers()) {
		t.Fatalf("MailboxHWM has %d peers, want %d", len(hwm), len(eng.Net.Peers()))
	}
	if hwm["SP0"] < 1 {
		t.Errorf("source peer SP0 hwm = %d, want >= 1", hwm["SP0"])
	}
	snap := eng.Obs().Metrics.Snapshot()
	for id, depth := range hwm {
		g, ok := snap.Gauges["runtime.mailbox.hwm."+string(id)]
		if !ok {
			t.Errorf("no gauge for peer %s", id)
			continue
		}
		if int(g) != depth {
			t.Errorf("gauge for %s = %v, want %d", id, g, depth)
		}
	}
}

// TestMetricsSnapshotsAgree feeds the same plans through the simulator and
// the distributed runtime with a shared observer and checks the two
// backends' published counters agree on total traffic bytes and work units.
func TestMetricsSnapshotsAgree(t *testing.T) {
	shared := obs.NewObserver()
	build := func() (*core.Engine, []*xmlstream.Element) {
		eng := core.NewEngine(testNet(), core.Config{Obs: shared})
		items, st := photons.Stream("photons", photons.DefaultConfig(), 13, 1000)
		if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			src string
			at  network.PeerID
		}{{velaQ, "SP3"}, {rxjQ, "SP2"}} {
			if _, err := eng.Subscribe(q.src, q.at, core.StreamSharing); err != nil {
				t.Fatal(err)
			}
		}
		return eng, items
	}
	eng1, items1 := build()
	if _, err := eng1.Simulate(map[string][]*xmlstream.Element{"photons": items1}, false); err != nil {
		t.Fatal(err)
	}
	eng2, items2 := build()
	if _, err := New(eng2, false).Run(map[string][]*xmlstream.Element{"photons": items2}); err != nil {
		t.Fatal(err)
	}
	snap := shared.Metrics.Snapshot()
	simBytes, rtBytes := snap.Counters["sim.traffic.bytes"], snap.Counters["runtime.traffic.bytes"]
	if simBytes == 0 {
		t.Fatal("sim.traffic.bytes is zero")
	}
	if math.Abs(simBytes-rtBytes) > 1e-6 {
		t.Errorf("traffic bytes: sim %.0f vs runtime %.0f", simBytes, rtBytes)
	}
	if sw, rw := snap.Counters["sim.work.units"], snap.Counters["runtime.work.units"]; math.Abs(sw-rw) > 1e-6 {
		t.Errorf("work units: sim %.1f vs runtime %.1f", sw, rw)
	}
}

// TestSpanSamplerAgreesSimRuntime extends the backend-equivalence suite to
// provenance sampling: with the same seed and rate, the simulator and the
// distributed runtime must pick exactly the same (stream, index) set, so
// latency comparisons between backends measure the same items.
func TestSpanSamplerAgreesSimRuntime(t *testing.T) {
	build := func(o *obs.Observer) (*core.Engine, []*xmlstream.Element) {
		o.Latency.SetRate(8)
		eng := core.NewEngine(testNet(), core.Config{Obs: o})
		items, st := photons.Stream("photons", photons.DefaultConfig(), 13, 1000)
		if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			src string
			at  network.PeerID
		}{{velaQ, "SP3"}, {rxjQ, "SP2"}} {
			if _, err := eng.Subscribe(q.src, q.at, core.StreamSharing); err != nil {
				t.Fatal(err)
			}
		}
		return eng, items
	}
	obsSim, obsRT := obs.NewObserver(), obs.NewObserver()
	engSim, itemsSim := build(obsSim)
	if _, err := engSim.Simulate(map[string][]*xmlstream.Element{"photons": itemsSim}, false); err != nil {
		t.Fatal(err)
	}
	engRT, itemsRT := build(obsRT)
	if _, err := New(engRT, false).Run(map[string][]*xmlstream.Element{"photons": itemsRT}); err != nil {
		t.Fatal(err)
	}
	simKeys, rtKeys := obsSim.Latency.SampledKeys(), obsRT.Latency.SampledKeys()
	if len(simKeys) == 0 {
		t.Fatal("simulator sampled no spans at rate 8 over 1000 items")
	}
	if !reflect.DeepEqual(simKeys, rtKeys) {
		t.Errorf("sampled sets differ:\nsim %v\nrt  %v", simKeys, rtKeys)
	}
	// Both backends delivered the sampled items: per-subscription watermarks
	// exist on both sides for the same subscriptions.
	snapSim, snapRT := obsSim.Metrics.Snapshot(), obsRT.Metrics.Snapshot()
	for _, id := range []string{"q1", "q2"} {
		if snapSim.Gauges["latency.sub.watermark."+id] <= 0 {
			t.Errorf("simulator has no watermark for %s", id)
		}
		if snapRT.Gauges["latency.sub.watermark."+id] <= 0 {
			t.Errorf("runtime has no watermark for %s", id)
		}
	}
}

// TestMailboxHWMGaugeResetsBetweenRuns is the regression test for sticky
// high-water gauges: a second, lighter run in the same registry must publish
// its own mailbox depths, not retain the previous run's maxima — otherwise
// back-to-back experiments runs report the first run's congestion forever.
func TestMailboxHWMGaugeResetsBetweenRuns(t *testing.T) {
	shared := obs.NewObserver()
	run := func(items int) *Runtime {
		eng := core.NewEngine(testNet(), core.Config{Obs: shared})
		feed, st := photons.Stream("photons", photons.DefaultConfig(), 13, items)
		if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Subscribe(velaQ, "SP3", core.StreamSharing); err != nil {
			t.Fatal(err)
		}
		rt := New(eng, false)
		if _, err := rt.Run(map[string][]*xmlstream.Element{"photons": feed}); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	run(2000)
	rt2 := run(50)
	snap := shared.Metrics.Snapshot()
	for id, depth := range rt2.MailboxHWM() {
		g := snap.Gauges["runtime.mailbox.hwm."+string(id)]
		if int(g) != depth {
			t.Errorf("gauge for %s = %v after second run, want %d (first run's value leaked)", id, g, depth)
		}
	}
}

// cleanRunBuild registers the photon stream at SP0 behind the §2 sort
// buffer, with the stateful shapes whose operators keep stream positions
// between items — a fine diff window and a coarser one recomposed from it, a
// count window, window contents — read at SP3. Twin builds are identical.
func cleanRunBuild(t *testing.T) *core.Engine {
	t.Helper()
	eng := core.NewEngine(testNet(), core.Config{})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 13, 2000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	if err := eng.RepairFuzzyOrder("photons", xmlstream.ParsePath("det_time"), 8); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`<photons>{ for $w in stream("photons")/photons/photon |det_time diff 10 step 10| let $a := sum($w/en) return <fine>{ $a }</fine> }</photons>`,
		`<photons>{ for $w in stream("photons")/photons/photon |det_time diff 40 step 20| let $a := sum($w/en) return <coarse>{ $a }</coarse> }</photons>`,
		`<photons>{ for $w in stream("photons")/photons/photon |count 20 step 10| let $c := count($w/en) return <n>{ $c }</n> }</photons>`,
		`<photons>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 10| return <batch>{ $w/en }</batch> }</photons>`,
	} {
		if _, err := eng.Subscribe(q, "SP3", core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(eng.Subscriptions()[1].Explain(), "window-merge") {
		t.Fatalf("the coarse window is not recomposed from the fine one:\n%s", eng.Subscriptions()[1].Explain())
	}
	return eng
}

// TestRuntimeRunsStartClean runs one engine three times on streams fed the
// way successive RUN commands feed them — a new generator each time, so
// det_time starts again — and holds every run to a fresh engine's
// simulation: each Run instantiates its operators, and nothing one run
// leaves in them reaches the next.
func TestRuntimeRunsStartClean(t *testing.T) {
	eng := cleanRunBuild(t)
	for k := 1; k <= 3; k++ {
		feed := map[string][]*xmlstream.Element{"photons": photons.NewGenerator(photons.DefaultConfig(), int64(k)).Generate(400)}
		want, err := cleanRunBuild(t).Simulate(feed, true)
		if err != nil {
			t.Fatal(err)
		}
		for id, items := range want.Collected {
			if len(items) == 0 {
				t.Fatalf("run %d: the reference delivered nothing for %s", k, id)
			}
		}
		got, err := New(eng, true).Run(feed)
		if err != nil {
			t.Fatal(err)
		}
		compareInOrder(t, fmt.Sprintf("run %d", k), want, got)
	}
}
