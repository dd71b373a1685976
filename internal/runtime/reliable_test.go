package runtime

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/scenario"
	"streamshare/internal/testutil"
	"streamshare/internal/xmlstream"
)

// reliableBuild registers scenario 2 on a fresh engine. Twin builds are
// byte-identical so a reference engine can simulate the never-failed
// delivery.
func reliableBuild(t *testing.T, items int, reliable bool) (*core.Engine, *scenario.Scenario, map[string][]*xmlstream.Element) {
	t.Helper()
	s := scenario.Scenario2(items)
	eng := core.NewEngine(s.Net, core.Config{Reliable: reliable})
	feed := map[string][]*xmlstream.Element{}
	for _, src := range s.Sources {
		if _, err := eng.RegisterStream(src.Name, xmlstream.ParsePath("photons/photon"), src.At, src.Stats); err != nil {
			t.Fatal(err)
		}
		feed[src.Name] = src.Items
	}
	for _, q := range s.Queries {
		if _, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	return eng, s, feed
}

// sortedXML renders a result multiset order-independently.
func sortedXML(items []*xmlstream.Element) []string {
	out := make([]string, len(items))
	for i, e := range items {
		out[i] = string(xmlstream.AppendMarshal(nil, e))
	}
	sort.Strings(out)
	return out
}

// TestReliableFaultRecovery is the reliability acceptance test: scenario 2
// streams through a session-backed runtime while a link is severed and a
// super-peer is killed mid-stream. No oracle tells the engine: the faults
// the session queued drive adapt.ApplyFaults, the reliable re-plan rebuilds
// private chains, and Session.Recover finishes the
// interrupted run on its own operator instances from the journaled tails. For
// every surviving subscription — windowed and stateful included — the run's
// delivery plus the recovery's redelivery must equal a never-failed reference
// item-for-item.
func TestReliableFaultRecovery(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const items = 300
	eng, s, feed := reliableBuild(t, items, true)
	engRef, _, feedRef := reliableBuild(t, items, true)

	ref, err := engRef.Simulate(feedRef, true)
	if err != nil {
		t.Fatal(err)
	}

	// Pick the failure targets from the installed plans: sever the first
	// link of a windowed subscription's multi-hop feed (before the run, so
	// its retention is deterministic), and kill a peer that is neither a
	// source nor on that feed mid-run.
	var sever *core.Deployed
	windowed := map[string]bool{}
	for i, sub := range eng.Subscriptions() {
		if strings.Contains(s.Queries[i].Src, "|") {
			windowed[sub.ID] = true
		}
	}
	for _, sub := range eng.Subscriptions() {
		if !windowed[sub.ID] {
			continue
		}
		for _, si := range sub.Inputs {
			if len(si.Feed.Route) >= 2 {
				sever = si.Feed
				break
			}
		}
		if sever != nil {
			break
		}
	}
	if sever == nil {
		t.Fatal("no windowed subscription with a multi-hop feed to sever")
	}
	kill := network.PeerID("")
	sources := map[network.PeerID]bool{}
	for _, src := range s.Sources {
		sources[src.At] = true
	}
	for _, id := range eng.Net.Peers() {
		if !sources[id] && !sever.OnRoute(id) {
			kill = id
		}
	}
	if kill == "" {
		t.Fatal("no peer to kill")
	}

	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, true, Options{Session: sess})
	if err := rt.SeverLink(sever.Route[0], sever.Route[1]); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(5*time.Millisecond, func() { rt.KillPeer(kill) })
	defer timer.Stop()
	run, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	timer.Stop()
	rt.KillPeer(kill) // reported once: ensure the kill landed even on a fast run

	// Both injected faults come back, in injection order, whether the kill
	// landed mid-run or after Run returned.
	changes := sess.TakeFaults()
	want := []network.Change{
		{Kind: network.LinkFailed, Link: network.MakeLinkID(sever.Route[0], sever.Route[1])},
		{Kind: network.PeerFailed, Peer: kill},
	}
	if !slices.Equal(changes, want) {
		t.Fatalf("session queued %v, want %v", changes, want)
	}

	// Fault-driven repair: the engine learns of the faults only through
	// the session's queue.
	subsBefore := len(eng.Subscriptions())
	if _, err := adapt.NewManager(eng).ApplyFaults(changes); err != nil {
		t.Fatal(err)
	}
	if len(eng.Affected()) != 0 {
		t.Fatal("subscriptions left stranded after the repair")
	}
	// The killed peer hosted subscription targets (the scenario spreads
	// targets across every peer), so the repair must have torn those
	// subscriptions down.
	if len(eng.Subscriptions()) >= subsBefore {
		t.Errorf("kill of %s tore down no subscriptions (%d before, %d after)",
			kill, subsBefore, len(eng.Subscriptions()))
	}

	rep, err := sess.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Items == 0 {
		t.Fatal("recovery redelivered nothing; the severed feed should have journaled retained items")
	}

	// Every surviving subscription delivers exactly the reference stream:
	// run + redelivery, no loss, no duplicates — stateful ones included.
	checkedWindowed := 0
	for _, sub := range eng.Subscriptions() {
		got := run.Results[sub.ID] + rep.Results[sub.ID]
		if got != ref.Results[sub.ID] {
			t.Errorf("%s (windowed=%v): delivered %d+%d, reference %d",
				sub.ID, windowed[sub.ID], run.Results[sub.ID], rep.Results[sub.ID], ref.Results[sub.ID])
			continue
		}
		all := append(append([]*xmlstream.Element{}, run.Collected[sub.ID]...), rep.Collected[sub.ID]...)
		gotXML, refXML := sortedXML(all), sortedXML(ref.Collected[sub.ID])
		for i := range refXML {
			if gotXML[i] != refXML[i] {
				t.Errorf("%s item %d differs after recovery", sub.ID, i)
				break
			}
		}
		if windowed[sub.ID] {
			checkedWindowed++
		}
	}
	if checkedWindowed == 0 {
		t.Error("no surviving windowed subscription was checked")
	}
	// Under reliable channels a fault mostly retains instead of dropping, so
	// drops are informational; the structural checks above are the proof.
	t.Logf("dropped=%d retained-journal-replay=%d items", rt.Dropped(), rep.Items)
}

// TestReliableRecoverScenario2 is the recovery experiment's setting at 300
// items: scenario 2 with the first link of the first multi-hop feed severed
// before the run, fault-driven repair, Recover. Every surviving
// subscription's run plus redelivery equals the never-failed reference as a
// multiset — also when the repair may reuse live shared streams
// (Config.Reliable off), since recovery replays into the interrupted run's
// instances, never into the repaired plan's.
func TestReliableRecoverScenario2(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const items = 300
	for _, reliable := range []bool{true, false} {
		eng, _, feed := reliableBuild(t, items, reliable)
		engRef, _, feedRef := reliableBuild(t, items, reliable)
		ref, err := engRef.Simulate(feedRef, true)
		if err != nil {
			t.Fatal(err)
		}
		var sever *core.Deployed
		for _, sub := range eng.Subscriptions() {
			for _, si := range sub.Inputs {
				if sever == nil && len(si.Feed.Route) >= 2 {
					sever = si.Feed
				}
			}
		}
		sess := NewSession(SessionOptions{})
		rt := NewWith(eng, true, Options{Session: sess})
		if err := rt.SeverLink(sever.Route[0], sever.Route[1]); err != nil {
			t.Fatal(err)
		}
		run, rep := runAndRecover(t, eng, sess, rt, feed)
		if rep.Items == 0 || len(eng.Subscriptions()) != len(engRef.Subscriptions()) {
			t.Fatalf("reliable=%v: %v, %d of %d subscriptions survived", reliable, rep, len(eng.Subscriptions()), len(engRef.Subscriptions()))
		}
		for _, sub := range eng.Subscriptions() {
			got := sortedXML(append(append([]*xmlstream.Element{}, run.Collected[sub.ID]...), rep.Collected[sub.ID]...))
			want := sortedXML(ref.Collected[sub.ID])
			if !slices.Equal(got, want) {
				t.Errorf("reliable=%v %s: delivered %d+%d items, reference %d, or they differ",
					reliable, sub.ID, run.Results[sub.ID], rep.Results[sub.ID], len(want))
			}
		}
	}
}

// TestReliableSlowConsumer pins the credit window's memory bound: with a
// tiny window the source must throttle end-to-end — replay buffers never
// exceed the window, nothing is dropped, and delivery still matches the
// simulator exactly.
func TestReliableSlowConsumer(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const items = 200
	s := scenario.Scenario1(items)
	build := func() (*core.Engine, map[string][]*xmlstream.Element) {
		eng := core.NewEngine(s.Net, core.Config{Reliable: true})
		feed := map[string][]*xmlstream.Element{}
		for _, src := range s.Sources {
			if _, err := eng.RegisterStream(src.Name, xmlstream.ParsePath("photons/photon"), src.At, src.Stats); err != nil {
				t.Fatal(err)
			}
			feed[src.Name] = src.Items
		}
		for _, q := range s.Queries {
			if _, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing); err != nil {
				t.Fatal(err)
			}
		}
		return eng, feed
	}
	eng, feed := build()
	engRef, feedRef := build()
	sim, err := engRef.Simulate(feedRef, false)
	if err != nil {
		t.Fatal(err)
	}

	const window = 8
	sess := NewSession(SessionOptions{CreditWindow: window})
	rt := NewWith(eng, false, Options{BatchSize: 4, Session: sess})
	run, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}

	for id, n := range sim.Results {
		if run.Results[id] != n {
			t.Errorf("%s: runtime %d items, simulator %d", id, run.Results[id], n)
		}
	}
	if d := rt.Dropped(); d != 0 {
		t.Errorf("credit flow dropped %d units", d)
	}
	stalled := false
	for _, cs := range sess.ChannelStates() {
		if cs.MaxDepth > window {
			t.Errorf("channel %s replay depth %d exceeded window %d", cs.Stream, cs.MaxDepth, window)
		}
		if cs.ReplayDepth != 0 {
			t.Errorf("channel %s left %d unacked units after a clean run", cs.Stream, cs.ReplayDepth)
		}
		if cs.Broken {
			t.Errorf("channel %s broke during a healthy run", cs.Stream)
		}
	}
	for _, c := range rt.chans {
		if c.takeStalls() > 0 {
			stalled = true
		}
	}
	_ = stalled // an 8-unit window over 200 items must stall, but timing may vary per machine
}

// TestReliableHealthyEquivalence proves the session layer is invisible on a
// healthy run: results, traffic and work all match the simulator exactly,
// acks included, and no fault is queued.
func TestReliableHealthyEquivalence(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const items = 300
	eng, _, feed := reliableBuild(t, items, true)
	engRef, _, feedRef := reliableBuild(t, items, true)
	sim, err := engRef.Simulate(feedRef, false)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(SessionOptions{})
	run, err := NewWith(eng, false, Options{Session: sess}).Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	chaosCompare(t, "healthy reliable", sim, run)
	if ch := sess.TakeFaults(); len(ch) != 0 {
		t.Errorf("healthy run queued faults %v", ch)
	}
}

// TestReliableFaultAfterRun: a peer killed on a runtime after its Run
// returned still reaches the session's fault queue, so repair sees it.
func TestReliableFaultAfterRun(t *testing.T) {
	eng, feed := setup(t, core.StreamSharing)
	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, false, Options{Session: sess})
	if _, err := rt.Run(map[string][]*xmlstream.Element{"photons": feed}); err != nil {
		t.Fatal(err)
	}
	if err := rt.KillPeer("SP1"); err != nil {
		t.Fatal(err)
	}
	want := []network.Change{{Kind: network.PeerFailed, Peer: "SP1"}}
	if ch := sess.TakeFaults(); !slices.Equal(ch, want) {
		t.Fatalf("after Run, KillPeer queued %v, want %v", ch, want)
	}
	if ch := sess.TakeFaults(); len(ch) != 0 {
		t.Fatalf("TakeFaults left %v queued", ch)
	}
}

// TestReliableRefault: a fault is reported once per run that is given it,
// not once per target. One session: run 1 severs SP1–SP2 before the run and
// is repaired around it; run 2, on the repaired plan, severs the same link
// mid-run. Each run reports exactly the one severed link, and each run plus
// its recovery delivers the never-failed reference.
func TestReliableRefault(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	eng := core.NewEngine(testNet(), core.Config{Reliable: true})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 13, 2000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(`<photons>{ for $p in stream("photons")/photons/photon where $p/en >= 1.3 return <hot>{ $p }</hot> }</photons>`, "SP3", core.StreamSharing); err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscriptions()[0]
	if feed := sub.Inputs[0].Feed; !feed.OnRoute("SP1") || !feed.OnRoute("SP2") {
		t.Fatalf("the feed does not cross SP1–SP2:\n%s", sub.Explain())
	}
	feed := map[string][]*xmlstream.Element{"photons": photons.NewGenerator(photons.DefaultConfig(), 7).Generate(1000)}
	ref, err := eng.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(SessionOptions{})
	severed := []network.Change{{Kind: network.LinkFailed, Link: network.MakeLinkID("SP1", "SP2")}}
	check := func(run int, res *Result, faults []network.Change) {
		t.Helper()
		if !slices.Equal(faults, severed) {
			t.Fatalf("run %d reported %v, want %v", run, faults, severed)
		}
		if _, err := adapt.NewManager(eng).ApplyFaults(faults); err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Recover(eng)
		if err != nil {
			t.Fatal(err)
		}
		got := sortedXML(append(append([]*xmlstream.Element{}, res.Collected[sub.ID]...), rep.Collected[sub.ID]...))
		if want := sortedXML(ref.Collected[sub.ID]); !slices.Equal(got, want) {
			t.Fatalf("run %d: delivered %d+%d items, reference %d, or they differ",
				run, res.Results[sub.ID], rep.Results[sub.ID], len(want))
		}
	}

	rt := NewWith(eng, true, Options{BatchSize: 50, Session: sess})
	if err := rt.SeverLink("SP1", "SP2"); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	check(1, res, sess.TakeFaults())

	rt = NewWith(eng, true, Options{BatchSize: 50, Session: sess})
	landed := faultsAfter(rt, sess, fault{300, func() error { return rt.SeverLink("SP1", "SP2") }})
	if res, err = rt.Run(feed); err != nil {
		t.Fatal(err)
	}
	if !landed() {
		t.Fatal("the fault never landed")
	}
	check(2, res, sess.TakeFaults())
}

// TestReliableRecoverEscapedText: items whose text holds markup characters
// (fed as <note>a&lt;b &amp; c&gt;d</note>) sit in a broken channel's journal
// and come out of Recover byte for byte what the never-failed simulator
// delivers — the journal holds the trees, so no spelling of the text is
// involved.
func TestReliableRecoverEscapedText(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const query = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3
  return <hot> { $p/en } { $p/note } </hot> }
</photons>`
	build := func() (*core.Engine, map[string][]*xmlstream.Element) {
		eng := core.NewEngine(testNet(), core.Config{Reliable: true})
		items, st := photons.Stream("photons", photons.DefaultConfig(), 13, 200)
		for _, it := range items {
			it.Children = append(it.Children, xmlstream.T("note", "a<b & c>d"))
		}
		if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Subscribe(query, "SP3", core.StreamSharing); err != nil {
			t.Fatal(err)
		}
		return eng, map[string][]*xmlstream.Element{"photons": items}
	}
	engRef, feedRef := build()
	ref, err := engRef.Simulate(feedRef, true)
	if err != nil {
		t.Fatal(err)
	}
	eng, feed := build()
	sub := eng.Subscriptions()[0]
	route := sub.Inputs[0].Feed.Route
	if len(route) < 3 {
		t.Fatalf("feed route %v has no middle link to sever", route)
	}

	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, true, Options{Session: sess})
	if err := rt.SeverLink(route[1], route[2]); err != nil {
		t.Fatal(err)
	}
	run, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapt.NewManager(eng).ApplyFaults(sess.TakeFaults()); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Items == 0 {
		t.Fatal("recovery redelivered nothing; the severed feed should have journaled its items")
	}
	all := append(append([]*xmlstream.Element{}, run.Collected[sub.ID]...), rep.Collected[sub.ID]...)
	gotXML, refXML := sortedXML(all), sortedXML(ref.Collected[sub.ID])
	if len(gotXML) != len(refXML) {
		t.Fatalf("delivered %d+%d items, reference %d", len(run.Collected[sub.ID]), len(rep.Collected[sub.ID]), len(refXML))
	}
	for i := range refXML {
		if gotXML[i] != refXML[i] {
			t.Fatalf("item %d after recovery = %s, reference %s", i, gotXML[i], refXML[i])
		}
	}
	if !strings.Contains(refXML[0], "<note>a&lt;b &amp; c&gt;d</note>") {
		t.Fatalf("reference item %s lost its note", refXML[0])
	}
}

// TestReliableRecoverUpstreamWindow breaks a link upstream of a windowed
// operator while its windows are half full. q2 averages windows over q1's
// shared selection, tapped at SP3; the link SP1–SP2 on the shared stream's
// route is severed after the first 300 source items have been processed
// everywhere. Recover finishes q2's window aggregate, which holds the
// half-full windows, on the journaled selection items: run plus recovery
// equals the never-failed delivery item for item, each window's average over
// all of its photons.
func TestReliableRecoverUpstreamWindow(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	_, _, _, ref, run, rep := recoverUpstreamWindow(t)
	if rep.Inputs != 2 {
		t.Fatalf("recovery: %v", rep)
	}
	for _, id := range []string{"q1", "q2"} {
		if run.Results[id] == 0 || rep.Results[id] == 0 {
			t.Fatalf("%s: %d delivered before the fault, %d after; the fault must split the stream", id, run.Results[id], rep.Results[id])
		}
		sameItems(t, id, append(append([]*xmlstream.Element{}, run.Collected[id]...), rep.Collected[id]...), ref.Collected[id])
	}
}

// TestReliableRunAfterRecover: once Recover returns, the session holds
// nothing of the interrupted run — no journal, no cursor of a retired
// consumer, no receive lane — so a second run on the same session neither
// waits on credit a retired consumer will never grant nor dedups against the
// first run's sequence numbers: it delivers exactly what the simulator
// delivers on the repaired plan. A second Recover has nothing to replay.
func TestReliableRunAfterRecover(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	eng, sess, feed, _, _, _ := recoverUpstreamWindow(t)
	sim, err := eng.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewWith(eng, true, Options{BatchSize: 50, Session: sess}).Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	chaosCompare(t, "run after recover", sim, run)
	for id, want := range sim.Collected {
		sameItems(t, id, run.Collected[id], want)
	}
	rep, err := sess.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inputs != 0 || rep.Items != 0 || rep.Bytes != 0 || len(rep.Results) != 0 {
		t.Fatalf("second recovery replayed %v", rep)
	}
}

// recoverUpstreamWindow runs TestReliableRecoverUpstreamWindow's setting
// through the fault, the detected repair and Recover. It returns the
// repaired engine, the session, the source feed, the never-failed reference,
// the interrupted run and the recovery report.
func recoverUpstreamWindow(t *testing.T) (*core.Engine, *Session, map[string][]*xmlstream.Element, *core.SimResult, *Result, *RecoveryReport) {
	t.Helper()
	eng := core.NewEngine(testNet(), core.Config{Reliable: true})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 13, 2000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`<photons>{ for $p in stream("photons")/photons/photon where $p/en >= 1.3 return <hot>{ $p }</hot> }</photons>`,
		`<photons>{ for $w in stream("photons")/photons/photon [en >= 1.3] |det_time diff 20 step 10| let $a := avg($w/en) return <avg>{ $a }</avg> }</photons>`,
	} {
		if _, err := eng.Subscribe(q, "SP3", core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	shared := eng.Subscriptions()[0].Inputs[0].Feed
	windowed := eng.Subscriptions()[1].Inputs[0].Feed
	if windowed.Parent != shared || shared.Tap != "SP0" || !windowed.OnRoute("SP3") || !shared.OnRoute("SP2") {
		t.Fatalf("q2 does not window q1's stream downstream of SP1–SP2:\n%s%s",
			eng.Subscriptions()[0].Explain(), eng.Subscriptions()[1].Explain())
	}
	feed := map[string][]*xmlstream.Element{"photons": photons.NewGenerator(photons.DefaultConfig(), 7).Generate(1000)}
	ref, err := eng.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, true, Options{BatchSize: 50, Session: sess})
	landed := faultsAfter(rt, sess, fault{300, func() error { return rt.SeverLink("SP1", "SP2") }})
	run, rep := runAndRecover(t, eng, sess, rt, feed)
	if !landed() {
		t.Fatal("the fault never landed")
	}
	return eng, sess, feed, ref, run, rep
}

// fault is one deterministic mid-run fault: inject runs once the source has
// dispatched at least after items.
type fault struct {
	after  uint64
	inject func() error
}

// faultsAfter makes rt's source inject the faults, in order, each after its
// item count and once every channel that is not broken has been acked in
// full, so a fault lands after exactly those items. The returned func reports
// whether all of them landed.
func faultsAfter(rt *Runtime, sess *Session, faults ...fault) (landed func() bool) {
	next := 0
	rt.afterBatch = func(_ *core.PlanStream, items uint64) {
		for next < len(faults) && items >= faults[next].after {
			for !drained(sess) {
				time.Sleep(100 * time.Microsecond)
			}
			if err := faults[next].inject(); err != nil {
				rt.fail(err)
			}
			next++
		}
	}
	return func() bool { return next == len(faults) }
}

// runAndRecover runs rt over feed, repairs the engine from the faults the
// session queued and recovers the session.
func runAndRecover(t *testing.T, eng *core.Engine, sess *Session, rt *Runtime, feed map[string][]*xmlstream.Element) (*Result, *RecoveryReport) {
	t.Helper()
	run, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapt.NewManager(eng).ApplyFaults(sess.TakeFaults()); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	return run, rep
}

// sameItems fails unless got equals want item for item.
func sameItems(t *testing.T, id string, got, want []*xmlstream.Element) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delivered %d items, reference %d", id, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s item %d = %s, reference %s", id, i, xmlstream.Marshal(got[i]), xmlstream.Marshal(want[i]))
		}
	}
}

// drained reports whether every consumer of every session channel that is
// not broken has acknowledged everything emitted on it.
func drained(sess *Session) bool {
	for _, cs := range sess.ChannelStates() {
		if !cs.Broken && cs.CumAck+1 != cs.NextSeq {
			return false
		}
	}
	return true
}

// TestReliableRecoverMisalignedChain is a chain of three shared streams
// whose repair cannot line up with the interrupted one: s1 [select] tapped at
// SP0 and read by q1 at SP1, s2 [window-agg] tapped at SP1 and read by q2 at
// SP2, s3 [window-merge] tapped at SP2 and read by q3 at SP3. SP1–SP2 is
// severed after 300 source items and SP1 killed after 600, so s1's journal
// holds items s2 never saw and s2's holds fine windows s3 never merged, each
// beyond a different cursor. Finishing every stream on its own instance
// gives each surviving subscription exactly the never-failed delivery, item
// for item; q1, read at the dead peer, keeps the prefix it received.
func TestReliableRecoverMisalignedChain(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	net := testNet()
	net.Connect("SP0", "SP4", 12_500_000)
	eng := core.NewEngine(net, core.Config{Reliable: true})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 13, 2000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		src string
		at  network.PeerID
	}{
		{`<photons>{ for $p in stream("photons")/photons/photon where $p/en >= 1.3 return <hot>{ $p }</hot> }</photons>`, "SP1"},
		{`<photons>{ for $w in stream("photons")/photons/photon [en >= 1.3] |det_time diff 10 step 10| let $s := sum($w/en) return <s>{ $s }</s> }</photons>`, "SP2"},
		{`<photons>{ for $w in stream("photons")/photons/photon [en >= 1.3] |det_time diff 20 step 10| let $s := sum($w/en) return <s>{ $s }</s> }</photons>`, "SP3"},
	} {
		if _, err := eng.Subscribe(q.src, q.at, core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	subs := eng.Subscriptions()
	s1, s2, s3 := subs[0].Inputs[0].Feed, subs[1].Inputs[0].Feed, subs[2].Inputs[0].Feed
	if s2.Parent != s1 || s3.Parent != s2 || s1.Tap != "SP0" || s2.Tap != "SP1" || s3.Tap != "SP2" {
		t.Fatalf("not the s1 → s2 → s3 chain:\n%s%s%s", subs[0].Explain(), subs[1].Explain(), subs[2].Explain())
	}
	feed := map[string][]*xmlstream.Element{"photons": photons.NewGenerator(photons.DefaultConfig(), 7).Generate(1000)}
	ref, err := eng.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, true, Options{BatchSize: 50, Session: sess})
	landed := faultsAfter(rt, sess,
		fault{300, func() error { return rt.SeverLink("SP1", "SP2") }},
		fault{600, func() error { return rt.KillPeer("SP1") }})
	run, rep := runAndRecover(t, eng, sess, rt, feed)
	if !landed() {
		t.Fatal("a fault never landed")
	}
	for _, id := range []string{"q2", "q3"} {
		if rep.Results[id] == 0 {
			t.Fatalf("%s: nothing redelivered; the fault must split the stream", id)
		}
		sameItems(t, id, append(append([]*xmlstream.Element{}, run.Collected[id]...), rep.Collected[id]...), ref.Collected[id])
	}
	if len(eng.Subscriptions()) != 2 || rep.Results["q1"] != 0 || run.Results["q1"] >= ref.Results["q1"] {
		t.Fatalf("q1 at the dead SP1 must be torn down after a partial delivery: %d+%d of %d, %d subscriptions left",
			run.Results["q1"], rep.Results["q1"], ref.Results["q1"], len(eng.Subscriptions()))
	}
	sameItems(t, "q1", run.Collected["q1"], ref.Collected["q1"][:run.Results["q1"]])
}
