package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/xmlstream"
)

// checkUsageInvariant verifies that the engine's running usage totals equal
// the sum of the per-stream additions of everything still deployed — the
// invariant every release/repair/migration path must preserve.
func checkUsageInvariant(t *testing.T, e *Engine) {
	t.Helper()
	wantLink := map[network.LinkID]float64{}
	wantPeer := map[network.PeerID]float64{}
	for _, d := range e.deployed {
		for l, b := range d.LinkAdd {
			wantLink[l] += b
		}
		for p, w := range d.PeerAdd {
			wantPeer[p] += w
		}
	}
	for l, b := range e.linkUse {
		if math.Abs(b-wantLink[l]) > 1e-6 {
			t.Errorf("linkUse[%s] = %g, deployed streams sum to %g", l, b, wantLink[l])
		}
	}
	for l, b := range wantLink {
		if math.Abs(b-e.linkUse[l]) > 1e-6 {
			t.Errorf("deployed streams use %g on %s, engine tracks %g", b, l, e.linkUse[l])
		}
	}
	for p, w := range e.peerUse {
		if math.Abs(w-wantPeer[p]) > 1e-6 {
			t.Errorf("peerUse[%s] = %g, deployed streams sum to %g", p, w, wantPeer[p])
		}
	}
}

func TestReplanAfterLinkFailure(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	sub, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Net.FailLink("SP5", "SP1"); err != nil {
		t.Fatal(err)
	}
	broken := eng.ReleaseBroken()
	if len(broken) != 1 || broken[0] != sub.Inputs[0].Feed {
		t.Fatalf("broken = %v", broken)
	}
	dead := network.MakeLinkID("SP5", "SP1")
	if eng.linkUse[dead] != 0 {
		t.Errorf("failed link should carry nothing, use = %g", eng.linkUse[dead])
	}
	aff := eng.Affected()
	if len(aff) != 1 || aff[0] != sub {
		t.Fatalf("affected = %v", aff)
	}
	if err := eng.Replan(sub, "repair link-failed SP5-SP1"); err != nil {
		t.Fatal(err)
	}
	feed := sub.Inputs[0].Feed
	if feed.Broken {
		t.Error("repaired feed still marked broken")
	}
	for _, l := range network.PathLinks(feed.Route) {
		if l == dead {
			t.Errorf("repaired route %v crosses the failed link", feed.Route)
		}
	}
	if len(eng.Affected()) != 0 {
		t.Error("no subscription should remain affected after repair")
	}
	if !strings.Contains(sub.Trace.String(), `event="repair link-failed SP5-SP1"`) {
		t.Errorf("repair trace missing event label:\n%s", sub.Trace)
	}
	checkUsageInvariant(t, eng)
}

func TestReplanRejectsWhenTargetDown(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	sub, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Net.FailPeer("SP1"); err != nil {
		t.Fatal(err)
	}
	eng.ReleaseBroken()
	if err := eng.Replan(sub, "repair peer-failed SP1"); err == nil {
		t.Fatal("replan to a failed target should fail")
	}
	if eng.Subscription(sub.ID) != nil {
		t.Error("rejected subscription should be removed")
	}
	for _, d := range eng.Streams() {
		if !d.Original {
			t.Errorf("stream %s should have been torn down", d.ID)
		}
	}
	checkUsageInvariant(t, eng)
}

func TestReplanRejectsWhenSourceDown(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	sub, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Net.FailPeer("SP4"); err != nil {
		t.Fatal(err)
	}
	broken := eng.ReleaseBroken()
	if len(broken) != 2 { // the original and the derived feed
		t.Fatalf("broken = %d streams, want 2", len(broken))
	}
	if err := eng.Replan(sub, "repair peer-failed SP4"); err == nil {
		t.Fatal("no plan can exist without the source peer")
	}
	if len(eng.Subscriptions()) != 0 {
		t.Error("subscription should be gone")
	}
	// Restoring the source revives the original stream and admits new work.
	if err := eng.Net.RestorePeer("SP4"); err != nil {
		t.Fatal(err)
	}
	if n := eng.ReviveRestored(); n != 1 {
		t.Fatalf("revived = %d, want 1", n)
	}
	if _, err := eng.Subscribe(q1, "SP1", StreamSharing); err != nil {
		t.Fatalf("subscribe after restore: %v", err)
	}
	checkUsageInvariant(t, eng)
}

// TestReplanReusesSurvivingSharedStream: Q2 feeds from Q1's shared stream
// over the direct SP5–SP7 link; when that link dies, the repair should keep
// reusing Q1's still-flowing stream, just tapped at a different route peer.
func TestReplanReusesSurvivingSharedStream(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	sub1, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := eng.Subscribe(q2, "SP7", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Inputs[0].Feed.Parent != sub1.Inputs[0].Feed {
		t.Fatalf("setup: Q2 should reuse Q1's stream")
	}
	if err := eng.Net.FailLink("SP5", "SP7"); err != nil {
		t.Fatal(err)
	}
	eng.ReleaseBroken()
	aff := eng.Affected()
	if len(aff) != 1 || aff[0] != sub2 {
		t.Fatalf("only Q2 should be affected, got %v", aff)
	}
	if err := eng.Replan(sub2, "repair link-failed SP5-SP7"); err != nil {
		t.Fatal(err)
	}
	feed := sub2.Inputs[0].Feed
	if feed.Parent != sub1.Inputs[0].Feed {
		t.Errorf("repair should still reuse Q1's stream, parent = %v", feed.Parent)
	}
	if feed.Target() != "SP7" {
		t.Errorf("repaired feed ends at %s", feed.Target())
	}
	checkUsageInvariant(t, eng)
}

// TestTryMigrate: a failure forces Q1 onto a long detour; once the short
// path is back, triggered re-optimization migrates it home — and a second
// pass finds nothing better (no thrashing).
func TestTryMigrate(t *testing.T) {
	// Rebuild the example topology with scarce bandwidth so the traffic term
	// dominates the cost and the detour is clearly worth leaving.
	base := exampleNet()
	tight := network.New()
	for _, id := range base.Peers() {
		tight.AddPeer(*base.Peer(id))
	}
	for _, l := range base.Links() {
		tight.Connect(l.A, l.B, 5000)
	}
	eng := NewEngine(tight, Config{})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 42, 3000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Net.FailLink("SP4", "SP5"); err != nil {
		t.Fatal(err)
	}
	eng.ReleaseBroken()
	if err := eng.Replan(sub, "repair"); err != nil {
		t.Fatal(err)
	}
	long := len(sub.Inputs[0].Feed.Route)
	if long <= 3 {
		t.Fatalf("detour route %v should be longer than the direct one", sub.Inputs[0].Feed.Route)
	}
	if err := eng.Net.RestoreLink("SP4", "SP5"); err != nil {
		t.Fatal(err)
	}
	moved, err := eng.TryMigrate(sub, 0.15, "migrate after restore")
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("migration back to the short path should pay off")
	}
	if got := len(sub.Inputs[0].Feed.Route); got >= long {
		t.Errorf("migrated route %v not shorter than detour", sub.Inputs[0].Feed.Route)
	}
	if !strings.Contains(sub.Trace.String(), `event="migrate after restore"`) {
		t.Errorf("migration trace missing event label:\n%s", sub.Trace)
	}
	moved, err = eng.TryMigrate(sub, 0.15, "migrate again")
	if err != nil {
		t.Fatal(err)
	}
	if moved {
		t.Error("already-optimal plan migrated again (thrashing)")
	}
	checkUsageInvariant(t, eng)
}

// TestTryMigrateSkipsSharedFeeds: a stream other subscriptions derive from
// must not be migrated away from under them.
func TestTryMigrateSkipsSharedFeeds(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	sub1, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(q2, "SP7", StreamSharing); err != nil {
		t.Fatal(err)
	}
	moved, err := eng.TryMigrate(sub1, 0, "migrate")
	if err != nil {
		t.Fatal(err)
	}
	if moved {
		t.Error("feed with derived children must not migrate")
	}
	checkUsageInvariant(t, eng)
}

// TestUnsubscribeReadmitsRejected: admission control rejects a second
// data-shipping subscription because the first one saturates the shared
// route; unsubscribing the first releases the bandwidth and the retry is
// admitted — the same release path the repair engine relies on.
func TestUnsubscribeReadmitsRejected(t *testing.T) {
	base := exampleNet()
	_, st := photons.Stream("photons", photons.DefaultConfig(), 1, 500)
	rawBps := st.AvgItemSize * st.Freq
	tight := network.New()
	for _, id := range base.Peers() {
		p := *base.Peer(id)
		p.Capacity = 1e12 // links are the only binding constraint
		tight.AddPeer(p)
	}
	for _, l := range base.Links() {
		tight.Connect(l.A, l.B, rawBps*1.5)
	}
	eng := NewEngine(tight, Config{Admission: true})
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Subscribe(q1, "SP1", DataShipping)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(q2, "SP1", DataShipping); !errors.Is(err, ErrRejected) {
		t.Fatalf("second raw copy should overload the route, got %v", err)
	}
	if err := eng.Unsubscribe(first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(q2, "SP1", DataShipping); err != nil {
		t.Fatalf("after unsubscribe the bandwidth is free again: %v", err)
	}
	checkUsageInvariant(t, eng)
}
