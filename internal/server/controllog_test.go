package server

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
)

// catalogView is what a node's clients can see of its catalog: STATS (every
// deployed stream with its route) and each subscription's EXPLAIN without the
// planning wall-clock line. The last-run line is left out: it is per process.
func catalogView(t *testing.T, c *client, ids ...string) string {
	t.Helper()
	status, cont := c.cmd(t, "STATS", "")
	var b strings.Builder
	b.WriteString(status + "\n")
	for _, l := range cont {
		if !strings.HasPrefix(l, "last run:") {
			b.WriteString(l + "\n")
		}
	}
	for _, id := range ids {
		status, cont = c.cmd(t, "EXPLAIN "+id, "")
		b.WriteString(status + "\n" + strings.Join(stripTimings(cont), "\n") + "\n")
	}
	return b.String()
}

// eventually polls cond — mirrored ops and refusals land asynchronously —
// and fails the test with what() when it does not hold within 5 s.
func eventually(t *testing.T, cond func() bool, what func() string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
	}
}

// awaitSameCatalog waits until node c shows the catalog want.
func awaitSameCatalog(t *testing.T, c *client, want string, ids ...string) {
	t.Helper()
	var got string
	eventually(t, func() bool { got = catalogView(t, c, ids...); return got == want }, func() string {
		return fmt.Sprintf("catalogs differ:\n--- coordinator ---\n%s--- other node ---\n%s", want, got)
	})
}

// refusedControls reads a node's server.control.refused counter off METRICS.
func refusedControls(t *testing.T, c *client) string {
	t.Helper()
	_, cont := c.cmd(t, "METRICS", "")
	for _, l := range cont {
		if v, ok := strings.CutPrefix(l, "counter server.control.refused "); ok {
			return v
		}
	}
	return ""
}

// countLines renders per-subscription counts the way RUN and FEED reply.
func countLines(eng *core.Engine, counts map[string]int) string {
	var lines []string
	for _, sub := range eng.Subscriptions() {
		lines = append(lines, fmt.Sprintf("%s %d", sub.ID, counts[sub.ID]))
	}
	return strings.Join(lines, ",")
}

// TestServerClusterAdaptMirrors: FAIL, RESTORE and an ADAPT schedule on the
// coordinator reach the other node as the same records SUBSCRIBE does. After
// each, both nodes show one catalog; the RUN and FEED that follow deliver
// what the simulator delivers on a reference engine that applied the same
// ops. FAIL SP1 repairs q1 over the backup route (which crosses to n1, which
// executes SP3 and SP4) and rejects q2, whose target is SP1.
func TestServerClusterAdaptMirrors(t *testing.T) {
	p := startClusterPairOn(t, buildDetourEngine)
	defer p.close()
	c0, c1 := dial(t, p.addr[0]), dial(t, p.addr[1])
	ref := buildDetourEngine(t)
	refAdm := adapt.NewManager(ref)

	for i, target := range []string{"SP2", "SP1"} {
		if s, _ := c0.cmd(t, "SUBSCRIBE "+target+" sharing", velaQ); s != fmt.Sprintf("OK q%d", i+1) {
			t.Fatalf("subscribe = %q", s)
		}
		if _, err := ref.Subscribe(velaQ, network.PeerID(target), core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct{ cmd, schedule, status string }{
		{"FAIL SP1", "fail:SP1", "OK 1 events: 1 repaired, 1 rejected, 0 migrated"},
		{"RESTORE SP1", "restore:SP1", "OK 1 events: 0 repaired, 0 rejected, 0 migrated"},
		{"ADAPT fail:SP0-SP3; restore:SP0-SP3, reopt", "fail:SP0-SP3; restore:SP0-SP3, reopt",
			"OK 3 events: 1 repaired, 0 rejected, 0 migrated"},
	} {
		if s, _ := c0.cmd(t, step.cmd, ""); s != step.status {
			t.Fatalf("%s = %q, want %q", step.cmd, s, step.status)
		}
		events, err := adapt.ParseSchedule(step.schedule)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := refAdm.ApplyAll(events); err != nil {
			t.Fatal(err)
		}
		awaitSameCatalog(t, c1, catalogView(t, c0, "q1"), "q1")
	}
	if s, _ := c1.cmd(t, "EXPLAIN q2", ""); s != "ERR unknown subscription q2" {
		t.Errorf("rejected q2 on n1: EXPLAIN = %q", s)
	}

	sim, err := ref.Simulate(map[string][]*xmlstream.Element{
		"photons": photons.NewGenerator(photons.DefaultConfig(), 1).Generate(200),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	status, cont := c0.cmd(t, "RUN 200", "")
	if want := countLines(ref, sim.Results); status != "OK 1 streams fed 200 items" || strings.Join(cont, ",") != want || sim.Results["q1"] == 0 {
		t.Fatalf("cluster run = %q %v, simulator %s", status, cont, want)
	}

	items, err := p.srv[0].parseFeedDoc(feedDoc)
	if err != nil {
		t.Fatal(err)
	}
	if sim, err = ref.Simulate(map[string][]*xmlstream.Element{"photons": items}, false); err != nil {
		t.Fatal(err)
	}
	status, cont = c1.cmd(t, "FEED photons", feedDoc)
	if want := countLines(ref, sim.Results); status != "OK fed 2 items into photons" || strings.Join(cont, ",") != want || want != "q1 1" {
		t.Fatalf("cluster feed = %q %v, simulator %s", status, cont, want)
	}
}

// TestServerClusterDivergenceRefused: two clients subscribe through two
// coordinators, each before the other's mirror arrives, so both engines
// issue q1 for different calls. Each node detects it when the other's record
// arrives, and from then on refuses work orders at once with the op named —
// its own clients' and a coordinator's — instead of running plans the other
// node does not have. Reads still answer and Close returns.
func TestServerClusterDivergenceRefused(t *testing.T) {
	p := startClusterPair(t)
	// n1 holds inbound controls back until its own client has subscribed.
	gate := make(chan struct{})
	p.mesh[1].SetControl(func(from string, data []byte) {
		<-gate
		p.srv[1].handleControl(from, data)
	})
	c0, c1 := dial(t, p.addr[0]), dial(t, p.addr[1])
	if s, _ := c0.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe at n0 = %q", s)
	}
	if s, _ := c1.cmd(t, "SUBSCRIBE SP1 data", velaQ); s != "OK q1" {
		t.Fatalf("subscribe at n1 = %q", s)
	}
	close(gate)

	for i, c := range []*client{c0, c1} {
		// The other node's record arrives asynchronously; the refusal of it
		// shows on METRICS, which does not queue behind a run.
		eventually(t, func() bool { return refusedControls(t, c) == "1" }, func() string {
			return fmt.Sprintf("n%d never refused the other node's subscribe record", i)
		})
		started := time.Now()
		status, _ := c.cmd(t, "RUN 50", "")
		if took := time.Since(started); took > time.Second {
			t.Errorf("n%d: refusal took %v", i, took)
		}
		if !strings.HasPrefix(status, "ERR") || !strings.Contains(status, "diverged") || !strings.Contains(status, "subscribe q1") {
			t.Errorf("n%d: RUN = %q, want a refusal naming the diverging op", i, status)
		}
		if s, _ := c.cmd(t, "FEED photons", feedDoc); !strings.Contains(s, "subscribe q1") {
			t.Errorf("n%d: FEED = %q, want the same refusal", i, s)
		}
		if s, _ := c.cmd(t, "STATS", ""); !strings.HasPrefix(s, "OK") {
			t.Errorf("n%d: STATS = %q", i, s)
		}
	}

	// A coordinator's order to a diverged node is answered, not dropped.
	id, ch, _ := p.srv[0].clusterPrepare()
	defer p.srv[0].clusterRelease(id)
	if err := p.mesh[0].SendControl("n1", []byte("RUN "+id+" 50 1")); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch:
		if !strings.Contains(res.err, "subscribe q1") {
			t.Errorf("n1 answered the order with %+v, want the refusal", res)
		}
	case <-time.After(time.Second):
		t.Error("n1 did not answer a work order within 1s")
	}

	// A control no node sends (or a known head with the wrong arity) is
	// refused with its reason on the flight recorder, not dropped silently.
	for _, bad := range []string{"FROB 1 2", "RUN x.9 50"} {
		if err := p.mesh[0].SendControl("n1", []byte(bad)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, func() bool { return refusedControls(t, c1) == "3" }, func() string {
		return "n1 did not count two malformed controls"
	})
	var refused []string
	for _, ev := range p.srv[1].eng.Obs().Flight.Events() {
		if ev.Kind == "control.refuse" {
			refused = append(refused, ev.Detail)
		}
	}
	if got := strings.Join(refused, "\n"); len(refused) != 3 || !strings.Contains(got, `"FROB 1 2"`) || !strings.Contains(got, `"RUN x.9 50"`) {
		t.Errorf("control.refuse events = %q", refused)
	}

	closed := make(chan struct{})
	go func() {
		p.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return on diverged nodes")
	}
}

// TestServerClusterDurableMirror: a durable non-coordinator journals the ops
// mirrored to it — an adaptation among them — and a second life over the same
// data directory recovers the catalog the coordinator still has and takes
// part in its next run. A subscribe record dispatched again (a durable link
// replays a control whose done mark a crash lost) is a no-op.
func TestServerClusterDurableMirror(t *testing.T) {
	dir := t.TempDir()
	startN1 := func(listen string) (*Server, *runtime.Cluster) {
		c1, err := runtime.NewCluster(runtime.ClusterOptions{
			Node: "n1", Nodes: map[string]string{"n1": listen, "n0": ""},
			DataDir: filepath.Join(dir, "links"), DurableSync: durable.SyncAlways,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(buildDetourEngine(t), photons.DefaultConfig()).
			WithDurable(filepath.Join(dir, "catalog"), durable.SyncAlways, 0)
		if err != nil {
			c1.Close()
			t.Fatal(err)
		}
		return srv.WithCluster(c1), c1
	}
	srv1, c1 := startN1("127.0.0.1:0")
	n1Addr := c1.Addr()
	c0, err := runtime.NewCluster(runtime.ClusterOptions{
		Node: "n0", Nodes: map[string]string{"n0": "127.0.0.1:0", "n1": n1Addr},
	})
	if err != nil {
		srv1.Close()
		t.Fatal(err)
	}
	srv0 := New(buildDetourEngine(t), photons.DefaultConfig()).WithCluster(c0)
	defer srv0.Close()
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		srv1.Close()
		t.Fatal(err)
	}
	cl0, cl1 := dial(t, serve(t, srv0)), dial(t, serve(t, srv1))

	if s, _ := cl0.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}
	if s, _ := cl0.cmd(t, "SUBSCRIBE SP2 data", velaQ); s != "OK q2" {
		t.Fatalf("subscribe = %q", s)
	}
	// An unsubscribe event is one record, the schedule's: journaled a second
	// time as the engine mutation it contains, it would fail the replay.
	if s, _ := cl0.cmd(t, "ADAPT fail:SP1; unsub:q2", ""); s != "OK 2 events: 2 repaired, 0 rejected, 0 migrated" {
		t.Fatalf("adapt = %q", s)
	}
	want := catalogView(t, cl0, "q1")
	awaitSameCatalog(t, cl1, want, "q1")
	srv1.Close()

	srv1, c1 = startN1(n1Addr)
	defer srv1.Close()
	cl1 = dial(t, serve(t, srv1))
	if got := catalogView(t, cl1, "q1"); got != want {
		t.Fatalf("recovered catalog differs:\n--- coordinator ---\n%s--- restarted node ---\n%s", want, got)
	}

	sub := srv0.eng.Subscription("q1")
	srv1.handleControl("n0", core.CatalogOp{Kind: core.CatalogSubscribe, ID: "q1",
		Query: sub.Trace.Query, Target: sub.Target, Strategy: sub.Strategy}.Record())
	if got := catalogView(t, cl1, "q1"); got != want {
		t.Fatalf("a re-dispatched subscribe changed the catalog:\n%s", got)
	}

	if err := c1.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ref := buildDetourEngine(t)
	if _, err := ref.Subscribe(velaQ, "SP2", core.StreamSharing); err != nil {
		t.Fatal(err)
	}
	if _, err := adapt.NewManager(ref).ApplyAll([]adapt.Event{{Kind: adapt.FailPeer, Peer: "SP1"}}); err != nil {
		t.Fatal(err)
	}
	sim, err := ref.Simulate(map[string][]*xmlstream.Element{
		"photons": photons.NewGenerator(photons.DefaultConfig(), 1).Generate(100),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	status, cont := cl0.cmd(t, "RUN 100", "")
	if want := countLines(ref, sim.Results); status != "OK 1 streams fed 100 items" || strings.Join(cont, ",") != want || sim.Results["q1"] == 0 {
		t.Fatalf("run across the restart = %q %v, simulator %s", status, cont, want)
	}
}
