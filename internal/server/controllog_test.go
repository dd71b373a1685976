package server

import (
	"encoding/binary"
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
// executes SP2 and SP4, at SP3-SP4) and rejects q2, whose target is SP1.
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

	items, err := p.srv[0].parseFeedDoc([]byte(feedDoc))
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

// TestServerClusterTwoCoordinators: two clients subscribe through n0 and n1
// at once. n1 forwards its SUBSCRIBE to the sequencer, n0, so the two calls
// take one order: distinct ids and one catalog on both nodes. RUN and FEED
// through either node then deliver what the simulator delivers on a
// reference engine that applied the ops in the sequencer's order, and no
// control is refused. A control no node sends is refused with its reason.
func TestServerClusterTwoCoordinators(t *testing.T) {
	p := startClusterPair(t)
	defer p.close()
	forwardSeen := make(chan struct{}, 1)
	p.mesh[0].SetControl(func(from string, data []byte) {
		if strings.HasPrefix(string(data), "FWD ") {
			select {
			case forwardSeen <- struct{}{}:
			default:
			}
		}
		p.srv[0].handleControl(from, data)
	})
	c0, c1 := dial(t, p.addr[0]), dial(t, p.addr[1])
	ops := []core.CatalogOp{
		{Kind: core.CatalogSubscribe, Query: velaQ, Target: "SP2", Strategy: core.StreamSharing},
		{Kind: core.CatalogSubscribe, Query: velaQ, Target: "SP1", Strategy: core.DataShipping},
	}
	// n0 holds its lock until both calls are in flight: c0's sent to n0, and
	// c1's forwarded there by n1.
	p.srv[0].mu.Lock()
	fmt.Fprintf(c0.conn, "SUBSCRIBE SP2 sharing\n%s\n.\n", velaQ)
	fmt.Fprintf(c1.conn, "SUBSCRIBE SP1 data\n%s\n.\n", velaQ)
	select {
	case <-forwardSeen:
	case <-time.After(5 * time.Second):
		p.srv[0].mu.Unlock()
		t.Fatal("n1 did not forward its SUBSCRIBE")
	}
	p.srv[0].mu.Unlock()
	s0, _ := c0.reply(t)
	s1, _ := c1.reply(t)
	ref := buildClusterEngine(t)
	switch {
	case s0 == "OK q1" && s1 == "OK q2":
	case s0 == "OK q2" && s1 == "OK q1":
		ops[0], ops[1] = ops[1], ops[0]
	default:
		t.Fatalf("subscribe at n0 = %q, at n1 = %q, want q1 and q2", s0, s1)
	}
	for _, op := range ops {
		if _, err := ref.Apply(op, nil); err != nil {
			t.Fatal(err)
		}
	}
	awaitSameCatalog(t, c1, catalogView(t, c0, "q1", "q2"), "q1", "q2")

	items, err := p.srv[0].parseFeedDoc([]byte(feedDoc))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []*client{c0, c1} {
		sim, err := ref.Simulate(map[string][]*xmlstream.Element{
			"photons": photons.NewGenerator(photons.DefaultConfig(), int64(i+1)).Generate(200),
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		status, cont := c.cmd(t, "RUN 200", "")
		if want := countLines(ref, sim.Results); status != "OK 1 streams fed 200 items" || strings.Join(cont, ",") != want || sim.Results["q1"] == 0 {
			t.Fatalf("RUN through n%d = %q %v, simulator %s", i, status, cont, want)
		}
		if sim, err = ref.Simulate(map[string][]*xmlstream.Element{"photons": items}, false); err != nil {
			t.Fatal(err)
		}
		status, cont = c.cmd(t, "FEED photons", feedDoc)
		if want := countLines(ref, sim.Results); status != "OK fed 2 items into photons" || strings.Join(cont, ",") != want {
			t.Fatalf("FEED through n%d = %q %v, simulator %s", i, status, cont, want)
		}
	}
	for i, c := range []*client{c0, c1} {
		if n := refusedControls(t, c); n != "0" {
			t.Errorf("n%d refused %s controls", i, n)
		}
	}

	// A control no node sends (or a known head with the wrong arity) is
	// refused with its reason on the flight recorder, not dropped silently;
	// so is a record past the next position, and the node stays where it is.
	want := catalogView(t, c1, "q1", "q2")
	skip := binary.BigEndian.AppendUint64(core.CatalogOp{Kind: core.CatalogUnsubscribe, ID: "q1"}.Record(), 9)
	for _, bad := range []string{"FROB 1 2", "RUN x.9 50", string(skip)} {
		if err := p.mesh[0].SendControl("n1", []byte(bad)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, func() bool { return refusedControls(t, c1) == "3" }, func() string {
		return "n1 did not count three refused controls"
	})
	var refused []string
	for _, ev := range p.srv[1].eng.Obs().Flight.Events() {
		if ev.Kind == "control.refuse" {
			refused = append(refused, ev.Detail)
		}
	}
	if got := strings.Join(refused, "\n"); len(refused) != 3 || !strings.Contains(got, `"FROB 1 2"`) ||
		!strings.Contains(got, `"RUN x.9 50"`) || !strings.Contains(got, "record 9 from n0") {
		t.Errorf("control.refuse events = %q", refused)
	}
	if got := catalogView(t, c1, "q1", "q2"); got != want {
		t.Errorf("a refused record changed the catalog:\n%s", got)
	}
}

// TestServerClusterOrderAtOtherPosition: a node whose catalog position is not
// the one a work order names refuses it at once, naming both, instead of
// running a plan the coordinator does not have.
func TestServerClusterOrderAtOtherPosition(t *testing.T) {
	p := startClusterPair(t)
	defer p.close()
	subscribeBoth(t, dial(t, p.addr[0]), dial(t, p.addr[1]))
	p.srv[1].mu.Lock()
	at := p.srv[1].position()
	p.srv[1].mu.Unlock()
	ahead := fmt.Sprintf("2:%016x", 7)
	id, ch, _ := p.srv[0].clusterPrepare()
	defer p.srv[0].clusterRelease(id)
	started := time.Now()
	if err := p.mesh[0].SendControl("n1", []byte("RUN "+id+" 50 1 "+ahead)); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch:
		if !strings.HasPrefix(at, "1:") || !strings.Contains(res.err, at) || !strings.Contains(res.err, ahead) {
			t.Errorf("n1 at %s answered an order at %s with %+v, want a refusal naming both", at, ahead, res)
		}
		if took := time.Since(started); took > time.Second {
			t.Errorf("refusal took %v", took)
		}
	case <-time.After(time.Second):
		t.Error("n1 did not answer the work order within 1s")
	}
}

// startDurablePair meshes two detour-engine servers over loopback TCP: n0
// keeps its state in memory, n1 journals under a fresh data directory. It
// returns both servers and a function that starts n1's next life on the same
// address and directory, once the caller has closed the last one. Each life
// places its peers before its catalog replays, in sgd's order.
func startDurablePair(t *testing.T) (srv0, srv1 *Server, restartN1 func() (*Server, *runtime.Cluster)) {
	t.Helper()
	dir, listen := t.TempDir(), "127.0.0.1:0"
	restartN1 = func() (*Server, *runtime.Cluster) {
		eng := buildDetourEngine(t)
		c1, err := runtime.NewCluster(eng.Net, runtime.ClusterOptions{
			Node: "n1", Nodes: map[string]string{"n1": listen, "n0": ""},
			DataDir: filepath.Join(dir, "links"), DurableSync: durable.SyncAlways,
		})
		if err != nil {
			t.Fatal(err)
		}
		listen = c1.Addr()
		srv, err := New(eng, photons.DefaultConfig()).
			WithDurable(filepath.Join(dir, "catalog"), durable.SyncAlways, 0)
		if err != nil {
			c1.Close()
			t.Fatal(err)
		}
		return srv.WithCluster(c1), c1
	}
	srv1, _ = restartN1()
	eng0 := buildDetourEngine(t)
	c0, err := runtime.NewCluster(eng0.Net, runtime.ClusterOptions{
		Node: "n0", Nodes: map[string]string{"n0": "127.0.0.1:0", "n1": listen},
	})
	if err != nil {
		srv1.Close()
		t.Fatal(err)
	}
	srv0 = New(eng0, photons.DefaultConfig()).WithCluster(c0)
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		srv0.Close()
		srv1.Close()
		t.Fatal(err)
	}
	return srv0, srv1, restartN1
}

// TestServerClusterDurableMirror: a durable node other than the sequencer
// journals the records sent to it — adaptations among them — and a second
// life over the same data directory recovers the catalog the sequencer still
// has, at the same position, and takes part in its next run. Records
// dispatched again (a durable link replays a control whose done mark a crash
// lost) are duplicates by their position and skipped: an UNSUBSCRIBE and an
// ADAPT unsub, which cannot apply twice.
func TestServerClusterDurableMirror(t *testing.T) {
	srv0, srv1, startN1 := startDurablePair(t)
	defer srv0.Close()
	refAddr, stopRef := startDetourServer(t)
	defer stopRef()
	cl0, cl1, ref := dial(t, serve(t, srv0)), dial(t, serve(t, srv1)), dial(t, refAddr)

	// An unsubscribe event is one record, the schedule's: journaled a second
	// time as the engine mutation it contains, it would fail the replay.
	for _, c := range []struct{ line, body, status string }{
		{"SUBSCRIBE SP2 sharing", velaQ, "OK q1"},
		{"SUBSCRIBE SP2 data", velaQ, "OK q2"},
		{"ADAPT fail:SP1; unsub:q2", "", "OK 2 events: 2 repaired, 0 rejected, 0 migrated"},
		{"SUBSCRIBE SP2 data", velaQ, "OK q3"},
		{"UNSUBSCRIBE q3", "", "OK q3 removed"},
	} {
		for _, cl := range []*client{cl0, ref} {
			if s, _ := cl.cmd(t, c.line, c.body); s != c.status {
				t.Fatalf("%s = %q, want %q", c.line, s, c.status)
			}
		}
	}
	want := catalogView(t, cl0, "q1")
	awaitSameCatalog(t, cl1, want, "q1")
	srv1.Close()

	srv1, c1 := startN1()
	defer srv1.Close()
	cl1 = dial(t, serve(t, srv1))
	if got := catalogView(t, cl1, "q1"); got != want {
		t.Fatalf("recovered catalog differs:\n--- coordinator ---\n%s--- restarted node ---\n%s", want, got)
	}
	for pos, op := range map[uint64]core.CatalogOp{
		4: {Kind: core.CatalogAdapt, Detail: "unsub:q2"},
		6: {Kind: core.CatalogUnsubscribe, ID: "q3"},
	} {
		srv1.handleControl("n0", binary.BigEndian.AppendUint64(op.Record(), pos))
	}
	if got := catalogView(t, cl1, "q1"); got != want {
		t.Fatalf("re-dispatched records changed the catalog:\n%s", got)
	}
	if n := refusedControls(t, cl1); n != "0" {
		t.Errorf("the restarted node refused %s controls", n)
	}

	if err := c1.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantStatus, wantCont := ref.cmd(t, "RUN 100", "")
	started := time.Now()
	status, cont := cl0.cmd(t, "RUN 100", "")
	if took := time.Since(started); took > time.Second {
		t.Errorf("the run after re-dispatched records took %v", took)
	}
	if status != wantStatus || strings.Join(cont, ",") != strings.Join(wantCont, ",") || len(cont) != 1 || cont[0] == "q1 0" {
		t.Fatalf("run across the restart = %q %v, simulator %q %v", status, cont, wantStatus, wantCont)
	}
}

// TestServerClusterAddLinkRestart: an adaptation that adds a link moves no
// peer — not on the node that keeps running, and not on one restarted over
// its journal, whose catalog replays the link into its topology before the
// next run. On the detour ring n1 executes SP2 and SP4; placed with SP0-SP2
// the ring would put SP2 on n0 and SP3 on n1, and two nodes with different
// maps would leave SP2 to neither. Both runs deliver what the simulator does.
func TestServerClusterAddLinkRestart(t *testing.T) {
	srv0, srv1, startN1 := startDurablePair(t)
	defer srv0.Close()
	cl0, cl1 := dial(t, serve(t, srv0)), dial(t, serve(t, srv1))
	ref := buildDetourEngine(t)
	run := func(n int, seed int64) {
		t.Helper()
		sim, err := ref.Simulate(map[string][]*xmlstream.Element{
			"photons": photons.NewGenerator(photons.DefaultConfig(), seed).Generate(n),
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		status, cont := cl0.cmd(t, fmt.Sprintf("RUN %d", n), "")
		want := countLines(ref, sim.Results)
		if status != fmt.Sprintf("OK 1 streams fed %d items", n) || strings.Join(cont, ",") != want || sim.Results["q1"] == 0 {
			t.Fatalf("RUN %d = %q %v, simulator %s", n, status, cont, want)
		}
	}
	selfLine := func(c *client) string {
		_, cont := c.cmd(t, "NODES", "")
		for _, l := range cont {
			if strings.Contains(l, " self @ ") {
				return l
			}
		}
		return ""
	}

	if s, _ := cl0.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}
	if _, err := ref.Subscribe(velaQ, "SP2", core.StreamSharing); err != nil {
		t.Fatal(err)
	}
	run(100, 1)

	const schedule = "addlink:SP0-SP2=12500000, reopt"
	if s, _ := cl0.cmd(t, "ADAPT "+schedule, ""); !strings.HasPrefix(s, "OK 2 events") {
		t.Fatalf("adapt = %q", s)
	}
	events, err := adapt.ParseSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapt.NewManager(ref).ApplyAll(events); err != nil {
		t.Fatal(err)
	}
	want := catalogView(t, cl0, "q1")
	awaitSameCatalog(t, cl1, want, "q1")
	srv1.Close()

	srv1, c1 := startN1()
	defer srv1.Close()
	cl1 = dial(t, serve(t, srv1))
	if got := catalogView(t, cl1, "q1"); got != want {
		t.Fatalf("recovered catalog differs:\n--- coordinator ---\n%s--- restarted node ---\n%s", want, got)
	}
	if err := c1.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, c := range []*client{cl0, cl1} {
		if got, want := selfLine(c), []string{"peers=3 cut=2", "peers=2 cut=2"}[i]; !strings.HasSuffix(got, want) {
			t.Errorf("n%d: self line %q, want it to end in %q", i, got, want)
		}
	}
	run(150, 2)
}
