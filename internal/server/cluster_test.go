package server

import (
	"fmt"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
)

// buildClusterEngine builds the identical engine every cluster process
// needs: same topology, same stream registration, so plans and
// subscription ids agree across nodes.
func buildClusterEngine(t *testing.T) *core.Engine { return buildClusterEngineTap(t, "SP0") }

// buildClusterEngineTap is buildClusterEngine with the stream's tap at tap.
func buildClusterEngineTap(t *testing.T, tap network.PeerID) *core.Engine {
	t.Helper()
	n := network.New()
	for _, id := range []network.PeerID{"SP0", "SP1", "SP2"} {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 20000, PerfIndex: 1})
	}
	n.Connect("SP0", "SP1", 12_500_000)
	n.Connect("SP1", "SP2", 12_500_000)
	eng := core.NewEngine(n, core.Config{})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 3, 500)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), tap, st); err != nil {
		t.Fatal(err)
	}
	return eng
}

// clusterPair is a two-node super-peer daemon over loopback TCP: two
// servers, each with its own engine and a cluster endpoint, meshed
// together. SP0 and SP1 land on n0, SP2 on n1.
type clusterPair struct {
	srv   [2]*Server
	mesh  [2]*runtime.Cluster
	addr  [2]string
	close func()
}

func startClusterPair(t *testing.T) *clusterPair {
	t.Helper()
	return startClusterPairOn(t, buildClusterEngine)
}

// startClusterPairOn is startClusterPair over the engine build returns; peers
// are placed by runtime.PartitionPeers, the smallest on n0.
func startClusterPairOn(t *testing.T, build func(*testing.T) *core.Engine) *clusterPair {
	t.Helper()
	eng0, eng1 := build(t), build(t)
	c1, err := runtime.NewCluster(eng1.Net, runtime.ClusterOptions{
		Node: "n1", Nodes: map[string]string{"n1": "127.0.0.1:0", "n0": ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, err := runtime.NewCluster(eng0.Net, runtime.ClusterOptions{
		Node: "n0", Nodes: map[string]string{"n0": "127.0.0.1:0", "n1": c1.Addr()},
	})
	if err != nil {
		c1.Close()
		t.Fatal(err)
	}
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		c0.Close()
		c1.Close()
		t.Fatal(err)
	}
	p := &clusterPair{mesh: [2]*runtime.Cluster{c0, c1}}
	for i, eng := range []*core.Engine{eng0, eng1} {
		p.srv[i] = New(eng, photons.DefaultConfig()).WithCluster(p.mesh[i])
		p.addr[i] = serve(t, p.srv[i])
	}
	p.close = func() {
		p.srv[0].Close()
		p.srv[1].Close()
	}
	return p
}

// serve starts srv on a loopback listener and returns its address.
func serve(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String()
}

// startClusterServers is startClusterPair for tests that only talk to the
// two client listeners.
func startClusterServers(t *testing.T) (addr0, addr1 string, stop func()) {
	t.Helper()
	p := startClusterPair(t)
	return p.addr[0], p.addr[1], p.close
}

// retryOK polls a command on a client until its status goes OK (control
// frames mirror asynchronously) or the deadline lapses.
func retryOK(t *testing.T, c *client, line string) (status string, cont []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, cont = c.cmd(t, line, "")
		if strings.HasPrefix(status, "OK") || time.Now().After(deadline) {
			return status, cont
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerClusterRun drives the full multi-process daemon flow against
// two in-process servers meshed over loopback TCP: a subscription made on
// the coordinating node mirrors to the other, RUN fans out and merges the
// remote counts — matching the single-engine simulator exactly — FEED
// routes client items through both processes, and NODES reports the
// membership.
func TestServerClusterRun(t *testing.T) {
	p := startClusterPair(t)
	defer p.close()
	c := dial(t, p.addr[0])

	// The subscription lands on SP2 — owned by the OTHER node (n1), so
	// every delivered item crosses the process boundary.
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}
	// The mutation mirrored to n1: its engine knows q1.
	c1 := dial(t, p.addr[1])
	if s, _ := retryOK(t, c1, "EXPLAIN q1"); !strings.HasPrefix(s, "OK") {
		t.Fatalf("mirrored explain = %q", s)
	}

	status, cont := c.cmd(t, "RUN 400", "")
	if !strings.HasPrefix(status, "OK") {
		t.Fatalf("cluster run = %q", status)
	}
	var got int
	for _, l := range cont {
		fmt.Sscanf(l, "q1 %d", &got) //nolint:errcheck
	}

	// The merged distributed count must equal the single-engine
	// simulator's on the identical feed (seed base 1, as the server's
	// first run uses).
	ref := buildClusterEngine(t)
	if _, err := ref.Subscribe(velaQ, "SP2", core.StreamSharing); err != nil {
		t.Fatal(err)
	}
	feed := map[string][]*xmlstream.Element{
		"photons": photons.NewGenerator(photons.DefaultConfig(), 1).Generate(400),
	}
	sim, err := ref.Simulate(feed, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Results["q1"]; got != want || want == 0 {
		t.Errorf("cluster run delivered %d items, simulator %d", got, want)
	}

	// FEED pushes client items through both processes; only the in-box
	// photon passes the vela ra filter.
	status, cont = c.cmd(t, "FEED photons", feedDoc)
	if status != "OK fed 2 items into photons" {
		t.Fatalf("cluster feed = %q", status)
	}
	if len(cont) != 1 || cont[0] != "q1 1" {
		t.Errorf("cluster feed results = %v", cont)
	}

	// The self line names the node's share of the placement and the links it
	// cuts: SP0-SP1 stay on n0, SP1-SP2 crosses. NODES answers while the
	// server's lock is held, as a RUN or FEED holds it for its whole run.
	for i, cl := range []*client{c, c1} {
		status, cont = func() (string, []string) {
			p.srv[i].mu.Lock()
			defer p.srv[i].mu.Unlock()
			cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			defer cl.conn.SetReadDeadline(time.Time{})
			return cl.cmd(t, "NODES", "")
		}()
		if status != "OK 2 nodes" || len(cont) != 2 {
			t.Fatalf("node %d: NODES = %q %v", i, status, cont)
		}
		if want := []string{"peers=2 cut=1", "peers=1 cut=1"}[i]; !strings.Contains(cont[i], " self @ ") || !strings.HasSuffix(cont[i], want) {
			t.Errorf("node %d: self line %q, want it to end in %q", i, cont[i], want)
		}
		if other := cont[1-i]; !strings.Contains(other, "reconnects=") || strings.Contains(other, "cut=") {
			t.Errorf("node %d: remote line %q", i, other)
		}
	}

	// UNSUBSCRIBE mirrors too: q1 disappears from both engines.
	if s, _ := c.cmd(t, "UNSUBSCRIBE q1", ""); !strings.HasPrefix(s, "OK") {
		t.Fatalf("unsubscribe = %q", s)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := c1.cmd(t, "EXPLAIN q1", ""); strings.HasPrefix(s, "ERR") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unsubscribe did not mirror to n1")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerClusterCloseLeakFree extends the leak-free Close guarantee to
// cluster mode: closing both servers tears down every client session AND
// the transport meshes — listeners, conns, writer/reader/dispatcher/dial
// goroutines — deterministically, leaving no goroutine behind.
func TestServerClusterCloseLeakFree(t *testing.T) {
	before := goruntime.NumGoroutine()
	addr0, addr1, stop := startClusterServers(t)
	c0, c1 := dial(t, addr0), dial(t, addr1)
	if s, _ := c0.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}
	if s, _ := c0.cmd(t, "RUN 50", ""); !strings.HasPrefix(s, "OK") {
		t.Fatalf("run = %q", s)
	}
	if s, _ := c1.cmd(t, "NODES", ""); !strings.HasPrefix(s, "OK") {
		t.Fatalf("nodes = %q", s)
	}

	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with cluster attached")
	}
	for i, c := range []*client{c0, c1} {
		c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.r.ReadString('\n'); err == nil {
			t.Errorf("client %d: connection still open after Close", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && goruntime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after cluster Close", before, after)
	}
}

// feedDoc is two photons, one inside the vela box and one outside it.
const feedDoc = `<photons>
<photon><coord><cel><ra>130.0</ra><dec>-45.0</dec></cel></coord><en>1.5</en><det_time>1</det_time></photon>
<photon><coord><cel><ra>90.0</ra><dec>-45.0</dec></cel></coord><en>1.5</en><det_time>2</det_time></photon>
</photons>`

// feedCounter reads one of a node's server.feed.* counters off METRICS.
func feedCounter(t *testing.T, c *client, name string) string {
	t.Helper()
	_, cont := c.cmd(t, "METRICS", "")
	for _, l := range cont {
		if v, ok := strings.CutPrefix(l, "counter server.feed."+name+" "); ok {
			return v
		}
	}
	t.Fatalf("METRICS lacks server.feed.%s", name)
	return ""
}

// subscribeBoth registers velaQ at SP2 through n0 and waits until n1 has
// mirrored it, so either node can coordinate the runs that follow.
func subscribeBoth(t *testing.T, c0, c1 *client) {
	t.Helper()
	if s, _ := c0.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}
	if s, _ := retryOK(t, c1, "EXPLAIN q1"); !strings.HasPrefix(s, "OK") {
		t.Fatalf("mirrored explain = %q", s)
	}
}

// simulatorFeed is the reference reply: the same subscription and document
// on a single-process server, which executes on the simulator.
func simulatorFeed(t *testing.T, doc string) (status string, cont []string) {
	t.Helper()
	addr, stop := startServer(t)
	defer stop()
	sim := dial(t, addr)
	if s, _ := sim.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}
	status, cont = sim.cmd(t, "FEED photons", doc)
	if status != "OK fed 2 items into photons" || len(cont) != 1 || cont[0] != "q1 1" {
		t.Fatalf("simulator feed = %q %v", status, cont)
	}
	return status, cont
}

// tapOnN1 builds the cluster engine with the stream's tap at SP2, on n1.
func tapOnN1(t *testing.T) *core.Engine { return buildClusterEngineTap(t, "SP2") }

// TestServerClusterFeedEitherCoordinator sends the same document through
// the sequencer (n0) and through n1, which forwards it to n0 raw, with the
// stream's tap on either node. Every reply equals the single-process
// simulator's, and the parse counters show who decoded the document: the
// sequencer once per FEED, the tap's owner once more when it is n1, and a
// node that injects nothing never.
func TestServerClusterFeedEitherCoordinator(t *testing.T) {
	wantStatus, wantCont := simulatorFeed(t, feedDoc)
	for _, tc := range []struct {
		build        func(*testing.T) *core.Engine
		docs0, docs1 [2]string // server.feed.docs on n0 and n1 after each FEED
	}{
		{buildClusterEngine, [2]string{"1", "2"}, [2]string{"0", "0"}}, // n0 injects
		{tapOnN1, [2]string{"1", "2"}, [2]string{"1", "2"}},            // the document goes on to n1
	} {
		p := startClusterPairOn(t, tc.build)
		c0, c1 := dial(t, p.addr[0]), dial(t, p.addr[1])
		subscribeBoth(t, c0, c1)
		for i, via := range []*client{c0, c1} {
			status, cont := via.cmd(t, "FEED photons", feedDoc)
			if status != wantStatus || strings.Join(cont, ",") != strings.Join(wantCont, ",") {
				t.Fatalf("cluster feed = %q %v, simulator %q %v", status, cont, wantStatus, wantCont)
			}
			if d0, d1 := feedCounter(t, c0, "docs"), feedCounter(t, c1, "docs"); d0 != tc.docs0[i] || d1 != tc.docs1[i] {
				t.Errorf("FEED %d: documents parsed: n0 %s n1 %s, want %s and %s", i, d0, d1, tc.docs0[i], tc.docs1[i])
			}
		}
		if n := feedCounter(t, c0, "docs.fallback"); n != "0" {
			t.Errorf("canonical documents left the fast lane %s times", n)
		}
		p.close()
	}
}

// TestServerClusterFeedAttributes feeds a document with attributes through
// n1 — the decoder's encoding/xml lane end to end, on the sequencer and on
// the tap's owner, n1 — and expects the counts one process gives.
func TestServerClusterFeedAttributes(t *testing.T) {
	doc := strings.ReplaceAll(feedDoc, "<photon>", `<photon id="7">`)
	p := startClusterPairOn(t, tapOnN1)
	defer p.close()
	c0, c1 := dial(t, p.addr[0]), dial(t, p.addr[1])
	subscribeBoth(t, c0, c1)
	wantStatus, wantCont := simulatorFeed(t, doc)
	status, cont := c1.cmd(t, "FEED photons", doc)
	if status != wantStatus || strings.Join(cont, ",") != strings.Join(wantCont, ",") {
		t.Errorf("cluster feed = %q %v, simulator %q %v", status, cont, wantStatus, wantCont)
	}
	for i, c := range []*client{c0, c1} {
		if n := feedCounter(t, c, "docs.fallback"); n != "1" {
			t.Errorf("n%d: %s documents on the encoding/xml lane, want 1", i, n)
		}
	}
}

// TestServerClusterFeedMalformed checks a rejected document stays on the
// coordinator: the other node's control handler sees no FEED order for it.
// Controls are FIFO per link, so by the time the valid FEED that follows
// has been answered, an order for the malformed one would have shown.
func TestServerClusterFeedMalformed(t *testing.T) {
	p := startClusterPair(t)
	defer p.close()
	var mu sync.Mutex
	var orders []string
	p.mesh[1].SetControl(func(from string, data []byte) {
		kind := "OP" // a mirrored catalog record starts with its kind byte
		if data[0] >= ' ' {
			kind = strings.Fields(string(data))[0]
		}
		mu.Lock()
		orders = append(orders, kind)
		mu.Unlock()
		p.srv[1].handleControl(from, data)
	})
	c0, c1 := dial(t, p.addr[0]), dial(t, p.addr[1])
	subscribeBoth(t, c0, c1)
	for _, doc := range []string{"<photons><broken>", "<photons><photon>1</photons>", "not xml"} {
		if s, _ := c0.cmd(t, "FEED photons", doc); !strings.HasPrefix(s, "ERR") {
			t.Errorf("FEED %q = %q", doc, s)
		}
	}
	if s, _ := c0.cmd(t, "FEED nope", feedDoc); s != "ERR unknown stream nope" {
		t.Errorf("unknown stream feed = %q", s)
	}
	if s, _ := c0.cmd(t, "FEED photons", feedDoc); s != "OK fed 2 items into photons" {
		t.Fatalf("valid feed = %q", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Join(orders, " "); got != "OP FEED" {
		t.Errorf("n1 saw controls %q, want the subscription and one FEED", got)
	}
}

// TestServerClusterFanoutFailureReleasesWait: a FEED whose work order cannot
// leave (the coordinator's links are closed) answers ERR and leaves no
// registered wait behind for a late RES to land in; neither does one that
// succeeded.
func TestServerClusterFanoutFailureReleasesWait(t *testing.T) {
	p := startClusterPair(t)
	defer p.close()
	c0, c1 := dial(t, p.addr[0]), dial(t, p.addr[1])
	subscribeBoth(t, c0, c1)
	waits := func() int {
		p.srv[0].cmu.Lock()
		defer p.srv[0].cmu.Unlock()
		return len(p.srv[0].waits)
	}
	if s, _ := c0.cmd(t, "FEED photons", feedDoc); !strings.HasPrefix(s, "OK") {
		t.Fatalf("feed = %q", s)
	}
	if n := waits(); n != 0 {
		t.Fatalf("%d waits registered after a completed FEED", n)
	}
	p.mesh[0].Close()
	if s, _ := c0.cmd(t, "FEED photons", feedDoc); !strings.HasPrefix(s, "ERR") {
		t.Fatalf("feed over closed links = %q, want ERR", s)
	}
	if n := waits(); n != 0 {
		t.Fatalf("%d waits registered after a FEED whose fan-out failed", n)
	}
}
