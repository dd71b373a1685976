package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/photons"
	"streamshare/internal/scenario"
	"streamshare/internal/testutil"
	"streamshare/internal/transport"
	"streamshare/internal/xmlstream"
)

// The cluster equivalence oracle: the same grid scenario is planned by
// independent engines (plans are deterministic), executed across two
// cluster nodes over a real transport, and the union of their deliveries
// must match the in-process simulator item-for-item — with and without
// forced disconnects, because the link layer's journal/replay/dedup makes
// TCP reconnection loss-free.

// gridCase pins the distributed acceptance scenario: a 3×3 super-peer
// grid, ten shared queries, 150 source items.
const (
	gridN       = 3
	gridQueries = 10
	gridItems   = 150
)

// clusterBuild registers the grid scenario on a fresh engine. Twin builds
// are identical, which is what lets independent processes agree on the
// plan with no coordination.
func clusterBuild(n, queries, items int, reliable bool) (*core.Engine, map[string][]*xmlstream.Element, error) {
	s := scenario.ScaleGrid(n, queries, items)
	eng := core.NewEngine(s.Net, core.Config{Reliable: reliable})
	feed := map[string][]*xmlstream.Element{}
	for _, src := range s.Sources {
		if _, err := eng.RegisterStream(src.Name, xmlstream.ParsePath("photons/photon"), src.At, src.Stats); err != nil {
			return nil, nil, err
		}
		feed[src.Name] = src.Items
	}
	for _, q := range s.Queries {
		if _, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing); err != nil {
			return nil, nil, err
		}
	}
	return eng, feed, nil
}

// fuseTransport wraps a transport with a fault driven by the data path, not
// the clock: across every conn it dials or accepts, each period-th WriteFrame
// fails and closes its conn, the way a broken socket fails its writer. A run
// that writes period frames is therefore broken mid-stream however briefly it
// streams — which a drop timed off the wall clock cannot promise. Hello and
// Welcome count, so a life of the link carries at most period-3 of the run's
// frames before the next break: period must exceed 3 for progress.
type fuseTransport struct {
	transport.Transport
	period int64
	writes atomic.Int64
}

func (f *fuseTransport) Dial(addr string) (transport.Conn, error) {
	c, err := f.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &fuseConn{Conn: c, t: f}, nil
}

func (f *fuseTransport) Listen(addr string) (transport.Listener, error) {
	l, err := f.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &fuseListener{Listener: l, t: f}, nil
}

type fuseListener struct {
	transport.Listener
	t *fuseTransport
}

func (l *fuseListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &fuseConn{Conn: c, t: l.t}, nil
}

type fuseConn struct {
	transport.Conn
	t *fuseTransport
}

func (c *fuseConn) WriteFrame(payload []byte) error {
	if c.t.writes.Add(1)%c.t.period == 0 {
		c.Conn.Close()
		return transport.ErrClosed
	}
	return c.Conn.WriteFrame(payload)
}

// clusterListen picks the listen address style for a transport.
func clusterListen(tr transport.Transport) string {
	if f, ok := tr.(*fuseTransport); ok {
		tr = f.Transport
	}
	if _, ok := tr.(*transport.TCP); ok {
		return "127.0.0.1:0"
	}
	return ""
}

// clusterPair builds two connected clusters ("n0" dials "n1") that place the
// peers of net, over the given transport, and registers their transport
// state with the watchdog.
func clusterPair(t testing.TB, net *network.Network, tr transport.Transport) (c0, c1 *Cluster) {
	t.Helper()
	c1, err := NewCluster(net, ClusterOptions{
		Node: "n1", Nodes: map[string]string{"n1": clusterListen(tr), "n0": ""}, Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, err = NewCluster(net, ClusterOptions{
		Node: "n0", Nodes: map[string]string{"n0": clusterListen(tr), "n1": c1.Addr()}, Transport: tr,
	})
	if err != nil {
		c1.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c0.Close(); c1.Close() })
	t.Cleanup(testutil.OnHang(func(w io.Writer) {
		c0.DumpState(w)
		c1.DumpState(w)
	}))
	return c0, c1
}

// runPair executes one runtime per cluster node concurrently and returns
// both results.
func runPair(t testing.TB, rt0, rt1 *Runtime, feed0, feed1 map[string][]*xmlstream.Element) (*Result, *Result) {
	t.Helper()
	var wg sync.WaitGroup
	var res [2]*Result
	var errs [2]error
	wg.Add(2)
	go func() { defer wg.Done(); res[0], errs[0] = rt0.Run(feed0) }()
	go func() { defer wg.Done(); res[1], errs[1] = rt1.Run(feed1) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d run: %v", i, err)
		}
	}
	return res[0], res[1]
}

// mergeResults folds the per-node results into one cluster-wide view:
// counts and collected items union (each subscription's target is owned
// by exactly one node), metrics sum.
func mergeResults(parts ...*Result) *Result {
	out := &Result{
		Metrics:   nil,
		Results:   map[string]int{},
		Collected: map[string][]*xmlstream.Element{},
	}
	for _, p := range parts {
		if out.Metrics == nil {
			out.Metrics = p.Metrics
		} else {
			out.Metrics.Merge(p.Metrics)
		}
		for id, n := range p.Results {
			out.Results[id] += n
		}
		for id, items := range p.Collected {
			out.Collected[id] = append(out.Collected[id], items...)
		}
	}
	return out
}

// compareCollected asserts the merged distributed delivery equals the
// simulator's, item for item per subscription.
func compareCollected(t *testing.T, ref *core.SimResult, got *Result) {
	t.Helper()
	chaosCompare(t, "cluster", ref, got)
	for id, refItems := range ref.Collected {
		refXML, gotXML := sortedXML(refItems), sortedXML(got.Collected[id])
		if len(refXML) != len(gotXML) {
			t.Errorf("%s: %d items, reference %d", id, len(gotXML), len(refXML))
			continue
		}
		for i := range refXML {
			if refXML[i] != gotXML[i] {
				t.Errorf("%s: item %d differs from reference", id, i)
				break
			}
		}
	}
}

// buildFunc plans one scenario on a fresh engine; twin calls are identical.
type buildFunc func() (*core.Engine, map[string][]*xmlstream.Element, error)

func gridScenario(reliable bool) buildFunc {
	return func() (*core.Engine, map[string][]*xmlstream.Element, error) {
		return clusterBuild(gridN, gridQueries, gridItems, reliable)
	}
}

func testClusterEquivalence(t *testing.T, tr transport.Transport, build buildFunc, reliable, chaos bool) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	engRef, feedRef, err := build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engRef.Simulate(feedRef, true)
	if err != nil {
		t.Fatal(err)
	}
	eng0, feed0, err := build()
	if err != nil {
		t.Fatal(err)
	}
	eng1, feed1, err := build()
	if err != nil {
		t.Fatal(err)
	}

	if chaos {
		tr = &fuseTransport{Transport: tr, period: 29}
	}
	c0, c1 := clusterPair(t, eng0.Net, tr)
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	opts0, opts1 := Options{Cluster: c0}, Options{Cluster: c1}
	if reliable {
		opts0.Session = NewSession(SessionOptions{})
		opts1.Session = NewSession(SessionOptions{})
	}
	if chaos {
		// Small batches mean many frames, so drops land mid-stream.
		opts0.BatchSize, opts1.BatchSize = 8, 8
	}
	rt0 := NewWith(eng0, true, opts0)
	rt1 := NewWith(eng1, true, opts1)

	done := make(chan struct{})
	defer close(done)
	if chaos {
		// The fuse breaks the run mid-stream for certain; on top of it, kill
		// conns from outside once as the run starts and then as often as the
		// clock allows. Every kill forces a reconnect-and-replay.
		go func() {
			c0.DropConns()
			ticker := time.NewTicker(3 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-done:
					return
				case <-ticker.C:
					c0.DropConns()
				}
			}
		}()
	}

	res0, res1 := runPair(t, rt0, rt1, feed0, feed1)
	compareCollected(t, ref, mergeResults(res0, res1))
	if reliable {
		checkNoFaults(t, c0, opts0.Session)
		checkNoFaults(t, c1, opts1.Session)
	}

	if chaos {
		recon := uint64(0)
		for _, st := range append(c0.Stats(), c1.Stats()...) {
			recon += st.Reconnects
		}
		if recon == 0 {
			t.Fatal("chaos run recorded no reconnects; the drop loop did not engage")
		}
		t.Logf("chaos: %d reconnects survived with identical delivery", recon)
	}
}

// checkNoFaults asserts that a healthy run left a cluster node's session
// with an empty fault queue.
func checkNoFaults(t *testing.T, c *Cluster, sess *Session) {
	t.Helper()
	if ch := sess.TakeFaults(); len(ch) != 0 {
		t.Errorf("%s: healthy cluster run queued faults %v", c.Node(), ch)
	}
}

// TestClusterRefusesRemoteFaults: a node applies a fault only in part when
// another node hosts the peer, or either end of the link, so it refuses it,
// naming the owner, and queues nothing; a fault on a peer it hosts is taken.
func TestClusterRefusesRemoteFaults(t *testing.T) {
	eng, _, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := clusterPair(t, eng.Net, transport.NewMem())
	var local, remote network.PeerID
	for _, p := range eng.Net.Peers() {
		if c0.NodeOf(p) == c0.Node() {
			local = p
		} else {
			remote = p
		}
	}
	var cut network.LinkID
	for _, l := range eng.Net.Links() {
		if c0.NodeOf(l.A) != c0.NodeOf(l.B) {
			cut = l
		}
	}
	if local == "" || remote == "" || cut.A == "" {
		t.Fatal("the placement puts every peer on one node")
	}
	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, false, Options{Cluster: c0, Session: sess})
	for name, inject := range map[string]func() error{
		"kill " + string(remote): func() error { return rt.KillPeer(remote) },
		"sever " + cut.String():  func() error { return rt.SeverLink(cut.A, cut.B) },
	} {
		if err := inject(); err == nil || !strings.Contains(err.Error(), "hosted by node n1") {
			t.Errorf("%s on n0: %v, want a refusal naming n1", name, err)
		}
	}
	if rt.nodes[remote].dead.Load() {
		t.Errorf("the refused kill marked %s dead", remote)
	}
	if ch := sess.TakeFaults(); len(ch) != 0 {
		t.Fatalf("refused faults queued %v", ch)
	}
	if err := rt.KillPeer(local); err != nil {
		t.Fatal(err)
	}
	if ch := sess.TakeFaults(); len(ch) != 1 || ch[0].Peer != local {
		t.Fatalf("kill of hosted %s queued %v", local, ch)
	}
}

// TestClusterEquivalenceMem runs the grid, and then a repaired fuzzy-order
// source on a peer the accepting node owns with its consumer on the dialing
// node: the sort buffer runs in the source's process, and the other one
// receives sorted items.
func TestClusterEquivalenceMem(t *testing.T) {
	testClusterEquivalence(t, transport.NewMem(), gridScenario(false), false, false)

	// The smallest peer each node owns; peers sort, so the first found wins.
	first := map[string]network.PeerID{}
	net := testNet()
	own := PartitionPeers(net, []string{"n0", "n1"})
	for _, p := range net.Peers() {
		if _, ok := first[own[p]]; !ok {
			first[own[p]] = p
		}
	}
	testClusterEquivalence(t, transport.NewMem(), func() (*core.Engine, map[string][]*xmlstream.Element, error) {
		eng, feed := fuzzyBuild(t, first["n1"], first["n0"])
		return eng, feed, nil
	}, false, false)
}

// TestClusterEquivalenceBenchPlanMem runs the benchmark's 4×4, 32-query plan,
// where the placement decides which hops cross between the nodes.
func TestClusterEquivalenceBenchPlanMem(t *testing.T) {
	testClusterEquivalence(t, transport.NewMem(), benchScenario(false), false, false)
}

// TestClusterReconnectChaosBenchPlanMem is the benchmark's plan with conns
// broken mid-run: every reconnect replays, and delivery still matches.
func TestClusterReconnectChaosBenchPlanMem(t *testing.T) {
	testClusterEquivalence(t, transport.NewMem(), benchScenario(true), true, true)
}

// benchScenario plans the benchmark's 4×4, 32-query plan over the scenario's
// 150 photons.
func benchScenario(reliable bool) buildFunc {
	return func() (*core.Engine, map[string][]*xmlstream.Element, error) {
		eng, err := benchPlanWith(core.Config{Reliable: reliable})
		if err != nil {
			return nil, nil, err
		}
		items := photons.NewGenerator(photons.DefaultConfig(), 1).Generate(gridItems)
		return eng, map[string][]*xmlstream.Element{"photons": items}, nil
	}
}

// TestPartitionPeers pins the placement's rules: it depends on the topology
// alone — not on input order, not on what is up — gives each node the share
// the i*k/n rule over the sorted peers gives it, puts the smallest peer on
// the smallest node, places disconnected peers, and cuts no more links than
// splitting the sorted peer names would.
func TestPartitionPeers(t *testing.T) {
	sortedSplit := func(net *network.Network, nodes []string) map[network.PeerID]string {
		ns := slices.Clone(nodes)
		sort.Strings(ns)
		peers := net.Peers()
		out := map[network.PeerID]string{}
		for i, p := range peers {
			out[p] = ns[i*len(ns)/len(peers)]
		}
		return out
	}
	cut := func(net *network.Network, own map[network.PeerID]string) int {
		n := 0
		for _, l := range net.Links() {
			if own[l.A] != own[l.B] {
				n++
			}
		}
		return n
	}
	shares := func(own map[network.PeerID]string) map[string]int {
		out := map[string]int{}
		for _, node := range own {
			out[node]++
		}
		return out
	}
	nodeNames := func(k int) []string {
		ns := make([]string, k)
		for i := range ns {
			ns[i] = fmt.Sprintf("n%d", i)
		}
		return ns
	}

	grid := func(n int) *network.Network { return scenario.ScaleGrid(n, 0, 1).Net }
	type netCase struct {
		name string
		net  *network.Network
	}
	// On three nodes the best swap of the first bisection would move P0, whose
	// BFS fill leaves two of its three links cut, off the smallest node.
	star := network.New()
	for i := 0; i < 6; i++ {
		star.AddPeer(network.Peer{ID: network.PeerID(fmt.Sprintf("P%d", i)), Super: true})
	}
	for _, l := range [][2]network.PeerID{{"P0", "P1"}, {"P0", "P2"}, {"P0", "P3"}, {"P1", "P4"}, {"P2", "P5"}} {
		star.Connect(l[0], l[1], 1)
	}
	cases := []netCase{{"testNet", testNet()}, {"star", star}}
	for n := 3; n <= 6; n++ {
		cases = append(cases, netCase{fmt.Sprintf("grid%d", n), grid(n)})
	}
	for _, c := range cases {
		for k := 2; k <= 4; k++ {
			nodes := nodeNames(k)
			own, old := PartitionPeers(c.net, nodes), sortedSplit(c.net, nodes)
			if len(own) != len(c.net.Peers()) {
				t.Errorf("%s, %d nodes: %d of %d peers placed", c.name, k, len(own), len(c.net.Peers()))
			}
			if !maps.Equal(shares(own), shares(old)) {
				t.Errorf("%s, %d nodes: shares %v, the i*k/n rule gives %v", c.name, k, shares(own), shares(old))
			}
			if own[c.net.Peers()[0]] != "n0" {
				t.Errorf("%s, %d nodes: the smallest peer is on %s", c.name, k, own[c.net.Peers()[0]])
			}
			got, was := cut(c.net, own), cut(c.net, old)
			if got > was {
				t.Errorf("%s, %d nodes: cut %d links, the sorted split %d", c.name, k, got, was)
			}
			t.Logf("%s, %d nodes: cut %d links, the sorted split %d", c.name, k, got, was)
			// Node order of the input does not matter.
			rev := slices.Clone(nodes)
			slices.Reverse(rev)
			if !maps.Equal(own, PartitionPeers(c.net, rev)) {
				t.Errorf("%s, %d nodes: the map depends on node order", c.name, k)
			}
		}
	}

	g4 := grid(4)
	own := PartitionPeers(g4, []string{"n0", "n1"})
	if got := cut(g4, own); got != 4 {
		t.Errorf("4×4 grid on 2 nodes: cut %d links, want 4 (the sorted split cuts %d)", got, cut(g4, sortedSplit(g4, []string{"n0", "n1"})))
	}

	// The same topology built in another order gives the same map.
	perm := network.New()
	peers, links := g4.Peers(), g4.Links()
	r := rand.New(rand.NewSource(7))
	r.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, p := range peers {
		perm.AddPeer(*g4.Peer(p))
	}
	for _, l := range links {
		perm.Connect(l.B, l.A, g4.Link(l.A, l.B).Bandwidth)
	}
	if got := PartitionPeers(perm, []string{"n1", "n0"}); !maps.Equal(own, got) {
		t.Errorf("permuted input: %v, want %v", got, own)
	}

	// What is up does not matter: the placement reads the static topology.
	if err := g4.FailLink("SP5", "SP6"); err != nil {
		t.Fatal(err)
	}
	if err := g4.FailPeer("SP9"); err != nil {
		t.Fatal(err)
	}
	if got := PartitionPeers(g4, []string{"n0", "n1"}); !maps.Equal(own, got) {
		t.Errorf("after failures: %v, want %v", got, own)
	}

	// A peer no link reaches is placed too.
	g4.AddPeer(network.Peer{ID: "SP16", Super: true})
	island := PartitionPeers(g4, []string{"n0", "n1", "n2"})
	if island["SP16"] == "" || len(island) != 17 {
		t.Errorf("disconnected peer: %v", island)
	}
}

// BenchmarkPartitionPeers prices the placement on the grids sgd -grid
// builds, up to 64×64; NewCluster computes it once, at startup.
func BenchmarkPartitionPeers(b *testing.B) {
	for _, side := range []int{4, 16, 32, 64} {
		net := scenario.ScaleGrid(side, 0, 1).Net
		for _, k := range []int{2, 4} {
			nodes := make([]string, k)
			for i := range nodes {
				nodes[i] = fmt.Sprintf("n%d", i)
			}
			b.Run(fmt.Sprintf("grid%d/nodes%d", side, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					PartitionPeers(net, nodes)
				}
			})
		}
	}
}

func TestClusterEquivalenceTCP(t *testing.T) {
	testClusterEquivalence(t, transport.NewTCP(), gridScenario(false), false, false)
}

func TestClusterEquivalenceReliableMem(t *testing.T) {
	testClusterEquivalence(t, transport.NewMem(), gridScenario(true), true, false)
}

func TestClusterReconnectChaosMem(t *testing.T) {
	testClusterEquivalence(t, transport.NewMem(), gridScenario(true), true, true)
}

// TestClusterReconnectChaosTCP is the transport acceptance test: TCP
// conns are killed repeatedly mid-run and the reconnect handshake's
// resume/replay must hand every subscription exactly the simulator's
// items.
func TestClusterReconnectChaosTCP(t *testing.T) {
	testClusterEquivalence(t, transport.NewTCP(), gridScenario(true), true, true)
}

// --- two OS processes over loopback TCP ---

// childSpec is the work order the parent passes to the child process.
type childSpec struct {
	// Addr is the parent's mesh listen address (the child dials it).
	Addr string
	// Out is where the child writes its childResult JSON.
	Out string
}

// childResult is the child node's delivery, rendered order-independently.
type childResult struct {
	Results   map[string]int
	Collected map[string][]string
}

const clusterChildEnv = "STREAMSHARE_CLUSTER_CHILD"

// TestClusterTwoProcessTCP is the multi-process acceptance test: the grid
// scenario runs across two OS processes — this test binary re-executed as
// node "n0" — connected over loopback TCP, with one forced disconnect
// mid-run. The union of both processes' deliveries must equal the
// simulator's, item for item.
func TestClusterTwoProcessTCP(t *testing.T) {
	if os.Getenv(clusterChildEnv) != "" {
		t.Skip("child process runs TestClusterChildProcess")
	}
	defer testutil.Watchdog(t, 3*time.Minute)()
	engRef, feedRef, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engRef.Simulate(feedRef, true)
	if err != nil {
		t.Fatal(err)
	}
	eng, feed, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}

	// The parent is "n1": it only accepts, so no port needs reserving —
	// the child learns the bound address through its spec. Every 5th frame
	// the parent writes breaks its conn: the reconnect handshake must resume
	// and replay with nothing lost.
	fuse := &fuseTransport{Transport: transport.NewTCP(), period: 5}
	c1, err := NewCluster(eng.Net, ClusterOptions{
		Node:      "n1",
		Nodes:     map[string]string{"n1": "127.0.0.1:0", "n0": ""},
		Transport: fuse,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	defer testutil.OnHang(func(w io.Writer) { c1.DumpState(w) })()

	out := filepath.Join(t.TempDir(), "child.json")
	spec, err := json.Marshal(childSpec{Addr: c1.Addr(), Out: out})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestClusterChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), clusterChildEnv+"="+string(spec))
	type childExit struct {
		out []byte
		err error
	}
	childDone := make(chan childExit, 1)
	go func() {
		o, err := cmd.CombinedOutput()
		childDone <- childExit{o, err}
	}()

	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, true, Options{Cluster: c1, Session: sess})
	res, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if exit := <-childDone; exit.err != nil {
		t.Fatalf("child process failed: %v\n%s", exit.err, exit.out)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("child wrote no results: %v", err)
	}
	var child childResult
	if err := json.Unmarshal(raw, &child); err != nil {
		t.Fatal(err)
	}

	// Union of both processes' deliveries vs the simulator.
	counts := map[string]int{}
	for id, n := range res.Results {
		counts[id] += n
	}
	for id, n := range child.Results {
		counts[id] += n
	}
	for id, n := range ref.Results {
		if counts[id] != n {
			t.Errorf("%s: delivered %d items across processes, simulator %d", id, counts[id], n)
		}
	}
	for id := range counts {
		if _, ok := ref.Results[id]; !ok {
			t.Errorf("%s: delivered but unknown to the simulator", id)
		}
	}
	for id, refItems := range ref.Collected {
		refXML := sortedXML(refItems)
		gotXML := append([]string{}, child.Collected[id]...)
		for _, e := range res.Collected[id] {
			gotXML = append(gotXML, string(xmlstream.AppendMarshal(nil, e)))
		}
		sort.Strings(gotXML)
		if len(gotXML) != len(refXML) {
			t.Errorf("%s: %d items across processes, reference %d", id, len(gotXML), len(refXML))
			continue
		}
		for i := range refXML {
			if gotXML[i] != refXML[i] {
				t.Errorf("%s: item %d differs from reference", id, i)
				break
			}
		}
	}
	recon := uint64(0)
	for _, st := range c1.Stats() {
		recon += st.Reconnects
	}
	if recon == 0 {
		t.Errorf("no reconnect recorded in %d writes with every %dth failing", fuse.writes.Load(), fuse.period)
	}
	t.Logf("%d reconnects over %d writes", recon, fuse.writes.Load())
}

// TestClusterChildProcess is the re-exec target of TestClusterTwoProcessTCP:
// it builds the same engine, joins the parent's mesh as node "n0" over
// TCP, runs, and writes its delivery to the spec'd output file. It skips
// unless the parent's env var is set.
func TestClusterChildProcess(t *testing.T) {
	raw := os.Getenv(clusterChildEnv)
	if raw == "" {
		t.Skip("not a cluster child process")
	}
	defer testutil.Watchdog(t, 2*time.Minute)()
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	eng, feed, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := NewCluster(eng.Net, ClusterOptions{
		Node:  "n0",
		Nodes: map[string]string{"n0": "127.0.0.1:0", "n1": spec.Addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	defer testutil.OnHang(func(w io.Writer) { c0.DumpState(w) })()
	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, true, Options{Cluster: c0, Session: sess})
	res, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	out := childResult{Results: res.Results, Collected: map[string][]string{}}
	for id, items := range res.Collected {
		out.Collected[id] = sortedXML(items)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spec.Out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("child: delivered", len(out.Results), "subscriptions")
}

// --- SIGKILL crash-restart over a durable mesh ---

const crashChildEnv = "STREAMSHARE_CRASH_CHILD"

// crashSpec is the work order for the crash-restart child: like childSpec
// plus the durable data directory both child lives share.
type crashSpec struct {
	Addr    string
	Out     string
	DataDir string
}

// crashResult is the restarted child's delivery plus how many journal
// records its link recovered.
type crashResult struct {
	Results   map[string]int
	Collected map[string][]string
	Recovered float64
}

// TestClusterCrashRestartTCP is the durability acceptance test: the grid
// scenario runs across two OS processes over loopback TCP with both mesh
// sides journaling (ClusterOptions.DataDir), the child is SIGKILLed
// mid-run and relaunched over the same data directory, and the union of
// the parent's and the restarted child's deliveries must still equal the
// never-failed simulator reference item for item. Recovery does all the
// work: the child reloads its link's sequence space and cursors from the
// journal, re-dispatches the journaled inbound frames its first life never
// finished, and the ordinary resume exchange has the parent replay exactly
// the frames the child never acked. The survivor injects no fault, so its
// session queues none while the child is down.
func TestClusterCrashRestartTCP(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("child process runs TestClusterCrashChildProcess")
	}
	defer testutil.Watchdog(t, 4*time.Minute)()
	engRef, feedRef, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engRef.Simulate(feedRef, true)
	if err != nil {
		t.Fatal(err)
	}
	eng, feed, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}

	c1, err := NewCluster(eng.Net, ClusterOptions{
		Node:        "n1",
		Nodes:       map[string]string{"n1": "127.0.0.1:0", "n0": ""},
		DataDir:     t.TempDir(),
		DurableSync: durable.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	defer testutil.OnHang(func(w io.Writer) { c1.DumpState(w) })()

	childDir := t.TempDir()
	out := filepath.Join(t.TempDir(), "child.json")
	spec, err := json.Marshal(crashSpec{Addr: c1.Addr(), Out: out, DataDir: childDir})
	if err != nil {
		t.Fatal(err)
	}
	launch := func() *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestClusterCrashChildProcess$", "-test.v")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+string(spec))
		return cmd
	}

	first := launch()
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill the first child with SIGKILL once real traffic flows, then
	// relaunch it over the same data directory 0.6 s later, while the
	// parent's run is still in flight.
	type childExit2 struct {
		out []byte
		err error
	}
	second := make(chan childExit2, 1)
	go func() {
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			frames := uint64(0)
			for _, st := range c1.Stats() {
				frames += st.FramesSent + st.FramesRecv
			}
			if frames > 10 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		first.Process.Kill() //nolint:errcheck // best effort; Wait reports the state
		first.Wait()         //nolint:errcheck // expected "signal: killed"
		time.Sleep(600 * time.Millisecond)
		o, err := launch().CombinedOutput()
		second <- childExit2{o, err}
	}()

	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, true, Options{Cluster: c1, Session: sess, BatchSize: 8})
	res, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if exit := <-second; exit.err != nil {
		t.Fatalf("restarted child failed: %v\n%s", exit.err, exit.out)
	}
	if ch := sess.TakeFaults(); len(ch) != 0 {
		t.Errorf("the survivor queued faults %v over the crash-restart", ch)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("restarted child wrote no results: %v", err)
	}
	var child crashResult
	if err := json.Unmarshal(raw, &child); err != nil {
		t.Fatal(err)
	}
	if child.Recovered == 0 {
		t.Error("restarted child recovered no journal records: its second life did not resume the first's link state")
	}

	counts := map[string]int{}
	for id, n := range res.Results {
		counts[id] += n
	}
	for id, n := range child.Results {
		counts[id] += n
	}
	for id, n := range ref.Results {
		if counts[id] != n {
			t.Errorf("%s: delivered %d items across crash-restart, simulator %d", id, counts[id], n)
		}
	}
	for id := range counts {
		if _, ok := ref.Results[id]; !ok {
			t.Errorf("%s: delivered but unknown to the simulator", id)
		}
	}
	for id, refItems := range ref.Collected {
		refXML := sortedXML(refItems)
		gotXML := append([]string{}, child.Collected[id]...)
		for _, e := range res.Collected[id] {
			gotXML = append(gotXML, string(xmlstream.AppendMarshal(nil, e)))
		}
		sort.Strings(gotXML)
		if len(gotXML) != len(refXML) {
			t.Errorf("%s: %d items across crash-restart, reference %d", id, len(gotXML), len(refXML))
			continue
		}
		for i := range refXML {
			if gotXML[i] != refXML[i] {
				t.Errorf("%s: item %d differs from reference", id, i)
				break
			}
		}
	}
	recon := uint64(0)
	for _, st := range c1.Stats() {
		recon += st.Reconnects
	}
	if recon == 0 {
		t.Error("no reconnect recorded after the SIGKILL")
	}
}

// TestClusterCrashChildProcess is the re-exec target of
// TestClusterCrashRestartTCP: node "n0" with a durable mesh over the
// spec'd data directory. Its first life is SIGKILLed mid-run; its second
// recovers the journal, re-joins, runs to completion and writes its
// delivery plus the durable.recover.records count.
func TestClusterCrashChildProcess(t *testing.T) {
	raw := os.Getenv(crashChildEnv)
	if raw == "" {
		t.Skip("not a crash child process")
	}
	defer testutil.Watchdog(t, 2*time.Minute)()
	var spec crashSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	eng, feed, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c0, err := NewCluster(eng.Net, ClusterOptions{
		Node:        "n0",
		Nodes:       map[string]string{"n0": "127.0.0.1:0", "n1": spec.Addr},
		DataDir:     spec.DataDir,
		DurableSync: durable.SyncAlways,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	defer testutil.OnHang(func(w io.Writer) { c0.DumpState(w) })()
	sess := NewSession(SessionOptions{})
	rt := NewWith(eng, true, Options{Cluster: c0, Session: sess, BatchSize: 8})
	res, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	out := crashResult{
		Results: res.Results, Collected: map[string][]string{},
		Recovered: reg.Counter("durable.recover.records").Value(),
	}
	for id, items := range res.Collected {
		out.Collected[id] = sortedXML(items)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spec.Out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("crash child: delivered", len(out.Results), "subscriptions, recovered", out.Recovered, "journal records")
}
