package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/obs"
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

// clusterPair builds two connected clusters ("n0" dials "n1") over the
// given transport and registers their transport state with the watchdog.
func clusterPair(t testing.TB, tr transport.Transport) (c0, c1 *Cluster) {
	t.Helper()
	c1, err := NewCluster(ClusterOptions{
		Node: "n1", Nodes: map[string]string{"n1": clusterListen(tr), "n0": ""}, Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, err = NewCluster(ClusterOptions{
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
	c0, c1 := clusterPair(t, tr)
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	opts0, opts1 := Options{Cluster: c0}, Options{Cluster: c1}
	if reliable {
		opts0.Session = NewSession(SessionOptions{DisableHeartbeat: true})
		opts1.Session = NewSession(SessionOptions{DisableHeartbeat: true})
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
		// The fuse breaks the run mid-stream for certain; on top of it, keep
		// killing conns from outside while the run streams, as often as the
		// clock allows. Every kill forces a reconnect-and-replay.
		go func() {
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

// TestClusterEquivalenceMem runs the grid, and then a repaired fuzzy-order
// source on a peer the accepting node owns with its consumer on the dialing
// node: the sort buffer runs in the source's process, and the other one
// receives sorted items.
func TestClusterEquivalenceMem(t *testing.T) {
	testClusterEquivalence(t, transport.NewMem(), gridScenario(false), false, false)

	own := PartitionPeers(testNet().Peers(), []string{"n0", "n1"})
	if own["SP5"] != "n1" || own["SP0"] != "n0" {
		t.Fatal("partition changed: the source must be remote to its consumer")
	}
	testClusterEquivalence(t, transport.NewMem(), func() (*core.Engine, map[string][]*xmlstream.Element, error) {
		eng, feed := fuzzyBuild(t, "SP5", "SP0")
		return eng, feed, nil
	}, false, false)
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

// TestClusterHeartbeatGossip runs a healthy reliable cluster with the
// failure detector on: peers owned by the remote node beat through
// heartbeat gossip frames, so a healthy distributed run must finish with
// zero suspicions on both sessions — and still match the simulator. A run
// this small ends before the first monitor tick, so the source node holds
// its run open after the first batch until each node has accepted the
// other's gossip and then ticked again: a tick that beat the remote's
// targets through remoteBeats with that gossip in hand.
func TestClusterHeartbeatGossip(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	engRef, feedRef, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engRef.Simulate(feedRef, true)
	if err != nil {
		t.Fatal(err)
	}
	eng0, feed0, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	eng1, feed1, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := clusterPair(t, transport.NewMem())
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sess0, sess1 := NewSession(SessionOptions{}), NewSession(SessionOptions{})
	rt0 := NewWith(eng0, true, Options{Cluster: c0, Session: sess0})
	rt1 := NewWith(eng1, true, Options{Cluster: c1, Session: sess1})
	arrived := func(c *Cluster, from string) time.Time {
		c.gmu.Lock()
		defer c.gmu.Unlock()
		return c.gossip[from].at
	}
	var once sync.Once
	held := false
	hold := func(*core.PlanStream, uint64) {
		once.Do(func() {
			held = true
			for arrived(c0, "n1").IsZero() || arrived(c1, "n0").IsZero() {
				time.Sleep(time.Millisecond)
			}
			// From here on both tables hold the other node's gossip; a frame
			// sent later left a tick that found it there.
			since := time.Now()
			for !arrived(c0, "n1").After(since) || !arrived(c1, "n0").After(since) {
				time.Sleep(time.Millisecond)
			}
		})
	}
	rt0.afterBatch, rt1.afterBatch = hold, hold
	res0, res1 := runPair(t, rt0, rt1, feed0, feed1)
	if !held {
		t.Fatal("no source batch held the run open")
	}
	compareCollected(t, ref, mergeResults(res0, res1))
	for i, sess := range []*Session{sess0, sess1} {
		if sus, _, _ := sess.HealthStats(); sus != 0 {
			t.Errorf("node %d: healthy cluster run raised %d suspicions", i, sus)
		}
		if n := len(sess.TakeDetected()); n != 0 {
			t.Errorf("node %d: healthy cluster run detected %d changes", i, n)
		}
	}
	// Each node's latest gossip names exactly the peers it owns, and the other
	// node beats exactly the targets that gossip vouches for.
	for _, x := range []struct {
		c      *Cluster
		rt     *Runtime
		remote string
	}{{c0, rt0, "n1"}, {c1, rt1, "n0"}} {
		x.c.gmu.Lock()
		e := x.c.gossip[x.remote]
		x.c.gmu.Unlock()
		var owned []string
		for _, id := range x.rt.peerIDs {
			if x.rt.owners[id] == x.remote {
				owned = append(owned, string(id))
			}
		}
		if !slices.Equal(e.f.Peers, owned) {
			t.Errorf("%s gossips peers %v to %s, owns %v", x.remote, e.f.Peers, x.c.node, owned)
		}
		if beats := x.c.remoteBeats(x.rt, e.at, time.Second); len(beats) != len(e.f.Peers)+len(e.f.Links)/2 {
			t.Errorf("%s beats %d targets for %s, its gossip vouches for %d peers and %d links",
				x.c.node, len(beats), x.remote, len(e.f.Peers), len(e.f.Links)/2)
		}
	}
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
	c1, err := NewCluster(ClusterOptions{
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

	sess := NewSession(SessionOptions{DisableHeartbeat: true})
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
	c0, err := NewCluster(ClusterOptions{
		Node:  "n0",
		Nodes: map[string]string{"n0": "127.0.0.1:0", "n1": spec.Addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	defer testutil.OnHang(func(w io.Writer) { c0.DumpState(w) })()
	sess := NewSession(SessionOptions{DisableHeartbeat: true})
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
// the frames the child never acked.
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

	c1, err := NewCluster(ClusterOptions{
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
	// relaunch it over the same data directory while the parent's run is
	// still in flight.
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
		o, err := launch().CombinedOutput()
		second <- childExit2{o, err}
	}()

	sess := NewSession(SessionOptions{DisableHeartbeat: true})
	rt := NewWith(eng, true, Options{Cluster: c1, Session: sess, BatchSize: 8})
	res, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if exit := <-second; exit.err != nil {
		t.Fatalf("restarted child failed: %v\n%s", exit.err, exit.out)
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
	c0, err := NewCluster(ClusterOptions{
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
	sess := NewSession(SessionOptions{DisableHeartbeat: true})
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
