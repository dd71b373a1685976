package runtime

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"streamshare/internal/testutil"
	"streamshare/internal/xmlstream"
)

// Three-node, two-process acceptance: a cluster whose node n0 is a child
// process — so two of its three links cross a process boundary over loopback
// TCP and one stays inside the parent — must deliver item-for-item what the
// simulator delivers. (The names date from when the three links could
// negotiate different item codecs.)

// mixedSpec is the work order for the child process (cluster node n0).
type mixedSpec struct {
	// N1, N2 are the parent's two mesh listen addresses (n0 dials both).
	N1, N2 string
	// Out is where the child writes its childResult JSON.
	Out string
}

const mixedChildEnv = "STREAMSHARE_MIXED_CHILD"

func TestClusterMixedCodecTwoProcessTCP(t *testing.T) {
	if os.Getenv(mixedChildEnv) != "" {
		t.Skip("child process runs TestClusterMixedCodecChildProcess")
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
	eng1, feed1, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	eng2, feed2, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}

	nodes := map[string]string{"n0": "", "n1": "127.0.0.1:0", "n2": "127.0.0.1:0"}
	c2, err := NewCluster(eng2.Net, ClusterOptions{Node: "n2", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	n1nodes := map[string]string{"n0": "", "n1": "127.0.0.1:0", "n2": c2.Addr()}
	c1, err := NewCluster(eng1.Net, ClusterOptions{Node: "n1", Nodes: n1nodes, Metrics: eng1.Obs().Metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	defer testutil.OnHang(func(w io.Writer) { c1.DumpState(w); c2.DumpState(w) })()

	out := filepath.Join(t.TempDir(), "child.json")
	spec, err := json.Marshal(mixedSpec{N1: c1.Addr(), N2: c2.Addr(), Out: out})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestClusterMixedCodecChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), mixedChildEnv+"="+string(spec))
	type childExit struct {
		out []byte
		err error
	}
	childDone := make(chan childExit, 1)
	go func() {
		o, err := cmd.CombinedOutput()
		childDone <- childExit{o, err}
	}()

	// Waiting mirrors sgd.
	if err := c1.WaitConnected(time.Minute); err != nil {
		t.Fatal(err)
	}
	sess1 := NewSession(SessionOptions{})
	sess2 := NewSession(SessionOptions{})
	rt1 := NewWith(eng1, true, Options{Cluster: c1, Session: sess1})
	rt2 := NewWith(eng2, true, Options{Cluster: c2, Session: sess2})
	res1, res2 := runPair(t, rt1, rt2, feed1, feed2)
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

	// The link across the process boundary carried real traffic through
	// the codec, and the mesh fed the wire metrics to its registry.
	for _, st := range c1.Stats() {
		if st.Remote == "n0" && st.EncodedItems == 0 && st.DecodedItems == 0 {
			t.Error("n0-n1 link encoded and decoded no items")
		}
	}
	snap := eng1.Obs().Metrics.Snapshot()
	if snap.Counters["wire.encode.items"]+snap.Counters["wire.decode.items"] == 0 {
		t.Error("the mesh recorded no codec activity in its registry")
	}

	// Union of all three nodes' deliveries vs the simulator, item for item.
	counts := map[string]int{}
	for _, part := range []map[string]int{res1.Results, res2.Results, child.Results} {
		for id, n := range part {
			counts[id] += n
		}
	}
	for id, n := range ref.Results {
		if counts[id] != n {
			t.Errorf("%s: delivered %d items across processes, simulator %d", id, counts[id], n)
		}
	}
	for id, refItems := range ref.Collected {
		refXML := sortedXML(refItems)
		gotXML := append([]string{}, child.Collected[id]...)
		for _, res := range []*Result{res1, res2} {
			for _, e := range res.Collected[id] {
				gotXML = append(gotXML, string(xmlstream.AppendMarshal(nil, e)))
			}
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
}

// TestClusterMixedCodecChildProcess is the re-exec target of
// TestClusterMixedCodecTwoProcessTCP: node n0, dialing both parent nodes
// over loopback TCP. It skips unless the parent's env var is set.
func TestClusterMixedCodecChildProcess(t *testing.T) {
	raw := os.Getenv(mixedChildEnv)
	if raw == "" {
		t.Skip("not a child process")
	}
	defer testutil.Watchdog(t, 2*time.Minute)()
	var spec mixedSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	eng, feed, err := clusterBuild(gridN, gridQueries, gridItems, true)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := NewCluster(eng.Net, ClusterOptions{
		Node:  "n0",
		Nodes: map[string]string{"n0": "127.0.0.1:0", "n1": spec.N1, "n2": spec.N2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	defer testutil.OnHang(func(w io.Writer) { c0.DumpState(w) })()
	if err := c0.WaitConnected(time.Minute); err != nil {
		t.Fatal(err)
	}
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
}
