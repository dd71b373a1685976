package runtime

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/testutil"
	"streamshare/internal/xmlstream"
)

// TestSimulateAndRunConcurrently runs the simulator and the runtime on one
// engine at the same time. Each reads the engine's plan value and drives
// operator instances of its own, so under -race they share nothing mutable,
// and each delivers exactly what a twin engine's simulation does.
func TestSimulateAndRunConcurrently(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	feed := map[string][]*xmlstream.Element{"photons": photons.NewGenerator(photons.DefaultConfig(), 1).Generate(1000)}
	ref, err := benchPlan(t).Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := benchPlan(t)
	var sim *core.SimResult
	var run *Result
	var simErr, runErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sim, simErr = eng.Simulate(feed, true) }()
	go func() { defer wg.Done(); run, runErr = New(eng, true).Run(feed) }()
	wg.Wait()
	if simErr != nil || runErr != nil {
		t.Fatal(simErr, runErr)
	}
	compareInOrder(t, "run", ref, run)
	for _, sub := range eng.Subscriptions() {
		a, b := ref.Collected[sub.ID], sim.Collected[sub.ID]
		if len(a) != len(b) {
			t.Fatalf("simulate %s: %d items, twin %d", sub.ID, len(b), len(a))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("simulate %s item %d differs from the twin's", sub.ID, i)
			}
		}
	}
}

// TestSelectionGroupsRun runs the benchmark's plan, whose derived streams
// form selection groups at four (stream, peer) pairs — one at the source,
// three under one stream at three peers whose lanes run concurrently — on
// several workers per peer and small batches, and holds it item for item
// to the simulator. Each group's value table is read by one lane at a time;
// under -race a table shared across lanes would show.
func TestSelectionGroupsRun(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	eng := benchPlan(t)
	groups := 0
	for _, s := range eng.Plan().Streams {
		at := map[network.PeerID]int{}
		for _, c := range s.Taps {
			if len(c.Residual.Ops) > 0 && c.Residual.Ops[0].Name() == "select" {
				if at[c.Tap]++; at[c.Tap] == 2 {
					groups++
				}
			}
		}
	}
	if groups < 2 {
		t.Fatalf("the plan has %d selection groups, want at least 2", groups)
	}
	feed := map[string][]*xmlstream.Element{"photons": photons.NewGenerator(photons.DefaultConfig(), 3).Generate(2000)}
	ref, err := eng.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewWith(eng, true, Options{BatchSize: 7, Workers: 4}).Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	compareInOrder(t, "grouped selections", ref, run)
}

// Overlapping, mutually non-contained sky boxes on a five-peer line: with
// Config.Widening the second one widens the first one's stream.
const (
	boxAQ = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 110.0 and $p/coord/cel/ra <= 130.0
  return <a> { $p/coord/cel/ra } { $p/en } </a> }
</photons>`
	boxBQ = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 125.0 and $p/coord/cel/ra <= 145.0
  return <b> { $p/coord/cel/ra } { $p/en } </b> }
</photons>`
)

// TestSubscribeDuringRun mutates the catalog while a Run executes:
// subscriptions come and go, and one widens the stream another reads,
// rewiring its tap, route and operators in place. A run reads only the plan
// value it started from, so under -race nothing it touches changes under it,
// and it delivers what Simulate delivers from that plan — Simulate called on
// the same engine just before, which, since no run leaves state behind, is
// also the run's oracle.
func TestSubscribeDuringRun(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	n := network.New()
	ids := []network.PeerID{"SRC", "N1", "N2", "N3", "END"}
	for i, id := range ids {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 50000, PerfIndex: 1})
		if i > 0 {
			n.Connect(ids[i-1], id, 12_500_000)
		}
	}
	eng := core.NewEngine(n, core.Config{Widening: true})
	items, st := photons.Stream("photons", photons.DefaultConfig(), 5, 3000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SRC", st); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{boxAQ, velaQ, aggQ} {
		if _, err := eng.Subscribe(q, "END", core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	feed := map[string][]*xmlstream.Element{"photons": items}
	ref, err := eng.Simulate(feed, true)
	if err != nil {
		t.Fatal(err)
	}

	rt := New(eng, true)
	var churnErr error
	churned := false
	rt.afterBatch = func(*core.PlanStream, uint64) {
		if churned {
			return
		}
		// After the first source batch, on the source's goroutine, while the
		// peers' workers process the batch already sent.
		churned = true
		wide, err := eng.Subscribe(boxBQ, "END", core.StreamSharing)
		if err == nil && !strings.HasPrefix(wide.Inputs[0].Feed.Parent.ID, "w") {
			err = errors.New("the second box did not widen the first one's stream")
		}
		if err == nil {
			err = eng.Unsubscribe("q2")
		}
		if err == nil {
			_, err = eng.Subscribe(rxjQ, "N2", core.StreamSharing)
		}
		churnErr = err
	}
	run, err := rt.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if !churned || churnErr != nil {
		t.Fatalf("churn during the run: ran %v, %v", churned, churnErr)
	}
	compareInOrder(t, "run during churn", ref, run)
}
