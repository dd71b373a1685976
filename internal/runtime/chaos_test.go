package runtime

import (
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
	"streamshare/internal/scenario"
	"streamshare/internal/testutil"
	"streamshare/internal/xmlstream"
)

// chaosBuild registers scenario 2 on a fresh engine and splits every source
// stream in half around the churn point. Twin builds are byte-identical, so
// the simulator and the distributed runtime execute the same plans on
// separate engines, whose adaptation decisions must agree too.
func chaosBuild(t *testing.T, items int) (*core.Engine, *scenario.Scenario, map[string][]*xmlstream.Element, map[string][]*xmlstream.Element) {
	t.Helper()
	s := scenario.Scenario2(items)
	eng := core.NewEngine(s.Net, core.Config{Reliable: true})
	for _, src := range s.Sources {
		if _, err := eng.RegisterStream(src.Name, xmlstream.ParsePath("photons/photon"), src.At, src.Stats); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range s.Queries {
		if _, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	feedA := map[string][]*xmlstream.Element{}
	feedB := map[string][]*xmlstream.Element{}
	for _, src := range s.Sources {
		half := len(src.Items) / 2
		feedA[src.Name] = src.Items[:half]
		feedB[src.Name] = src.Items[half:]
	}
	return eng, s, feedA, feedB
}

func chaosCompare(t *testing.T, phase string, sim *core.SimResult, dist *Result) {
	t.Helper()
	for id, n := range sim.Results {
		if dist.Results[id] != n {
			t.Errorf("%s %s: simulator %d items, runtime %d", phase, id, n, dist.Results[id])
		}
	}
	for id, n := range dist.Results {
		if sim.Results[id] != n {
			t.Errorf("%s %s: runtime %d items, simulator %d", phase, id, n, sim.Results[id])
		}
	}
	if sb, db := sim.Metrics.TotalBytes(), dist.Metrics.TotalBytes(); math.Abs(sb-db) > 1e-6 {
		t.Errorf("%s traffic: simulator %.0f vs runtime %.0f", phase, sb, db)
	}
	if sw, dw := sim.Metrics.TotalWork(), dist.Metrics.TotalWork(); math.Abs(sw-dw) > 1e-6 {
		t.Errorf("%s work: simulator %.1f vs runtime %.1f", phase, sw, dw)
	}
	for l, b := range sim.Metrics.LinkBytes {
		if math.Abs(dist.Metrics.LinkBytes[l]-b) > 1e-6 {
			t.Errorf("%s link %s: %.0f vs %.0f", phase, l, b, dist.Metrics.LinkBytes[l])
		}
	}
}

// TestChaosScenario2 is the chaos acceptance test: scenario 2 under the
// scripted failure schedule. Both backends stream the first half, the same
// adaptation schedule repairs/rejects/migrates on both engines, and the
// second half must agree item-for-item and byte-for-byte on the repaired
// plans. A never-failed reference engine proves repairable failures lose no
// items on stateless subscriptions. Every subscription is accounted for:
// re-planned, explicitly rejected, or unsubscribed by the schedule.
func TestChaosScenario2(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const items = 300
	events, err := adapt.ParseSchedule(scenario.DefaultChurnSchedule)
	if err != nil {
		t.Fatal(err)
	}

	engSim, s, feedA, feedB := chaosBuild(t, items)
	engRT, _, feedART, feedBRT := chaosBuild(t, items)
	// A hang under fault injection dumps the runtime engine's flight
	// recorder (kills, severs, drops, repairs) alongside the stacks.
	fr := engRT.Obs().Flight
	defer testutil.OnHang(func(w io.Writer) { fr.Dump(w) })()
	engRef, _, feedARef, feedBRef := chaosBuild(t, items)
	total := len(s.Queries)

	// Phase A: before the churn the backends agree (baseline sanity).
	simA, err := engSim.Simulate(feedA, false)
	if err != nil {
		t.Fatal(err)
	}
	distA, err := New(engRT, false).Run(feedART)
	if err != nil {
		t.Fatal(err)
	}
	chaosCompare(t, "phase A", simA, distA)
	if _, err := engRef.Simulate(feedARef, false); err != nil {
		t.Fatal(err)
	}

	// Churn: identical schedules on both engines must produce identical
	// adaptation decisions.
	repSim, err := adapt.NewManager(engSim).ApplyAll(events)
	if err != nil {
		t.Fatal(err)
	}
	repRT, err := adapt.NewManager(engRT).ApplyAll(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(repSim) != len(repRT) {
		t.Fatalf("report counts differ: %d vs %d", len(repSim), len(repRT))
	}
	repaired, rejected := 0, 0
	for i := range repSim {
		if repSim[i].Sub != repRT[i].Sub || repSim[i].Outcome != repRT[i].Outcome {
			t.Errorf("report %d differs: %v vs %v", i, repSim[i], repRT[i])
		}
		switch repSim[i].Outcome {
		case adapt.Repaired:
			repaired++
		case adapt.Rejected:
			rejected++
		}
	}
	if repaired == 0 || rejected == 0 {
		t.Fatalf("schedule should exercise both repair and rejection: %d repaired, %d rejected", repaired, rejected)
	}
	if len(engSim.Affected()) != 0 || len(engRT.Affected()) != 0 {
		t.Fatal("subscriptions left stranded after the schedule")
	}
	// Accounting: installed + rejected + the one scheduled unsubscribe.
	if got := len(engSim.Subscriptions()) + rejected + 1; got != total {
		t.Errorf("subscription accounting: %d ≠ %d registered", got, total)
	}

	// Phase B: the backends agree on the post-repair plans.
	simB, err := engSim.Simulate(feedB, false)
	if err != nil {
		t.Fatal(err)
	}
	distB, err := New(engRT, false).Run(feedBRT)
	if err != nil {
		t.Fatal(err)
	}
	chaosCompare(t, "phase B", simB, distB)

	// No item loss: every surviving subscription's post-repair delivery
	// equals the never-failed reference — windowed ones included: every run
	// starts its windows clean, and phase A's end-of-stream flush dropped the
	// windows spanning the churn point on both engines alike.
	refB, err := engRef.Simulate(feedBRef, false)
	if err != nil {
		t.Fatal(err)
	}
	stateless, windowedChecked := 0, 0
	for _, sub := range engSim.Subscriptions() {
		n, err := strconv.Atoi(strings.TrimPrefix(sub.ID, "q"))
		if err != nil || n < 1 || n > total {
			t.Fatalf("unexpected subscription id %q", sub.ID)
		}
		windowed := strings.Contains(s.Queries[n-1].Src, "|")
		if windowed {
			windowedChecked++
		} else {
			stateless++
		}
		if simB.Results[sub.ID] != refB.Results[sub.ID] {
			t.Errorf("%s (windowed=%v) lost items across repair: %d delivered, reference %d",
				sub.ID, windowed, simB.Results[sub.ID], refB.Results[sub.ID])
		}
	}
	if stateless == 0 {
		t.Error("no stateless subscription to check item loss on")
	}
	if windowedChecked == 0 {
		t.Error("no windowed subscription to check state survival on")
	}
}
