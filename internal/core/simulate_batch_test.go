package core_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sort"
	"testing"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/scenario"
	"streamshare/internal/testutil"
	"streamshare/internal/workload"
	"streamshare/internal/xmlstream"
)

// subscribeAll registers queries on eng at the targets at(i).
func subscribeAll(t testing.TB, eng *core.Engine, queries []string, at func(i int) network.PeerID) {
	t.Helper()
	for i, q := range queries {
		if _, err := eng.Subscribe(q, at(i), core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
}

// registerPhotons registers the photon stream at peer at on eng.
func registerPhotons(t testing.TB, eng *core.Engine, at network.PeerID) {
	t.Helper()
	_, st := photons.Stream("photons", photons.DefaultConfig(), 42, 2000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), at, st); err != nil {
		t.Fatal(err)
	}
}

// benchPlanEngine builds the benchmark's grid-inproc plan: the 4×4 grid, the
// photon stream at SP0, and the 32 template queries of generator seed 43 at
// targets SP((i·13) mod 16).
func benchPlanEngine(t testing.TB) *core.Engine {
	eng := core.NewEngine(scenario.ScaleGrid(4, 0, 1).Net, core.Config{})
	registerPhotons(t, eng, "SP0")
	subscribeAll(t, eng, workload.NewGenerator("photons", workload.DefaultSets(), 43).Generate(32),
		func(i int) network.PeerID { return network.PeerID(fmt.Sprintf("SP%d", (i*13)%16)) })
	return eng
}

// fuzzyPlanEngine builds a 3×3 grid whose photon source sits behind a sort
// buffer (§2's fuzzy order repair), under template queries and the window
// shapes that keep stream positions between items: a count window and
// window contents.
func fuzzyPlanEngine(t testing.TB) *core.Engine {
	eng := core.NewEngine(scenario.ScaleGrid(3, 0, 1).Net, core.Config{})
	registerPhotons(t, eng, "SP0")
	if err := eng.RepairFuzzyOrder("photons", xmlstream.ParsePath("det_time"), 8); err != nil {
		t.Fatal(err)
	}
	qs := append(workload.NewGenerator("photons", workload.DefaultSets(), 7).Generate(12),
		`<photons>{ for $w in stream("photons")/photons/photon |count 20 step 10| let $c := count($w/en) return <n>{ $c }</n> }</photons>`,
		`<photons>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 10| return <batch>{ $w/en }</batch> }</photons>`)
	subscribeAll(t, eng, qs, func(i int) network.PeerID { return network.PeerID(fmt.Sprintf("SP%d", (i*5)%9)) })
	return eng
}

// widenedPlanEngine builds a five-peer chain with widening on, where two
// overlapping sky boxes at the far end share one widened stream.
func widenedPlanEngine(t testing.TB) *core.Engine {
	net := network.New()
	ids := []network.PeerID{"SRC", "N1", "N2", "N3", "END"}
	for i, id := range ids {
		net.AddPeer(network.Peer{ID: id, Super: true, Capacity: 50000, PerfIndex: 1})
		if i > 0 {
			net.Connect(ids[i-1], id, 12_500_000)
		}
	}
	eng := core.NewEngine(net, core.Config{Widening: true})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 5, 2500)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SRC", st); err != nil {
		t.Fatal(err)
	}
	subscribeAll(t, eng, []string{
		`<photons>{ for $p in stream("photons")/photons/photon where $p/coord/cel/ra >= 110.0 and $p/coord/cel/ra <= 130.0 return <a>{ $p/coord/cel/ra }{ $p/en }</a> }</photons>`,
		`<photons>{ for $p in stream("photons")/photons/photon where $p/coord/cel/ra >= 125.0 and $p/coord/cel/ra <= 145.0 return <b>{ $p/coord/cel/ra }{ $p/en }</b> }</photons>`,
		`<photons>{ for $p in stream("photons")/photons/photon where $p/coord/cel/ra >= 128.0 and $p/coord/cel/ra <= 140.0 return <c>{ $p/en }</c> }</photons>`,
	}, func(i int) network.PeerID { return ids[len(ids)-1-i/2] })
	if eng.Obs().Metrics.Snapshot().Counters["core.widen.installed"] == 0 {
		t.Fatal("no stream was widened")
	}
	return eng
}

// churnPlanEngine builds the subscribe-churn workload's plan: the 6×6 grid
// with 256 live sharing queries.
func churnPlanEngine(t testing.TB) *core.Engine {
	eng, _ := populateGrid(t, core.NewEngine)
	return eng
}

// photonFeed generates n photons; fuzzy swaps neighbours within a few places.
func photonFeed(n int, fuzzy bool) []*xmlstream.Element {
	items := photons.NewGenerator(photons.DefaultConfig(), 11).Generate(n)
	if fuzzy {
		r := rand.New(rand.NewSource(1))
		for i := 0; i+4 < len(items); i += 5 {
			j := i + 1 + r.Intn(3)
			items[i], items[j] = items[j], items[i]
		}
	}
	return items
}

// TestSimulateBatchEquivalence holds the batched Simulate to the per-item
// walk it replaced, on the benchmark's plan, the churn plan, a source behind
// a sort buffer and a widened plan, for feeds around the batch size: equal
// results, items in the same order, exactly the same bytes per link, work
// per peer to rounding (the sums are grouped differently), and the same
// sampled spans. Each side runs on an engine of its own, so the span
// samples it logs are its own.
func TestSimulateBatchEquivalence(t *testing.T) {
	for _, pl := range []struct {
		name  string
		build func(testing.TB) *core.Engine
		fuzzy bool
	}{
		{"bench-4x4", benchPlanEngine, false},
		{"churn-6x6", churnPlanEngine, false},
		{"fuzzy-order", fuzzyPlanEngine, true},
		{"widened", widenedPlanEngine, false},
	} {
		t.Run(pl.name, func(t *testing.T) {
			batched, itemwise := pl.build(t), pl.build(t)
			for _, eng := range []*core.Engine{batched, itemwise} {
				eng.Obs().Latency.SetRate(7) // several spans per batch
			}
			all := photonFeed(1000, pl.fuzzy)
			// Ascending sizes: each engine's sample log then holds exactly
			// the current feed's samples.
			for _, n := range []int{0, 1, 63, 64, 65, 1000} {
				feed := map[string][]*xmlstream.Element{"photons": all[:n]}
				got, err := batched.Simulate(feed, true)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.SimulateItemwise(itemwise, feed, true)
				if err != nil {
					t.Fatal(err)
				}
				sameSimResult(t, fmt.Sprintf("%d items", n), got, want)
				if g, w := batched.Obs().Latency.SampledKeys(), itemwise.Obs().Latency.SampledKeys(); !slices.Equal(g, w) {
					t.Fatalf("%d items: sampled keys %v, per-item walk %v", n, g, w)
				}
			}
		})
	}
}

// sameSimResult fails t unless got matches the per-item walk's want.
func sameSimResult(t *testing.T, label string, got, want *core.SimResult) {
	t.Helper()
	if got.Duration != want.Duration {
		t.Fatalf("%s: duration %v, per-item walk %v", label, got.Duration, want.Duration)
	}
	if !maps.Equal(got.Results, want.Results) {
		t.Fatalf("%s: results %v, per-item walk %v", label, got.Results, want.Results)
	}
	if len(got.Collected) != len(want.Collected) {
		t.Fatalf("%s: %d subscriptions collected, per-item walk %d", label, len(got.Collected), len(want.Collected))
	}
	for sub, w := range want.Collected {
		g := got.Collected[sub]
		if len(g) != len(w) {
			t.Fatalf("%s %s: %d items, per-item walk %d", label, sub, len(g), len(w))
		}
		for i := range w {
			if !g[i].Equal(w[i]) {
				t.Fatalf("%s %s item %d: %s, per-item walk %s", label, sub, i, xmlstream.Marshal(g[i]), xmlstream.Marshal(w[i]))
			}
		}
	}
	if !maps.Equal(got.Metrics.LinkBytes, want.Metrics.LinkBytes) {
		t.Fatalf("%s: link bytes %v, per-item walk %v", label, got.Metrics.LinkBytes, want.Metrics.LinkBytes)
	}
	if len(got.Metrics.PeerWork) != len(want.Metrics.PeerWork) {
		t.Fatalf("%s: work at %d peers, per-item walk %d", label, len(got.Metrics.PeerWork), len(want.Metrics.PeerWork))
	}
	for p, w := range want.Metrics.PeerWork {
		g, ok := got.Metrics.PeerWork[p]
		if !ok || math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w)) {
			t.Fatalf("%s: work at %s %v, per-item walk %v", label, p, g, w)
		}
	}
}

// BenchmarkSimulate measures the simulator on the churn plan (the 6×6 grid
// with 256 live queries) in 100-item calls, the subscribe-churn workload's
// chunks: consecutive stretches of one photon stream, ns and allocations
// per source item.
func BenchmarkSimulate(b *testing.B) {
	eng := churnPlanEngine(b)
	const chunk = 100
	items := photons.NewGenerator(photons.DefaultConfig(), 1).Generate(100 * chunk)
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i % (len(items) / chunk) * chunk
		if _, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items[lo : lo+chunk]}, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/item")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*chunk), "allocs/item")
}

// TestAllocBudgetSimulate pins what Simulate allocates per source item on
// the benchmark's 4×4/32-query plan, in objects and in bytes, so the per-item
// walk's allocations (a one-item batch per stream and reader, a route's
// links per item) cannot creep back, nor can result trees into a run that
// keeps none. Each budget is the measured value plus a fifth.
func TestAllocBudgetSimulate(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	eng := benchPlanEngine(t)
	feed := map[string][]*xmlstream.Element{"photons": photonFeed(10_000, false)}
	var perItem, bytesPerItem []float64
	for rep := 0; rep < 4; rep++ {
		goruntime.GC()
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		if _, err := eng.Simulate(feed, false); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&m1)
		if rep > 0 { // the first call warms the pools
			perItem = append(perItem, float64(m1.Mallocs-m0.Mallocs)/10_000)
			bytesPerItem = append(bytesPerItem, float64(m1.TotalAlloc-m0.TotalAlloc)/10_000)
		}
	}
	sort.Float64s(perItem)
	sort.Float64s(bytesPerItem)
	got, bytes := perItem[len(perItem)/2], bytesPerItem[len(bytesPerItem)/2]
	t.Logf("Simulate on the 4×4/32-query plan: %.1f allocations and %.0f bytes per source item (runs: %.1f, %.0f)", got, bytes, perItem, bytesPerItem)
	const budget = 4.4 // measured 3.7 (4.9 building results nobody keeps, 31.9 with operators building node by node, 66.8 with the per-item walk)
	if got > budget {
		t.Errorf("Simulate allocates %.1f objects per source item, budget %.1f", got, budget)
	}
	const bytesBudget = 900 // measured 750 (1 400 building results nobody keeps)
	if bytes > bytesBudget {
		t.Errorf("Simulate allocates %.0f bytes per source item, budget %d", bytes, bytesBudget)
	}
}
