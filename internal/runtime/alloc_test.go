package runtime

import (
	"fmt"
	goruntime "runtime"
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

// benchPlan builds the benchmark's grid-inproc plan on a fresh engine: the
// 4×4 grid, the photon stream at SP0, and the 32 template queries of
// generator seed 43 at targets SP((i·13) mod 16).
func benchPlan(t testing.TB) *core.Engine {
	t.Helper()
	eng, err := benchPlanWith(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// benchPlanWith is benchPlan on an engine configured by cfg.
func benchPlanWith(cfg core.Config) (*core.Engine, error) {
	eng := core.NewEngine(scenario.ScaleGrid(4, 0, 1).Net, cfg)
	_, st := photons.Stream("photons", photons.DefaultConfig(), 42, 2000)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		return nil, err
	}
	for i, src := range workload.NewGenerator("photons", workload.DefaultSets(), 43).Generate(32) {
		if _, err := eng.Subscribe(src, network.PeerID(fmt.Sprintf("SP%d", (i*13)%16)), core.StreamSharing); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// TestAllocBudgetRun pins what one in-process Run allocates per source item
// on the benchmark's plan — the ledger's runtime.allocs_per_item and
// runtime.alloc_bytes_per_item, measured the way the ledger measures them —
// so the per-item tax the batch-shaped operators removed (a result slice per
// item per stage, a charge closure and an output slice per batch) cannot
// creep back between benchmark runs, nor can result trees into a run that
// keeps none. Each budget is the measured value plus a fifth.
func TestAllocBudgetRun(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	items := photons.NewGenerator(photons.DefaultConfig(), 1).Generate(10_000)
	feed := map[string][]*xmlstream.Element{"photons": items}
	var perItem, bytesPerItem []float64
	for rep := 0; rep < 4; rep++ {
		rt := NewWith(benchPlan(t), false, DefaultOptions())
		goruntime.GC()
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		if _, err := rt.Run(feed); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&m1)
		if rep > 0 { // the first Run warms the pools
			perItem = append(perItem, float64(m1.Mallocs-m0.Mallocs)/float64(len(items)))
			bytesPerItem = append(bytesPerItem, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(items)))
		}
	}
	sort.Float64s(perItem)
	sort.Float64s(bytesPerItem)
	got, bytes := perItem[len(perItem)/2], bytesPerItem[len(bytesPerItem)/2]
	t.Logf("runtime.Run on the 4×4/32-query plan: %.1f allocations and %.0f bytes per source item (runs: %.1f, %.0f)", got, bytes, perItem, bytesPerItem)
	const budget = 5.4 // measured 4.5 (5.6 building results nobody keeps, 32.4 with operators building node by node, 45.9 with per-item operators)
	if got > budget {
		t.Errorf("runtime.Run allocates %.1f objects per source item, budget %.1f", got, budget)
	}
	const bytesBudget = 1070 // measured 890 (1 560 building results nobody keeps)
	if bytes > bytesBudget {
		t.Errorf("runtime.Run allocates %.0f bytes per source item, budget %d", bytes, bytesBudget)
	}
}
