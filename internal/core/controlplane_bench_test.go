package core_test

import (
	"testing"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/scenario"
	"streamshare/internal/xmlstream"
)

// newEngineFunc is core.NewEngine or the test hook core.NewReferenceEngine.
type newEngineFunc func(*network.Network, core.Config) *core.Engine

// populateGrid registers the ScaleGrid sources and all queries on a fresh
// engine, bringing it to the steady state the benchmarks measure against:
// N peers carrying M live shared streams.
func populateGrid(b testing.TB, newEngine newEngineFunc) (*core.Engine, *scenario.Scenario) {
	b.Helper()
	s := scenario.ScaleGrid(6, 256, 200)
	eng := newEngine(s.Net, core.Config{})
	for _, src := range s.Sources {
		if _, err := eng.RegisterStream(src.Name, xmlstream.ParsePath("photons/photon"), src.At, src.Stats); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range s.Queries {
		if _, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing); err != nil {
			b.Fatal(err)
		}
	}
	return eng, s
}

// benchmarkControlPlane measures the steady-state subscription rate: with the
// ScaleGrid population live, each iteration plans and installs one more
// subscription against the full stream catalog, then removes it again. One
// full subscribe+unsubscribe pass over the query set before the timer starts
// brings the planner's caches to their steady state — during population,
// query j was never planned against streams installed after j, so without the
// pass the first measured cycles would still be paying one-time misses.
func benchmarkControlPlane(b *testing.B, newEngine newEngineFunc) {
	eng, s := populateGrid(b, newEngine)
	for _, q := range s.Queries {
		sub, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Unsubscribe(sub.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := s.Queries[i%len(s.Queries)]
		sub, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Unsubscribe(sub.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControlPlaneIndexed(b *testing.B) {
	benchmarkControlPlane(b, core.NewEngine)
}

func BenchmarkControlPlaneReference(b *testing.B) {
	benchmarkControlPlane(b, core.NewReferenceEngine)
}

// benchmarkControlPlaneColdStart measures the one-shot population cost: a
// fresh engine registering the whole ScaleGrid workload from nothing. Caches
// and index start empty every iteration, so this bounds how much of the
// steady-state win is amortization.
func benchmarkControlPlaneColdStart(b *testing.B, newEngine newEngineFunc) {
	s := scenario.ScaleGrid(6, 256, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := newEngine(s.Net, core.Config{})
		for _, src := range s.Sources {
			if _, err := eng.RegisterStream(src.Name, xmlstream.ParsePath("photons/photon"), src.At, src.Stats); err != nil {
				b.Fatal(err)
			}
		}
		for _, q := range s.Queries {
			if _, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkControlPlaneColdStartIndexed(b *testing.B) {
	benchmarkControlPlaneColdStart(b, core.NewEngine)
}

func BenchmarkControlPlaneColdStartReference(b *testing.B) {
	benchmarkControlPlaneColdStart(b, core.NewReferenceEngine)
}

// BenchmarkPlanInstantiate measures what a run pays to own its operator
// state on the churn plan (the 6×6 grid with 256 live queries): one
// Plan.Instantiate per op, reported per instantiated pipeline too.
func BenchmarkPlanInstantiate(b *testing.B) {
	eng, _ := populateGrid(b, core.NewEngine)
	p := eng.Plan()
	pipelines := float64(len(p.Streams) + len(p.Readers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instancesSink = p.Instantiate()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pipelines, "ns/pipeline")
	b.ReportMetric(testing.AllocsPerRun(10, func() { p.Instantiate() })/pipelines, "allocs/pipeline")
}

var instancesSink *core.Instances
