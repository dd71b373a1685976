package runtime

import (
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/photons"
	"streamshare/internal/scenario"
	"streamshare/internal/transport"
	"streamshare/internal/xmlstream"
)

// benchGrid builds a fresh ScaleGrid engine per iteration and runs it under
// opts, timing only the run.
// reliable builds the engine for session channels and attaches a fresh
// session per iteration.
func benchGrid(b *testing.B, opts Options, reliable bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := scenario.ScaleGrid(3, 16, 400)
		eng := core.NewEngine(s.Net, core.Config{Reliable: reliable})
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
		feed := map[string][]*xmlstream.Element{}
		for _, src := range s.Sources {
			feed[src.Name] = src.Items
		}
		if reliable {
			opts.Session = NewSession(SessionOptions{})
		}
		rt := NewWith(eng, false, opts)
		b.StartTimer()
		if _, err := rt.Run(feed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleGridBatched is the tuned data path (DefaultOptions).
func BenchmarkScaleGridBatched(b *testing.B) { benchGrid(b, DefaultOptions(), false) }

// BenchmarkScaleGridReliable is the tuned data path over sequenced acked
// session channels; the delta to BenchmarkScaleGridBatched prices the
// reliability layer (sequencing, replay copies, acks, heartbeats).
func BenchmarkScaleGridReliable(b *testing.B) { benchGrid(b, DefaultOptions(), true) }

// BenchmarkGridRun is the benchmark's grid-inproc loop without its harness:
// one in-process Run of the 4×4/32-query plan over 10 000 photons on a
// fresh engine per iteration. Profile the operators with
//
//	go test -run '^$' -bench GridRun -benchtime 60x -o /tmp/rt.test -cpuprofile /tmp/cpu.out ./internal/runtime
func BenchmarkGridRun(b *testing.B) {
	feed := map[string][]*xmlstream.Element{"photons": photons.NewGenerator(photons.DefaultConfig(), 1).Generate(10_000)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := NewWith(benchPlan(b), false, DefaultOptions())
		b.StartTimer()
		if _, err := rt.Run(feed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterOneItemRun prices a cluster run's fixed cost: two nodes
// over the in-process transport build a runtime each on the benchmark's
// 4×4, 32-query grid, push one item through and pass the drain and the
// termination barrier. The engines are standing, as a server's are.
func BenchmarkClusterOneItemRun(b *testing.B) {
	c0, c1 := clusterPair(b, transport.NewMem())
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	eng0, feed0, err := clusterBuild(4, 32, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	eng1, feed1, err := clusterBuild(4, 32, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPair(b, NewWith(eng0, false, Options{Cluster: c0}), NewWith(eng1, false, Options{Cluster: c1}), feed0, feed1)
	}
}
