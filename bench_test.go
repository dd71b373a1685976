// Benchmarks regenerating the paper's evaluation (§4): one benchmark per
// figure/table plus ablations of the design choices DESIGN.md calls out.
// Each iteration runs the full scenario (registration + simulated stream
// delivery); the reported custom metrics carry the figures' quantities so
// `go test -bench . -benchmem` prints the same series the paper plots.
package streamshare_test

import (
	"fmt"
	"testing"

	"streamshare/internal/core"
	"streamshare/internal/cost"
	"streamshare/internal/scenario"
)

const benchItems = 1200

var benchStrategies = []core.Strategy{core.DataShipping, core.QueryShipping, core.StreamSharing}

// BenchmarkFig6CPULoad reproduces Figure 6 (left): average CPU load per
// super-peer in scenario 1, per strategy. Reported metrics: the maximum and
// total CPU percentages per strategy.
func BenchmarkFig6CPULoad(b *testing.B) {
	s := scenario.Scenario1(benchItems)
	for _, strat := range benchStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			var maxCPU, sumCPU float64
			for i := 0; i < b.N; i++ {
				r, err := s.Run(strat, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				maxCPU, sumCPU = 0, 0
				for _, p := range s.Net.SuperPeers() {
					c := r.Sim.AvgCPUPercent(s.Net, p)
					sumCPU += c
					if c > maxCPU {
						maxCPU = c
					}
				}
			}
			b.ReportMetric(maxCPU, "maxCPU%")
			b.ReportMetric(sumCPU, "totalCPU%")
		})
	}
}

// BenchmarkFig6Traffic reproduces Figure 6 (right): average traffic per
// network connection in scenario 1. Reported metrics: peak link kbps and
// total kbps across links.
func BenchmarkFig6Traffic(b *testing.B) {
	s := scenario.Scenario1(benchItems)
	for _, strat := range benchStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			var peak, total float64
			for i := 0; i < b.N; i++ {
				r, err := s.Run(strat, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				peak, total = 0, 0
				for _, l := range s.Net.Links() {
					k := r.Sim.LinkKbps(l)
					total += k
					if k > peak {
						peak = k
					}
				}
			}
			b.ReportMetric(peak, "peak-kbps")
			b.ReportMetric(total, "total-kbps")
		})
	}
}

// BenchmarkFig7CPULoad reproduces Figure 7 (left): average CPU load per
// super-peer in the 4×4 grid scenario.
func BenchmarkFig7CPULoad(b *testing.B) {
	s := scenario.Scenario2(benchItems)
	for _, strat := range benchStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			var maxCPU float64
			for i := 0; i < b.N; i++ {
				r, err := s.Run(strat, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				maxCPU = 0
				for _, p := range s.Net.SuperPeers() {
					if c := r.Sim.AvgCPUPercent(s.Net, p); c > maxCPU {
						maxCPU = c
					}
				}
			}
			b.ReportMetric(maxCPU, "maxCPU%")
		})
	}
}

// BenchmarkFig7Traffic reproduces Figure 7 (right): accumulated traffic per
// super-peer (in+out) in the grid scenario. Reported metrics: peak per-peer
// MBit and the network-wide total.
func BenchmarkFig7Traffic(b *testing.B) {
	s := scenario.Scenario2(benchItems)
	for _, strat := range benchStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			var peak, total float64
			for i := 0; i < b.N; i++ {
				r, err := s.Run(strat, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				peak = 0
				for _, p := range s.Net.SuperPeers() {
					if m := r.Sim.PeerMbit(p); m > peak {
						peak = m
					}
				}
				total = r.Sim.Metrics.TotalBytes() * 8 / 1e6
			}
			b.ReportMetric(peak, "peak-MBit")
			b.ReportMetric(total, "total-MBit")
		})
	}
}

// BenchmarkTable1Registration reproduces Table 1: query registration times
// per strategy and scenario (modeled control-message latency plus measured
// algorithm time). Reported metrics: avg/min/max in milliseconds.
func BenchmarkTable1Registration(b *testing.B) {
	for si, build := range []func(int) *scenario.Scenario{scenario.Scenario1, scenario.Scenario2} {
		s := build(benchItems / 4)
		for _, strat := range benchStrategies {
			b.Run(fmt.Sprintf("scenario%d/%s", si+1, strat), func(b *testing.B) {
				var sum scenario.RegSummary
				for i := 0; i < b.N; i++ {
					r, err := s.Run(strat, core.Config{})
					if err != nil {
						b.Fatal(err)
					}
					sum = r.Summary()
				}
				b.ReportMetric(float64(sum.Avg.Milliseconds()), "avg-ms")
				b.ReportMetric(float64(sum.Min.Milliseconds()), "min-ms")
				b.ReportMetric(float64(sum.Max.Milliseconds()), "max-ms")
			})
		}
	}
}

// BenchmarkRejection reproduces the §4 rejection experiment: peers limited
// to 10% capacity and links to 1 Mbit/s; reported metric: rejected queries
// out of 100 (paper: DS 47, QS 35, SS 2).
func BenchmarkRejection(b *testing.B) {
	s := scenario.Scenario2(benchItems/4).Constrained(0.10, 125_000)
	for _, strat := range benchStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			rejected := 0
			for i := 0; i < b.N; i++ {
				r, err := s.Run(strat, core.Config{Admission: true})
				if err != nil {
					b.Fatal(err)
				}
				rejected = r.Rejected
			}
			b.ReportMetric(float64(rejected), "rejected")
		})
	}
}

// BenchmarkAblationGamma sweeps the cost function's γ weighting (traffic vs
// peer load, §3.2) under stream sharing.
func BenchmarkAblationGamma(b *testing.B) {
	s := scenario.Scenario1(benchItems)
	for _, gamma := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b.Run(fmt.Sprintf("gamma=%.2f", gamma), func(b *testing.B) {
			cfg := core.Config{Model: cost.DefaultModel()}
			cfg.Model.Gamma = gamma
			var bytes, work float64
			for i := 0; i < b.N; i++ {
				r, err := s.Run(core.StreamSharing, cfg)
				if err != nil {
					b.Fatal(err)
				}
				bytes = r.Sim.Metrics.TotalBytes() / 1000
				work = r.Sim.Metrics.TotalWork()
			}
			b.ReportMetric(bytes, "traffic-kB")
			b.ReportMetric(work, "work-units")
		})
	}
}

// BenchmarkAblationWidening compares plain stream sharing against sharing
// with the §6 stream-widening extension enabled.
func BenchmarkAblationWidening(b *testing.B) {
	s := scenario.Scenario1(benchItems)
	for _, widen := range []bool{false, true} {
		name := "plain"
		if widen {
			name = "widening"
		}
		b.Run(name, func(b *testing.B) {
			var bytes, work float64
			for i := 0; i < b.N; i++ {
				r, err := s.Run(core.StreamSharing, core.Config{Widening: widen})
				if err != nil {
					b.Fatal(err)
				}
				bytes = r.Sim.Metrics.TotalBytes() / 1000
				work = r.Sim.Metrics.TotalWork()
			}
			b.ReportMetric(bytes, "traffic-kB")
			b.ReportMetric(work, "work-units")
		})
	}
}

// BenchmarkSubscribeOnly measures pure registration throughput (Algorithm 1
// without stream delivery) as the number of installed streams grows.
func BenchmarkSubscribeOnly(b *testing.B) {
	s := scenario.Scenario2(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(core.StreamSharing, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleGrid studies registration cost as the network grows (the
// §6 scalability concern): larger grids mean longer routes and larger
// discovery frontiers. Reported metric: average modeled registration
// latency.
func BenchmarkScaleGrid(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		s := scenario.ScaleGrid(n, 60, 40)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				r, err := s.Run(core.StreamSharing, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				avg = float64(r.Summary().Avg.Milliseconds())
			}
			b.ReportMetric(avg, "avg-reg-ms")
		})
	}
}
