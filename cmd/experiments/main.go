// Command experiments regenerates every table and figure of the paper's
// evaluation section (§4):
//
//	experiments -fig 6      Figure 6: scenario 1 CPU load and link traffic
//	experiments -fig 7      Figure 7: scenario 2 CPU load and peer traffic
//	experiments -table 1    Table 1: query registration times
//	experiments -rejection  the constrained-capacity rejection experiment
//	experiments -churn      the churn/adaptation experiment: scenario 2 under
//	                        the scripted failure schedule, with repair and
//	                        rejection counts and the repair-latency series
//	experiments -recovery   the recovery experiment: scenario 2 on reliable
//	                        session channels with a severed link, reporting
//	                        the fault and the redelivery volume
//	experiments -all        everything (default)
//	experiments -seed 7     derive every workload and photon stream from the
//	                        given base seed (0 = the classic constants)
//
// -trace prints every registration's planning decision (candidate streams,
// match outcomes, cost breakdowns); -metrics dumps each run's metrics
// registry snapshot.
//
// Absolute numbers depend on the synthetic substrate (see DESIGN.md); the
// paper's shape — who wins, by what factor, where the peaks are — is what
// the runs reproduce. EXPERIMENTS.md records paper-vs-measured values.
// Throughput and latency are measured by the benchmark under bench/ (`go run
// -C bench streamshare/bench`), not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
	"streamshare/internal/scenario"
)

var strategies = []core.Strategy{core.DataShipping, core.QueryShipping, core.StreamSharing}

var (
	showMetrics = flag.Bool("metrics", false, "dump each run's metrics registry snapshot")
	showTrace   = flag.Bool("trace", false, "print each registration's planning decision trace")
	seed        = flag.Int64("seed", 0, "base seed for workloads and photon streams (0 = classic)")
)

func main() {
	fig := flag.Int("fig", 0, "reproduce figure 6 or 7")
	table := flag.Int("table", 0, "reproduce table 1")
	rejection := flag.Bool("rejection", false, "run the rejection experiment")
	churn := flag.Bool("churn", false, "run the churn/adaptation experiment")
	recovery := flag.Bool("recovery", false, "run the recovery experiment (redelivery after a severed link)")
	all := flag.Bool("all", false, "run everything")
	items := flag.Int("items", 3000, "photons per stream to simulate")
	flag.Parse()

	if !*all && *fig == 0 && *table == 0 && !*rejection && !*churn && !*recovery {
		*all = true
	}
	fmt.Printf("experiments: %d items per stream, seed %d\n", *items, *seed)
	if *all || *fig == 6 {
		figure6(*items)
	}
	if *all || *fig == 7 {
		figure7(*items)
	}
	if *all || *table == 1 {
		table1(*items)
	}
	if *all || *rejection {
		rejectionExperiment(*items)
	}
	if *all || *churn {
		churnExperiment(*items)
	}
	if *all || *recovery {
		recoveryExperiment(*items)
	}
}

func runAll(s *scenario.Scenario) map[core.Strategy]*scenario.Result {
	out := map[core.Strategy]*scenario.Result{}
	for _, strat := range strategies {
		r, err := s.Run(strat, core.Config{})
		if err != nil {
			log.Fatalf("%s: %v", strat, err)
		}
		out[strat] = r
		dumpObs(strat, r.Engine)
	}
	return out
}

// dumpObs prints the per-run observability output requested by -trace and
// -metrics.
func dumpObs(strat core.Strategy, eng *core.Engine) {
	if *showTrace {
		fmt.Printf("--- decision traces (%s) ---\n", strat)
		for _, d := range eng.Obs().Tracer.Recent(0) {
			for _, line := range d.Lines() {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	if *showMetrics {
		fmt.Printf("--- metrics snapshot (%s) ---\n", strat)
		eng.Obs().Metrics.Snapshot().WriteText(os.Stdout)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// bars renders one grouped bar chart row set: labels down the side, one bar
// per strategy, scaled to the global maximum.
func bars(labels []string, series map[string][3]float64, unit string) {
	var max float64
	for _, vs := range series {
		for _, v := range vs {
			if v > max {
				max = v
			}
		}
	}
	if max == 0 {
		max = 1
	}
	const width = 46
	tag := [3]string{"DS", "QS", "SS"}
	for _, l := range labels {
		vs := series[l]
		for i, v := range vs {
			n := int(v / max * width)
			fmt.Printf("%-10s %s |%-*s| %8.2f %s\n", l, tag[i], width, strings.Repeat("█", n), v, unit)
			l = ""
		}
	}
}

// totals sums each strategy's column of a bar chart's series.
func totals(series map[string][3]float64) [3]float64 {
	var t [3]float64
	for _, vs := range series {
		for i, v := range vs {
			t[i] += v
		}
	}
	return t
}

// figure6 prints Figure 6 and returns the link traffic (kbps) summed over
// connections, per strategy in DS, QS, SS order.
func figure6(items int) [3]float64 {
	s := scenario.Scenario1Seed(items, *seed)
	res := runAll(s)
	var cpuLabels, trafficLabels []string
	cpu, traffic := map[string][3]float64{}, map[string][3]float64{}

	for _, p := range s.Net.SuperPeers() {
		cpuLabels = append(cpuLabels, string(p))
		cpu[string(p)] = [3]float64{
			res[core.DataShipping].Sim.AvgCPUPercent(s.Net, p),
			res[core.QueryShipping].Sim.AvgCPUPercent(s.Net, p),
			res[core.StreamSharing].Sim.AvgCPUPercent(s.Net, p),
		}
	}
	for _, l := range s.Net.Links() {
		trafficLabels = append(trafficLabels, l.String())
		traffic[l.String()] = [3]float64{
			res[core.DataShipping].Sim.LinkKbps(l),
			res[core.QueryShipping].Sim.LinkKbps(l),
			res[core.StreamSharing].Sim.LinkKbps(l),
		}
	}

	header("Figure 6 (left): extended example scenario — avg. CPU load (%)")
	bars(cpuLabels, cpu, "%")
	header("Figure 6 (right): avg. network traffic (kbps) per connection")
	bars(trafficLabels, traffic, "kbps")
	return totals(traffic)
}

// figure7 prints Figure 7 and returns the per-peer traffic (MBit, in+out)
// summed over super-peers, per strategy in DS, QS, SS order.
func figure7(items int) [3]float64 {
	s := scenario.Scenario2Seed(items, *seed)
	res := runAll(s)
	var labels []string
	cpu, traffic := map[string][3]float64{}, map[string][3]float64{}

	for _, p := range s.Net.SuperPeers() {
		labels = append(labels, string(p))
		cpu[string(p)] = [3]float64{
			res[core.DataShipping].Sim.AvgCPUPercent(s.Net, p),
			res[core.QueryShipping].Sim.AvgCPUPercent(s.Net, p),
			res[core.StreamSharing].Sim.AvgCPUPercent(s.Net, p),
		}
		traffic[string(p)] = [3]float64{
			res[core.DataShipping].Sim.PeerMbit(p),
			res[core.QueryShipping].Sim.PeerMbit(p),
			res[core.StreamSharing].Sim.PeerMbit(p),
		}
	}

	header("Figure 7 (left): 4×4 grid scenario — avg. CPU load (%)")
	bars(labels, cpu, "%")
	header("Figure 7 (right): acc. network traffic (MBit) per super-peer (in+out)")
	bars(labels, traffic, "MBit")
	return totals(traffic)
}

func table1(items int) {
	header("Table 1: query registration times (ms)")
	fmt.Printf("%-16s %10s %10s %10s %10s %10s %10s\n", "Scenario",
		"Avg 1", "Avg 2", "Min 1", "Min 2", "Max 1", "Max 2")
	s1 := scenario.Scenario1Seed(items/4, *seed)
	s2 := scenario.Scenario2Seed(items/4, *seed)
	for _, strat := range strategies {
		r1, err := s1.Run(strat, core.Config{})
		if err != nil {
			log.Fatal(err)
		}
		r2, err := s2.Run(strat, core.Config{})
		if err != nil {
			log.Fatal(err)
		}
		dumpObs(strat, r1.Engine)
		dumpObs(strat, r2.Engine)
		a, b := r1.Summary(), r2.Summary()
		fmt.Printf("%-16s %10.0f %10.0f %10.0f %10.0f %10.0f %10.0f\n", strat,
			float64(a.Avg)/1e6, float64(b.Avg)/1e6, float64(a.Min)/1e6, float64(b.Min)/1e6,
			float64(a.Max)/1e6, float64(b.Max)/1e6)
	}
	fmt.Println("(measured algorithm time plus modeled control-message latency;")
	fmt.Println(" paper: DS 931/1363, QS 890/1287, SS 2153/3558 ms averages)")
}

// rejectionExperiment prints the rejection table and returns the rejected
// counts per strategy in DS, QS, SS order (-1 for a run that failed).
func rejectionExperiment(items int) [3]int {
	header("Rejection experiment: peers at 10% capacity, links at 1 Mbit/s")
	s := scenario.Scenario2Seed(items/4, *seed).Constrained(0.10, 125_000)
	fmt.Printf("%-16s %s\n", "Strategy", "Rejected of 100 queries (paper)")
	paper := map[core.Strategy]int{core.DataShipping: 47, core.QueryShipping: 35, core.StreamSharing: 2}
	rejected := [3]int{-1, -1, -1}
	for i, strat := range strategies {
		r, err := s.Run(strat, core.Config{Admission: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", strat, err)
			continue
		}
		dumpObs(strat, r.Engine)
		fmt.Printf("%-16s %d (%d)\n", strat, r.Rejected, paper[strat])
		rejected[i] = r.Rejected
	}
	return rejected
}

// churnExperiment runs scenario 2 under the scripted failure schedule for
// every strategy: each subscription severed by the churn is repaired or
// explicitly rejected, and the repair-latency series is reported per run.
func churnExperiment(items int) {
	header(fmt.Sprintf("Churn experiment: scenario 2 under %q", scenario.DefaultChurnSchedule))
	events, err := adapt.ParseSchedule(scenario.DefaultChurnSchedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %9s %9s %9s %12s %12s\n",
		"Strategy", "Repaired", "Rejected", "Migrated", "Before MBit", "After MBit")
	for _, strat := range strategies {
		s := scenario.Scenario2Seed(items/4, *seed)
		res, err := s.RunChurn(strat, core.Config{}, events)
		if err != nil {
			log.Fatalf("%s: %v", strat, err)
		}
		dumpObs(strat, res.Engine)
		fmt.Printf("%-16s %9d %9d %9d %12.1f %12.1f\n", strat,
			res.Repaired, res.Rejected, res.Migrated,
			res.Before.Metrics.TotalBytes()*8/1e6, res.After.Metrics.TotalBytes()*8/1e6)
		fmt.Printf("  repair latencies (ms):")
		for _, d := range res.RepairLatencies() {
			fmt.Printf(" %.3f", float64(d)/1e6)
		}
		fmt.Println()
	}
	fmt.Println("(every severed subscription is re-planned over the surviving topology")
	fmt.Println(" or explicitly rejected; the schedule is applied mid-stream)")
}
