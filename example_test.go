package streamshare_test

import (
	"fmt"

	"streamshare"
)

// Example demonstrates the paper's core idea end to end: a second,
// narrower query is answered from the first query's result stream instead
// of from the source.
func Example() {
	net := streamshare.NewNetwork()
	for _, id := range []streamshare.PeerID{"SRC", "MID", "OBS"} {
		net.AddPeer(streamshare.Peer{ID: id, Super: true, Capacity: 10000, PerfIndex: 1})
	}
	net.Connect("SRC", "MID", 12_500_000)
	net.Connect("MID", "OBS", 12_500_000)

	sys := streamshare.NewSystem(net, streamshare.Config{})
	items := streamshare.GeneratePhotons(streamshare.DefaultPhotonConfig(), 42, 1000)
	if _, err := sys.RegisterStreamItems("photons", "photons/photon", "SRC", items, 100); err != nil {
		fmt.Println(err)
		return
	}

	wide, _ := sys.Subscribe(`<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0
  return <hit> { $p/coord/cel/ra } { $p/en } </hit> }
</photons>`, "MID", streamshare.StreamSharing)

	narrow, _ := sys.Subscribe(`<photons>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3 and $p/coord/cel/ra >= 125.0 and $p/coord/cel/ra <= 135.0
  return <hot> { $p/en } </hot> }
</photons>`, "OBS", streamshare.StreamSharing)

	fmt.Println("wide computed at", wide.Inputs[0].Feed.Tap)
	fmt.Println("narrow reuses a shared stream:", !narrow.Inputs[0].Feed.Parent.Original)
	// Output:
	// wide computed at SRC
	// narrow reuses a shared stream: true
}

// ExampleMatch shows Algorithm 2 deciding reusability from properties alone.
func ExampleMatch() {
	wide, _ := streamshare.ParseQuery(`<r>{ for $p in stream("s")/r/i
	  where $p/x >= 10 and $p/x <= 40 return <o>{ $p/x }{ $p/y }</o> }</r>`)
	narrow, _ := streamshare.ParseQuery(`<r>{ for $p in stream("s")/r/i
	  where $p/x >= 20 and $p/x <= 30 return <o>{ $p/x }</o> }</r>`)
	wp, _ := streamshare.BuildProperties(wide)
	np, _ := streamshare.BuildProperties(narrow)
	fmt.Println("narrow from wide:", streamshare.Match(wp.Result(), np))
	fmt.Println("wide from narrow:", streamshare.Match(np.Result(), wp))
	// Output:
	// narrow from wide: true
	// wide from narrow: false
}

// velaQueries are the paper's Queries 1–4 (§1 and §2) with their targets on
// the backbone of Figs. 1/2.
var velaQueries = []struct {
	name, src string
	target    streamshare.PeerID
}{
	{"Query 1 (vela supernova remnant)", velaQuery, "SP1"},
	{"Query 2 (RX J0852.0-4622)", rxjQuery, "SP7"},
	{"Query 3 (windowed avg energy)", `<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0
   and coord/cel/dec >= -49.0 and coord/cel/dec <= -40.0]
  |det_time diff 20 step 10|
  let $a := avg($w/en)
  return <avg_en> { $a } </avg_en> }
</photons>`, "SP3"},
	{"Query 4 (coarser, filtered avg)", `<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0
   and coord/cel/dec >= -49.0 and coord/cel/dec <= -40.0]
  |det_time diff 60 step 40|
  let $a := avg($w/en)
  where $a >= 1.3
  return <avg_en> { $a } </avg_en> }
</photons>`, "SP5"},
}

// velaBackbone builds the super-peer network of Figs. 1/2; the photon
// telescope feeds SP4.
func velaBackbone() *streamshare.Network {
	net := streamshare.NewNetwork()
	for i := 0; i < 8; i++ {
		net.AddPeer(streamshare.Peer{
			ID: streamshare.PeerID(fmt.Sprintf("SP%d", i)), Super: true,
			Capacity: 8000, PerfIndex: 1,
		})
	}
	for _, e := range [][2]streamshare.PeerID{
		{"SP4", "SP5"}, {"SP5", "SP1"}, {"SP4", "SP6"}, {"SP6", "SP7"},
		{"SP5", "SP7"}, {"SP7", "SP1"}, {"SP4", "SP2"}, {"SP2", "SP0"},
		{"SP0", "SP1"}, {"SP1", "SP3"}, {"SP3", "SP5"},
	} {
		net.Connect(e[0], e[1], 12_500_000)
	}
	return net
}

// velaRun registers Queries 1–4 under one strategy, simulates the stream
// and returns the network traffic; verbose prints each placement with its
// decision trace, and each subscription's result count and last result (a
// windowed one's last window closes at end of stream).
func velaRun(strat streamshare.Strategy, items []*streamshare.Item, verbose bool) float64 {
	sys := streamshare.NewSystem(velaBackbone(), streamshare.Config{})
	if _, err := sys.RegisterStreamItems("photons", "photons/photon", "SP4", items, 100); err != nil {
		panic(err)
	}
	for _, q := range velaQueries {
		sub, err := sys.Subscribe(q.src, q.target, strat)
		if err != nil {
			panic(err)
		}
		if verbose {
			feed := sub.Inputs[0].Feed
			src := "original photon stream"
			if !feed.Parent.Original {
				src = feed.Parent.ID
			}
			fmt.Printf("  %-34s → %s: operators at %s (reusing %s), stream routed %v\n",
				q.name, q.target, feed.Tap, src, feed.Route)
			// The planning decision: every candidate stream the search saw,
			// with match outcome, rejection reason and cost breakdown.
			for _, line := range sub.Trace.Lines()[1:] {
				fmt.Printf("      %s\n", line)
			}
		}
	}
	res, err := sys.Simulate(map[string][]*streamshare.Item{"photons": items}, true)
	if err != nil {
		panic(err)
	}
	if verbose {
		for _, sub := range sys.Subscriptions() {
			out := res.Collected[sub.ID]
			fmt.Printf("  %s delivered %d result items, last: %s\n", sub.ID, res.Results[sub.ID], streamshare.MarshalItem(out[len(out)-1]))
		}
	}
	return res.Metrics.TotalBytes()
}

// Example_vela is the paper's motivating astrophysics scenario (§1, Figs.
// 1/2): Queries 1–4 are registered one after another over the RASS photon
// stream, each placement is printed with the streams it reuses, and the
// network traffic is compared against data and query shipping.
func Example_vela() {
	items := streamshare.GeneratePhotons(streamshare.DefaultPhotonConfig(), 42, 4000)

	fmt.Println("Stream sharing (Fig. 2):")
	ss := velaRun(streamshare.StreamSharing, items, true)

	fmt.Println("\nTotal network traffic:")
	ds := velaRun(streamshare.DataShipping, items, false)
	qs := velaRun(streamshare.QueryShipping, items, false)
	fmt.Printf("  data shipping : %8.0f kB\n", ds/1000)
	fmt.Printf("  query shipping: %8.0f kB\n", qs/1000)
	fmt.Printf("  stream sharing: %8.0f kB (%.1f%% of data shipping)\n", ss/1000, ss/ds*100)
	// Output:
	// Stream sharing (Fig. 2):
	//   Query 1 (vela supernova remnant)   → SP1: operators at SP4 (reusing original photon stream), stream routed [SP4 SP5 SP1]
	//       input photons visited=[SP4] candidates=1
	//         candidate orig:photons found=SP4 outcome=match tap=SP4 route=[SP4 SP5 SP1] residual=[select project] traffic=8.87134e-05 load=0.00750956 penalty=0 total=0.00759827 selected
	//   Query 2 (RX J0852.0-4622)          → SP7: operators at SP5 (reusing s1(q1 via orig:photons@SP4)), stream routed [SP5 SP7]
	//       input photons visited=[SP4 SP1] candidates=2
	//         candidate orig:photons found=SP4 outcome=match tap=SP4 route=[SP4 SP5 SP7] residual=[select project] traffic=2.40105e-06 load=0.00628727 penalty=0 total=0.00628967
	//         candidate s1(q1 via orig:photons@SP4) found=SP4 outcome=match tap=SP5 route=[SP5 SP7] residual=[select project] traffic=1.20052e-06 load=0.000684652 penalty=0 total=0.000685853 selected
	//   Query 3 (windowed avg energy)      → SP3: operators at SP5 (reusing s1(q1 via orig:photons@SP4)), stream routed [SP5 SP3]
	//       input photons visited=[SP4 SP1] candidates=2
	//         candidate orig:photons found=SP4 outcome=match tap=SP4 route=[SP4 SP5 SP3] residual=[select window-agg] traffic=3.43969e-05 load=0.00748147 penalty=0 total=0.00751586
	//         candidate s1(q1 via orig:photons@SP4) found=SP4 outcome=match tap=SP5 route=[SP5 SP3] residual=[window-agg] traffic=1.71984e-05 load=0.00123312 penalty=0 total=0.00125032 selected
	//   Query 4 (coarser, filtered avg)    → SP5: operators at SP5 (reusing s1(q1 via orig:photons@SP4)), stream routed [SP5]
	//       input photons visited=[SP4 SP1] candidates=2
	//         candidate orig:photons found=SP4 outcome=match tap=SP4 route=[SP4 SP5] residual=[select window-agg agg-filter] traffic=1.42999e-06 load=0.00710161 penalty=0 total=0.00710304
	//         candidate s1(q1 via orig:photons@SP4) found=SP4 outcome=match tap=SP5 route=[SP5] residual=[window-agg agg-filter] traffic=0 load=0.000960762 penalty=0 total=0.000960762 selected
	//   q1 delivered 331 result items, last: <vela><ra>130.7</ra><dec>-40.3</dec><phc>70</phc><en>0.77</en><det_time>1950.88</det_time></vela>
	//   q2 delivered 8 result items, last: <rxj><ra>133.5</ra><dec>-45.8</dec><en>1.34</en><det_time>1946.99</det_time></rxj>
	//   q3 delivered 190 result items, last: <avg_en>0.77</avg_en>
	//   q4 delivered 14 result items, last: <avg_en>1.39</avg_en>
	//
	// Total network traffic:
	//   data shipping :     4524 kB
	//   query shipping:       75 kB
	//   stream sharing:       99 kB (2.2% of data shipping)
}

// Example_windows shows window-based aggregate sharing (§3.3, Fig. 5). A
// fine-grained average |det_time diff 20 step 10| is registered first; a
// coarser one |det_time diff 60 step 40| is then answered by recomposing the
// fine aggregates. Averages travel as (sum, count) pairs, so the same stream
// also serves a count subscription. Each subscription's last window closes at
// end of stream, on the shared stream as directly.
func Example_windows() {
	agg := func(win, step int, op, extra string) string {
		return fmt.Sprintf(`<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0]
  |det_time diff %d step %d|
  let $a := %s($w/en)%s
  return <val> { $a } </val> }
</photons>`, win, step, op, extra)
	}
	net := streamshare.NewNetwork()
	for _, id := range []streamshare.PeerID{"SRC", "MID", "A", "B", "C"} {
		net.AddPeer(streamshare.Peer{ID: id, Super: true, Capacity: 10000, PerfIndex: 1})
	}
	net.Connect("SRC", "MID", 12_500_000)
	net.Connect("MID", "A", 12_500_000)
	net.Connect("MID", "B", 12_500_000)
	net.Connect("B", "C", 12_500_000)

	sys := streamshare.NewSystem(net, streamshare.Config{})
	items := streamshare.GeneratePhotons(streamshare.DefaultPhotonConfig(), 7, 6000)
	if _, err := sys.RegisterStreamItems("photons", "photons/photon", "SRC", items, 100); err != nil {
		panic(err)
	}
	for _, s := range []struct {
		name, src string
		at        streamshare.PeerID
	}{
		{"fine avg  |diff 20 step 10|", agg(20, 10, "avg", ""), "A"},
		{"coarse avg |diff 60 step 40|", agg(60, 40, "avg", ""), "B"},
		{"filtered   |diff 60 step 40| where $a >= 1.3", agg(60, 40, "avg", "\n  where $a >= 1.3"), "C"},
		{"count      |diff 20 step 10|", agg(20, 10, "count", ""), "B"},
	} {
		sub, err := sys.Subscribe(s.src, s.at, streamshare.StreamSharing)
		if err != nil {
			panic(err)
		}
		feed := sub.Inputs[0].Feed
		src := "raw stream"
		if !feed.Parent.Original {
			src = feed.Parent.ID
		}
		fmt.Printf("%-46s at %s: from %s, ops at %s\n", s.name, s.at, src, feed.Tap)
	}

	res, err := sys.Simulate(map[string][]*streamshare.Item{"photons": items}, true)
	if err != nil {
		panic(err)
	}
	for _, sub := range sys.Subscriptions() {
		out := res.Collected[sub.ID]
		fmt.Printf("%s: %3d windows, first: %s, last: %s\n", sub.ID, len(out), streamshare.MarshalItem(out[0]), streamshare.MarshalItem(out[len(out)-1]))
	}
	// Output:
	// fine avg  |diff 20 step 10|                    at A: from raw stream, ops at SRC
	// coarse avg |diff 60 step 40|                   at B: from s1(q1 via orig:photons@SRC), ops at MID
	// filtered   |diff 60 step 40| where $a >= 1.3   at C: from s1(q1 via orig:photons@SRC), ops at MID
	// count      |diff 20 step 10|                   at B: from s1(q1 via orig:photons@SRC), ops at MID
	// q1: 302 windows, first: <val>0.405</val>, last: <val>1.128</val>
	// q2:  77 windows, first: <val>0.928</val>, last: <val>1.128</val>
	// q3:   5 windows, first: <val>1.468518519</val>, last: <val>1.4090625</val>
	// q4: 302 windows, first: <val>2</val>, last: <val>5</val>
}

// Example_widening is the paper's §6 extension: "consider data streams for
// sharing that initially do not contain all the necessary data for a new
// query but can be altered to do so". Two subscribers ask for overlapping,
// mutually non-contained sky boxes at the far end of a chain. Without
// widening two streams travel the whole chain; with it the first stream is
// altered to cover the union box and feeds both through local filters.
func Example_widening() {
	const left = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 110.0 and $p/coord/cel/ra <= 130.0
  return <left> { $p/coord/cel/ra } { $p/en } </left> }
</photons>`
	const right = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 125.0 and $p/coord/cel/ra <= 145.0
  return <right> { $p/coord/cel/ra } { $p/en } </right> }
</photons>`
	items := streamshare.GeneratePhotons(streamshare.DefaultPhotonConfig(), 21, 4000)
	run := func(widen bool) float64 {
		net := streamshare.NewNetwork()
		ids := []streamshare.PeerID{"SRC", "N1", "N2", "N3", "OBS"}
		for _, id := range ids {
			net.AddPeer(streamshare.Peer{ID: id, Super: true, Capacity: 50000, PerfIndex: 1})
		}
		for i := 0; i+1 < len(ids); i++ {
			net.Connect(ids[i], ids[i+1], 12_500_000)
		}
		sys := streamshare.NewSystem(net, streamshare.Config{Widening: widen})
		if _, err := sys.RegisterStreamItems("photons", "photons/photon", "SRC", items, 100); err != nil {
			panic(err)
		}
		for _, q := range []string{left, right} {
			sub, err := sys.Subscribe(q, "OBS", streamshare.StreamSharing)
			if err != nil {
				panic(err)
			}
			fmt.Print(sub.Explain())
		}
		res, err := sys.Simulate(map[string][]*streamshare.Item{"photons": items}, false)
		if err != nil {
			panic(err)
		}
		return res.Metrics.TotalBytes()
	}

	fmt.Println("Without widening (two parallel streams):")
	plain := run(false)
	fmt.Println("\nWith widening (one altered stream feeds both):")
	widened := run(true)
	fmt.Printf("\nbackbone traffic: %.0f kB → %.0f kB (%.0f%% saved)\n",
		plain/1000, widened/1000, (1-widened/plain)*100)
	// Output:
	// Without widening (two parallel streams):
	// q1 at OBS
	//   input photons: original stream, operators [select → project] at SRC, routed [SRC N1 N2 N3 OBS], post-processing [restructure] at OBS
	// q2 at OBS
	//   input photons: original stream, operators [select → project] at SRC, routed [SRC N1 N2 N3 OBS], post-processing [restructure] at OBS
	//
	// With widening (one altered stream feeds both):
	// q1 at OBS
	//   input photons: original stream, operators [select → project] at SRC, routed [SRC N1 N2 N3 OBS], post-processing [restructure] at OBS
	// q2 at OBS
	//   input photons: shared stream ws1(q1 via orig:photons@SRC)(widened photons), operators [select] at OBS, routed [OBS], post-processing [restructure] at OBS
	//
	// backbone traffic: 764 kB → 659 kB (14% saved)
}

// exampleSystem registers the photon stream at SP0 of a three-peer line and
// subscribes the vela query at SP2.
func exampleSystem(cfg streamshare.Config) (*streamshare.System, []*streamshare.Item) {
	sys := streamshare.NewSystem(lineNet(), cfg)
	items := streamshare.GeneratePhotons(streamshare.DefaultPhotonConfig(), 9, 600)
	if _, err := sys.RegisterStreamItems("photons", "photons/photon", "SP0", items, 100); err != nil {
		panic(err)
	}
	if _, err := sys.Subscribe(velaQuery, "SP2", streamshare.StreamSharing); err != nil {
		panic(err)
	}
	return sys, items
}

// ExampleSystem_Obs reads a system's metrics registry and its recorded
// planning decisions after a simulated run.
func ExampleSystem_Obs() {
	sys, items := exampleSystem(streamshare.Config{})
	if _, err := sys.Simulate(map[string][]*streamshare.Item{"photons": items}, false); err != nil {
		panic(err)
	}
	snap := sys.Obs().Metrics.Snapshot()
	fmt.Println("installed:", snap.Counters["core.subscribe.installed"])
	fmt.Println("delivered:", snap.Counters["sim.results.items"])
	for _, d := range sys.Obs().Tracer.Recent(0) {
		fmt.Println(d.SubID, "at", d.Target, "by", d.Strategy)
	}
	// Output:
	// installed: 1
	// delivered: 46
	// q1 at SP2 by Stream Sharing
}

// ExampleNewObserver shares one instrumentation layer between two systems,
// a simulator and a distributed runtime, so their series land in one
// registry and compare one to one.
func ExampleNewObserver() {
	o := streamshare.NewObserver()
	simSys, items := exampleSystem(streamshare.Config{Obs: o})
	distSys, _ := exampleSystem(streamshare.Config{Obs: o})
	feed := map[string][]*streamshare.Item{"photons": items}
	if _, err := simSys.Simulate(feed, false); err != nil {
		panic(err)
	}
	if _, err := distSys.RunDistributed(feed, false); err != nil {
		panic(err)
	}
	snap := o.Metrics.Snapshot()
	fmt.Println("installed:", snap.Counters["core.subscribe.installed"])
	fmt.Println("same traffic:", snap.Counters["sim.traffic.bytes"] == snap.Counters["runtime.traffic.bytes"])
	// Output:
	// installed: 2
	// same traffic: true
}

// ExampleSystem_RunDistributedWith runs the installed plan on the concurrent
// peer runtime with explicit data-path options and checks it against the
// simulator.
func ExampleSystem_RunDistributedWith() {
	sys, items := exampleSystem(streamshare.Config{})
	feed := map[string][]*streamshare.Item{"photons": items}
	sim, err := sys.Simulate(feed, false)
	if err != nil {
		panic(err)
	}
	opts := streamshare.DefaultRuntimeOptions()
	opts.BatchSize = 1
	dist, err := sys.RunDistributedWith(feed, false, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("results:", sim.Results["q1"], dist.Results["q1"])
	fmt.Println("same traffic:", sim.Metrics.TotalBytes() == dist.Metrics.TotalBytes())
	// Output:
	// results: 46 46
	// same traffic: true
}

// ExampleDefaultRuntimeOptions prints the tuned data path's batch size.
func ExampleDefaultRuntimeOptions() {
	fmt.Println("batch size:", streamshare.DefaultRuntimeOptions().BatchSize)
	// Output:
	// batch size: 64
}
