package main

import (
	"fmt"
	"math"
	"math/rand"
	grt "runtime"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/obs"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
)

// coldPopulations populates fresh engines with qs until the deadline and
// returns one timing per population: the sum of its Subscribe calls, every
// one planning against caches that have never seen its query. Populations
// are grouped into probe-bracketed blocks of about 256 calls, so that a
// block is not dwarfed by the probes around it.
func coldPopulations(c *runCtx, parent span, grid int, qs []query, deadline time.Time) (timings, error) {
	var out timings
	perBlock := max(1, 256/len(qs))
	c.probe.sample()
	for len(out.raw) == 0 || time.Now().Before(deadline) {
		var raw []float64
		for i := 0; i < perBlock; i++ {
			eng, err := newEngine(grid, core.Config{})
			if err != nil {
				return out, err
			}
			sp := c.tr.start(parent, "core.populate")
			took, err := populate(eng, qs, core.StreamSharing)
			sp.end()
			if err != nil {
				c.ops(len(qs), len(qs))
				return out, err
			}
			c.ops(len(qs), 0)
			total := time.Duration(0)
			for _, d := range took {
				total += d
			}
			raw = append(raw, durMs(total))
		}
		b := c.probe.close()
		for _, v := range raw {
			out.add(v, b)
		}
	}
	return out, nil
}

// inprocResult is what one pass of grid-inproc measured.
type inprocResult struct {
	runMs                timings // timed Runs
	populateMs           timings
	setupS               timings
	cycles               *cycleStats
	linkBytes, workUnits float64
	simNsPerItem         float64
	resultsPerItem       float64
	ratio                float64
	snap                 obs.Snapshot // registry of the last timed Run's engine
	ctl                  obs.Snapshot // registry growth over the warm cycles
	ctlMallocs           float64
	mallocs, allocBytes  float64 // per item, median over the timed Runs
	gcPauseMs            float64 // total over the timed Runs
	hwm                  float64
}

func (r *inprocResult) itemsPerS(p *prober, items int) float64 {
	return float64(items) / (median(r.runMs.norm(p)) / 1000)
}

// runGridInproc is the closed-loop, one-process workload: the distributed
// runtime executes the 4×4/32-query plan over a pre-parsed feed, a fresh
// engine per Run.
func runGridInproc(c *runCtx) error {
	root := c.tr.start(span{}, c.workload)
	defer root.end()
	if !c.traced {
		r, err := inprocPass(c, root, false, c.sz.setupReps)
		if err != nil {
			return err
		}
		c.set("items_per_s", r.itemsPerS(c.probe, c.sz.inprocItems))
		c.set("feed_lag_p50_ms", median(r.runMs.norm(c.probe)))
		c.set("subs_per_s", r.cycles.subsPerS(c.probe))
		c.set("populate_ms", median(r.populateMs.norm(c.probe)))
		c.set("link_bytes_per_item", r.linkBytes)
		c.set("work_units_per_item", r.workUnits)
		c.set("sharing_traffic_ratio", r.ratio)
		c.set("peak_rss_mb", ownPeakRSSMB())
		c.set("setup_s", median(r.setupS.norm(c.probe)))
		c.logf("%d timed Runs of %d items: median %.1f ms on the clock, %.1f ms at reference speed; %d populations, %d cycles",
			len(r.runMs.raw), c.sz.inprocItems, median(r.runMs.raw), median(r.runMs.norm(c.probe)), len(r.populateMs.raw), len(r.cycles.sub))
		return nil
	}
	plain, err := inprocPass(c, root, false, 1)
	if err != nil {
		return err
	}
	tr, err := inprocPass(c, root, true, 1)
	if err != nil {
		return err
	}
	h := func(name string) obs.HistogramSnapshot { return tr.snap.Histograms[name] }
	cn := func(name string) float64 { return tr.snap.Counters[name] }
	runtimeLedger(c, h, cn, float64(c.sz.inprocItems))
	c.set("runtime.mailbox_hwm_items", tr.hwm)
	c.set("runtime.allocs_per_item", tr.mallocs)
	c.set("runtime.alloc_bytes_per_item", tr.allocBytes)
	c.set("runtime.gc_pause_ms", tr.gcPauseMs)
	// No process boundary: the codec, the transport, the journal and the
	// line protocol do no work here.
	c.zero(boundaryRunMetrics...)
	controlLedger(c, tr.ctl, tr.cycles, tr.ctlMallocs)
	c.set("core.simulate_ns_per_item", tr.simNsPerItem)
	c.set("exec.results_per_item", tr.resultsPerItem)
	c.set("bench.trace_overhead_ratio", plain.itemsPerS(c.probe, c.sz.inprocItems)/tr.itemsPerS(c.probe, c.sz.inprocItems))
	return kernels(c, root)
}

func inprocPass(c *runCtx, root span, traced bool, setupReps int) (*inprocResult, error) {
	r := &inprocResult{}
	qs := gridQueries(c.sz.grid, c.sz.queries, gridQuerySeed)
	newPopulated := func() (*core.Engine, error) {
		eng, err := populatedEngine(c.sz.grid, qs, core.StreamSharing, core.Config{})
		if err == nil && traced {
			eng.Obs().Latency.SetRate(16)
		}
		return eng, err
	}

	// Set-up: feed generation plus a populated engine, several times over.
	phase := c.phase(root, "setup")
	var items []*xmlstream.Element
	for rep := 0; rep < setupReps; rep++ {
		c.probe.sample()
		t0 := time.Now()
		sp := c.tr.start(phase.span, "bench.feedgen")
		items = c.itemGen().Generate(c.sz.inprocItems)
		sp.end()
		if _, err := newPopulated(); err != nil {
			return nil, err
		}
		r.setupS.add(time.Since(t0).Seconds(), c.probe.close())
	}
	phase.end()
	feed := feedOf(items)
	nItems := float64(len(items))

	// Measure: one warm-up Run, then timed Runs for the measuring time,
	// each on a fresh engine (execution consumes operator state) and each
	// its own probe-bracketed block.
	phase = c.phase(root, "measure")
	deadline := c.deadline(mainShare)
	var results []map[string]int
	var lastRun *runtime.Result
	var mallocs, allocBytes []float64
	var ms0, ms1 grt.MemStats
	c.probe.sample()
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		req := c.tr.request(phase.span, "chunk")
		eng, err := newPopulated()
		if err != nil {
			return nil, err
		}
		rt := runtime.NewWith(eng, false, runtime.DefaultOptions())
		grt.GC()
		if traced {
			grt.ReadMemStats(&ms0)
		}
		sp := c.tr.start(req, "runtime.Run")
		t0 := time.Now()
		res, err := rt.Run(feed)
		took := time.Since(t0)
		sp.end()
		req.end()
		block := c.probe.close()
		if err != nil {
			return nil, fmt.Errorf("runtime.Run: %w", err)
		}
		results = append(results, res.Results)
		lastRun = res
		if rep == 0 {
			deadline = c.deadline(mainShare)
			continue
		}
		r.runMs.add(durMs(took), block)
		if traced {
			grt.ReadMemStats(&ms1)
			mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs)/nItems)
			allocBytes = append(allocBytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/nItems)
			r.gcPauseMs += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
			r.snap = eng.Obs().Metrics.Snapshot()
			for _, n := range rt.MailboxHWM() {
				r.hwm = math.Max(r.hwm, float64(n))
			}
		}
	}
	phase.end()
	if len(r.runMs.raw) == 0 {
		return nil, fmt.Errorf("no timed Run fitted in %.1f s", c.passSeconds())
	}
	r.mallocs, r.allocBytes = median(mallocs), median(allocBytes)
	r.linkBytes = lastRun.Metrics.TotalBytes() / nItems
	r.workUnits = lastRun.Metrics.TotalWork() / nItems

	// Control plane, cold: fresh engines populated with the plan set.
	phase = c.phase(root, "populate")
	var err error
	if r.populateMs, err = coldPopulations(c, phase.span, c.sz.grid, qs, c.deadline(populateShare)); err != nil {
		return nil, err
	}
	phase.end()

	// Control plane, warm: subscribe+unsubscribe cycles on a populated
	// engine, after one untimed pass that brings the caches to steady state.
	phase = c.phase(root, "cycles")
	eng, err := newPopulated()
	if err != nil {
		return nil, err
	}
	inOrder := func(i int) int { return i % len(qs) }
	engineCycles(c, nil, nil, span{}, eng, qs, inOrder, len(qs), time.Time{})
	before := eng.Obs().Metrics.Snapshot()
	r.cycles = engineCycles(c, c.tr, c.probe, phase.span, eng, qs, inOrder, math.MaxInt, c.deadline(cycleShare))
	r.ctl = eng.Obs().Metrics.Snapshot().Delta(before)
	if traced {
		r.ctlMallocs = cycleAllocs(c, eng, qs, inOrder)
	}
	phase.end()
	c.ops(2*len(r.cycles.sub)+2*r.cycles.failed, r.cycles.failed)

	// Correctness: every Run against the simulator on a twin engine — result
	// counts per subscription, and the modelled traffic, which both
	// backends meter in the same units.
	phase = c.phase(root, "reference")
	twin, err := populatedEngine(c.sz.grid, qs, core.StreamSharing, core.Config{})
	if err != nil {
		return nil, err
	}
	sp := c.tr.start(phase.span, "core.Simulate")
	t0 := time.Now()
	ref, err := twin.Simulate(feed, false)
	r.simNsPerItem = float64(time.Since(t0).Nanoseconds()) / nItems
	sp.end()
	if err != nil {
		return nil, err
	}
	r.resultsPerItem = float64(sumCounts(ref.Results)) / nItems
	bad := 0
	for i, got := range results {
		if n := countMismatches(got, ref.Results); n > 0 {
			c.logf("Run %d: %d subscription(s) differ from the reference", i, n)
			bad++
		}
	}
	if want := ref.Metrics.TotalBytes(); math.Abs(lastRun.Metrics.TotalBytes()-want) > 1e-9*want {
		c.logf("modelled link bytes differ: runtime %.0f, simulator %.0f", lastRun.Metrics.TotalBytes(), want)
		bad++
	}
	c.ops(len(results), bad)
	if r.ratio, err = modelRatio(c.sz.grid, qs, items[:min(c.sz.ratioItems, len(items))]); err != nil {
		return nil, err
	}
	phase.end()
	return r, nil
}

// runChurn is the control-plane workload: a 6×6 grid carrying 256 live
// sharing queries (scenario.ScaleGrid's shape), subscribe+unsubscribe
// cycles through the engine API, each call timed.
func runChurn(c *runCtx) error {
	root := c.tr.start(span{}, c.workload)
	defer root.end()
	n, qs := c.sz.churnGrid, gridQueries(c.sz.churnGrid, c.sz.churnQueries, churnQuerySeed)

	// Set-up: a populated engine and the items, several times over.
	reps := c.sz.setupReps
	if c.traced {
		reps = 1
	}
	phase := c.phase(root, "setup")
	var setupS timings
	var eng *core.Engine
	var items, later []*xmlstream.Element
	for rep := 0; rep < reps; rep++ {
		c.probe.sample()
		t0 := time.Now()
		var err error
		if eng, err = populatedEngine(n, qs, core.StreamSharing, core.Config{}); err != nil {
			return err
		}
		// Two consecutive stretches of the seed's stream: the first is fed
		// before the churn, the second after it. An engine cannot be fed
		// the same items twice — windows have moved past them.
		gen := c.itemGen()
		items, later = gen.Generate(c.sz.simChunk*c.sz.simMax), gen.Generate(c.sz.checkItems)
		setupS.add(time.Since(t0).Seconds(), c.probe.close())
		c.ops(len(qs), 0)
	}
	phase.end()

	// Control plane, cold: fresh engines populated with all 256 queries.
	phase = c.phase(root, "populate")
	populateMs, err := coldPopulations(c, phase.span, n, qs, c.deadline(populateShare))
	if err != nil {
		return err
	}
	phase.end()

	// The data path over the standing queries, single-threaded: the
	// simulator in chunks, each a probe-bracketed block.
	phase = c.phase(root, "simulate")
	var simMs timings
	var bytes, work float64
	fed := 0 // items the timed loop got through
	simulate := func(eng *core.Engine, items []*xmlstream.Element, into map[string]int, timed bool) error {
		var deadline time.Time
		if timed {
			deadline = c.deadline(churnSimShare)
			c.probe.sample()
		}
		for lo := 0; lo < len(items); lo += c.sz.simChunk {
			if timed && lo > 0 && time.Now().After(deadline) {
				break
			}
			req := c.tr.request(phase.span, "chunk")
			sp := c.tr.start(req, "core.Simulate")
			t0 := time.Now()
			res, err := eng.Simulate(feedOf(items[lo:min(lo+c.sz.simChunk, len(items))]), false)
			took := time.Since(t0)
			sp.end()
			req.end()
			if err != nil {
				return err
			}
			for id, k := range res.Results {
				into[id] += k
			}
			if timed {
				simMs.add(durMs(took), c.probe.close())
				fed = min(lo+c.sz.simChunk, len(items))
				bytes += res.Metrics.TotalBytes()
				work += res.Metrics.TotalWork()
			}
		}
		return nil
	}
	ref := map[string]int{}
	if err := simulate(eng, items, ref, true); err != nil {
		return err
	}
	phase.end()
	nItems := float64(fed)

	// One untimed pass brings the planner's caches to steady state (during
	// population, query j never planned against streams installed after
	// j); then the timed cycles, in an order the seed picks.
	phase = c.phase(root, "measure")
	engineCycles(c, nil, nil, span{}, eng, qs, func(i int) int { return i }, len(qs), time.Time{})
	order := rand.New(rand.NewSource(c.seed)).Perm(len(qs))
	seeded := func(i int) int { return order[i%len(order)] }
	before := eng.Obs().Metrics.Snapshot()
	cyc := engineCycles(c, c.tr, c.probe, phase.span, eng, qs, seeded, math.MaxInt, c.deadline(churnCycleShare))
	ctl := eng.Obs().Metrics.Snapshot().Delta(before)
	phase.end()
	c.ops(2*len(cyc.sub)+2*cyc.failed, cyc.failed)
	if len(cyc.sub) == 0 {
		return fmt.Errorf("no cycle completed")
	}

	// Correctness: the churned engine must deliver, for every standing
	// query, exactly what a twin that never churned delivers on the items
	// that follow.
	phase = c.phase(root, "reference")
	twin, err := populatedEngine(n, qs, core.StreamSharing, core.Config{})
	if err != nil {
		return err
	}
	want, got := map[string]int{}, map[string]int{}
	if err := simulate(twin, later, want, false); err != nil {
		return err
	}
	if err := simulate(eng, later, got, false); err != nil {
		return err
	}
	bad := countMismatches(got, want)
	if bad > 0 {
		c.logf("%d subscription(s) deliver differently after the churn", bad)
	}
	c.ops(len(qs), bad)
	ratio, err := modelRatio(n, qs, items[:min(c.sz.checkItems, len(items))])
	if err != nil {
		return err
	}
	phase.end()

	if !c.traced {
		c.set("items_per_s", float64(c.sz.simChunk)/(median(simMs.norm(c.probe))/1000))
		c.set("feed_lag_p50_ms", median(simMs.norm(c.probe)))
		c.set("subs_per_s", cyc.subsPerS(c.probe))
		c.set("populate_ms", median(populateMs.norm(c.probe)))
		c.set("link_bytes_per_item", bytes/nItems)
		c.set("work_units_per_item", work/nItems)
		c.set("sharing_traffic_ratio", ratio)
		c.set("peak_rss_mb", ownPeakRSSMB())
		c.set("setup_s", median(setupS.norm(c.probe)))
		c.logf("%d timed cycles in %d blocks, subscribe p50 %.1f µs on the clock; %d populations; %d simulator chunks, median %.1f ms on the clock",
			len(cyc.sub), len(cyc.perCycle.raw), median(durs(cyc.sub, time.Microsecond)), len(populateMs.raw), len(simMs.raw), median(simMs.raw))
		return nil
	}
	// No distributed run happens here: every data-path layer is bypassed.
	c.zero(runtimeRunMetrics...)
	c.zero(boundaryRunMetrics...)
	controlLedger(c, ctl, cyc, cycleAllocs(c, eng, qs, seeded))
	c.set("core.simulate_ns_per_item", median(simMs.raw)*1e6/float64(c.sz.simChunk))
	c.set("exec.results_per_item", float64(sumCounts(ref))/nItems)
	// The cycles above ran with a span around every call; the same cycles
	// again without them give the overhead.
	plain := engineCycles(c, nil, c.probe, span{}, eng, qs, seeded, len(cyc.sub), c.deadline(churnCycleShare))
	c.set("bench.trace_overhead_ratio", plain.subsPerS(c.probe)/cyc.subsPerS(c.probe))
	return kernels(c, root)
}
