package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/obs"
)

// clusterKind selects one of the three workloads that drive two sgd
// processes over the line protocol.
type clusterKind int

const (
	feedOpen   clusterKind = iota // fixed schedule, lag from each chunk's due time
	feedSat                       // back-to-back documents
	durableSat                    // feedSat with both nodes journaling
)

// chunkRec is one FEED document sent to the coordinator.
type chunkRec struct {
	items   int
	timed   bool      // counts toward throughput and lag
	due     time.Time // open loop: when the schedule wanted it sent
	sent    time.Time
	replied time.Time
	block   bracket // the probe samples around the chunk (see probe.go)
	counts  map[string]int
	err     error
}

// clusterResult is what one pass over a fresh cluster measured.
type clusterResult struct {
	itemsPerS            float64
	lagMs                timings // per timed chunk
	lateShare, lagSlope  float64
	genLateMs            []float64
	setupS               timings // per fresh cluster
	docgenS              timings
	populateMs           timings
	subscribeRTT         []time.Duration
	cycles               *cycleStats
	rssMB                float64
	linkBytes, workUnits float64 // per item, from the reference twin
	simNsPerItem         float64
	resultsPerItem       float64
	ratio                float64
	items                int // timed items
	fixedMs              []float64
	before, after        [2]nodeVars
	writeBytes           float64 // storage-layer bytes over the timed chunks
	reconnects           float64
	reopenMs             float64
	runs                 int          // FEEDs between the two snapshots
	snapItems            int          // items fed between the two snapshots
	ctl                  obs.Snapshot // coordinator registry growth over the warm cycles
	ctlMallocs           float64      // coordinator allocations per cycle
}

func runCluster(c *runCtx, kind clusterKind) error {
	bin, err := buildSGD()
	if err != nil {
		return err
	}
	root := c.tr.start(span{}, c.workload)
	defer root.end()
	if !c.traced {
		r, err := clusterPass(c, kind, bin, root, false, c.sz.setupReps)
		if err != nil {
			return err
		}
		c.set("items_per_s", r.itemsPerS)
		c.set("feed_lag_p50_ms", quantile(r.lagMs.norm(c.probe), 0.5))
		c.set("subs_per_s", r.cycles.subsPerS(c.probe))
		c.set("populate_ms", median(r.populateMs.norm(c.probe)))
		c.set("link_bytes_per_item", r.linkBytes)
		c.set("work_units_per_item", r.workUnits)
		c.set("sharing_traffic_ratio", r.ratio)
		c.set("peak_rss_mb", r.rssMB)
		c.set("setup_s", median(r.setupS.norm(c.probe))+r.docgenS.norm(c.probe)[0])
		c.logf("%d timed chunks: lag p50 %.2f ms p90 %.2f ms on the clock, %.2f / %.2f ms at reference speed; late share %.4f, lag slope %.3f ms/s, generator late p99 %.3f ms",
			len(r.lagMs.raw), quantile(r.lagMs.raw, 0.5), quantile(r.lagMs.raw, 0.9), quantile(r.lagMs.norm(c.probe), 0.5), quantile(r.lagMs.norm(c.probe), 0.9),
			r.lateShare, r.lagSlope, quantile(r.genLateMs, 0.99))
		return nil
	}
	plain, err := clusterPass(c, kind, bin, root, false, 1)
	if err != nil {
		return err
	}
	tr, err := clusterPass(c, kind, bin, root, true, 1)
	if err != nil {
		return err
	}
	clusterLedger(c, tr)
	c.set("bench.trace_overhead_ratio", plain.itemsPerS/tr.itemsPerS)
	return kernels(c, root)
}

// clusterPass sets up fresh sgd processes setupReps times (keeping the
// last), feeds them the seed's chunks, times warm subscribe cycles over the
// protocol, stops the processes and checks every reply against a twin
// engine.
func clusterPass(c *runCtx, kind clusterKind, bin string, root span, traced bool, setupReps int) (*clusterResult, error) {
	r := &clusterResult{}
	qs := gridQueries(c.sz.grid, c.sz.queries, gridQuerySeed)
	opts := clusterOpts{bin: bin, grid: c.sz.grid, durable: kind == durableSat, traced: traced}
	seconds := mainShare * c.passSeconds()

	// Set-up: process start, mesh connect, subscriptions — several fresh
	// clusters, the last one kept — then document generation.
	phase := c.phase(root, "setup")
	var cl *cluster
	var ids []string // the kept cluster's subscription ids
	for rep := 0; rep < setupReps; rep++ {
		if cl != nil {
			cl.stop()
		}
		c.probe.sample()
		sp := c.tr.start(phase.span, "cluster.start")
		t0 := time.Now()
		var err error
		if cl, err = startCluster(opts); err != nil {
			return nil, err
		}
		sp.end()
		sp = c.tr.start(phase.span, "server.populate")
		var failed int
		var rtt []time.Duration
		ids, rtt, failed = subscribeAll(c, sp, cl.cl, qs)
		sp.end()
		r.setupS.add(time.Since(t0).Seconds(), c.probe.close())
		c.ops(len(qs), failed)
		r.subscribeRTT = append(r.subscribeRTT, rtt...)
	}
	defer cl.stop()

	// The chunk plan: warm-up, timed chunks, and on traced passes the
	// one-item FEEDs that price a run's fixed cost.
	var plan []chunkRec
	chunk, warm, timed := c.sz.satChunk, c.sz.satWarm, int(math.Ceil(seconds*c.sz.satPerSecond))
	if kind == feedOpen {
		chunk, warm, timed = c.sz.openChunk, c.sz.openWarm, int(math.Ceil(seconds*c.sz.openRate))
	}
	for i := 0; i < warm; i++ {
		plan = append(plan, chunkRec{items: chunk})
	}
	for i := 0; i < timed; i++ {
		plan = append(plan, chunkRec{items: chunk, timed: true})
	}
	if traced {
		for i := 0; i < c.sz.fixedFeeds; i++ {
			plan = append(plan, chunkRec{items: 1})
		}
	}
	sp := c.tr.start(phase.span, "bench.docgen")
	t0 := time.Now()
	docs := make([][]byte, len(plan))
	gen := c.itemGen()
	for i := range plan {
		docs[i] = feedDoc(gen.Generate(plan[i].items))
	}
	r.docgenS.add(time.Since(t0).Seconds(), c.probe.close())
	sp.end()
	phase.end()

	// feed sends chunk i and waits for its reply, as one probe-bracketed
	// block. An ERR reply is a failed operation; a broken connection ends
	// the workload.
	feed := func(parent span, i int) error {
		req := c.tr.request(parent, "chunk")
		rt := c.tr.start(req, "FEED")
		p := &plan[i]
		p.sent = time.Now()
		rep, err := cl.cl.do("FEED "+streamName, docs[i])
		p.replied = time.Now()
		rt.end()
		req.end()
		p.block = c.probe.close()
		if err != nil {
			return fmt.Errorf("chunk %d: %w (%s)", i, err, cl.nodes[0].lastLog())
		}
		p.err, p.counts = rep.err(), rep.counts()
		return nil
	}

	phase = c.phase(root, "warmup")
	for i := 0; i < warm; i++ {
		if err := feed(phase.span, i); err != nil {
			return nil, err
		}
	}
	phase.end()

	if traced {
		for i, n := range cl.nodes {
			v, err := n.vars()
			if err != nil {
				return nil, fmt.Errorf("node %s /debug/vars: %w", n.name, err)
			}
			r.before[i] = v
		}
		c.probe.sample()
	}
	wb0 := cl.writeBytes()

	phase = c.phase(root, "measure")
	last := warm // one past the last timed chunk sent
	if kind == feedOpen {
		if err := openLoop(c, cl, plan[warm:warm+timed], docs[warm:warm+timed]); err != nil {
			return nil, err
		}
		last = warm + timed
		for i := warm; i < last; i++ {
			req := c.tr.requestAt(phase.span, "chunk", plan[i].due, plan[i].replied)
			c.tr.add(req, "FEED", plan[i].sent, plan[i].replied)
		}
	} else {
		// Closed loop for the measuring time; the loop ends early only if
		// the system outran the documents generated for it.
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for ; last < warm+timed && time.Now().Before(deadline); last++ {
			if err := feed(phase.span, last); err != nil {
				return nil, err
			}
		}
	}
	phase.end()
	r.writeBytes = cl.writeBytes() - wb0

	if traced {
		phase = c.phase(root, "fixed-cost")
		for i := warm + timed; i < len(plan); i++ {
			if err := feed(phase.span, i); err != nil {
				return nil, err
			}
			r.fixedMs = append(r.fixedMs, durMs(plan[i].replied.Sub(plan[i].sent)))
		}
		phase.end()
		for i, n := range cl.nodes {
			v, err := n.vars()
			if err != nil {
				return nil, fmt.Errorf("node %s /debug/vars: %w", n.name, err)
			}
			r.after[i] = v
		}
		if rep, err := cl.cl.do("NODES", nil); err == nil {
			for _, l := range rep.lines {
				if _, v, ok := strings.Cut(l, "reconnects="); ok {
					var n float64
					fmt.Sscan(v, &n) //nolint:errcheck // a malformed line leaves 0
					r.reconnects += n
				}
			}
		}
	}

	// Warm control plane over the wire: subscribe+unsubscribe round trips
	// against the populated cluster, each mirrored to the other node.
	phase = c.phase(root, "cycles")
	r.cycles = wireCycles(c, phase.span, cl.cl, qs, c.deadline(cycleShare))
	phase.end()
	c.ops(2*len(r.cycles.sub)+2*r.cycles.failed, r.cycles.failed)
	if traced {
		v, err := cl.nodes[0].vars()
		if err != nil {
			return nil, fmt.Errorf("node n0 /debug/vars: %w", err)
		}
		r.ctl = v.Streamshare.Delta(r.after[0].Streamshare)
		r.ctlMallocs = float64(v.Memstats.Mallocs-r.after[0].Memstats.Mallocs) / float64(max(len(r.cycles.sub), 1))
	}

	// Population over the wire: the running cluster is emptied and the plan
	// set registered again, round after round, each round one block. (The
	// first population of each fresh cluster is part of setup_s.)
	phase = c.phase(root, "populate")
	var err error
	if r.populateMs, err = wirePopulations(c, phase.span, cl.cl, qs, ids, c.deadline(populateShare)); err != nil {
		return nil, err
	}
	phase.end()

	r.rssMB = cl.peakRSSMB()
	cl.cl.close()
	for _, n := range cl.nodes {
		stopProc(n.cmd)
	}
	if traced && cl.dataDir != "" {
		r.reopenMs = reopenJournals(cl.dataDir)
	}
	cl.stop()

	// Lag and throughput over the timed chunks that were sent.
	var dueS []float64
	late := 0
	var first, lastReply time.Time
	for i := warm; i < last; i++ {
		p := &plan[i]
		from := p.sent
		if kind == feedOpen {
			from = p.due
			r.genLateMs = append(r.genLateMs, durMs(p.sent.Sub(p.due)))
		}
		lag := durMs(p.replied.Sub(from))
		r.lagMs.add(lag, p.block)
		dueS = append(dueS, from.Sub(plan[warm].sent).Seconds())
		if p.err != nil || lag > c.sz.lateLimitMs {
			late++
		}
		if first.IsZero() {
			first = from
		}
		lastReply = p.replied
		r.items += p.items
	}
	if len(r.lagMs.raw) == 0 {
		return nil, fmt.Errorf("no timed chunk was sent")
	}
	r.lagSlope = slope(dueS, r.lagMs.raw)
	r.lateShare = float64(late) / float64(len(r.lagMs.raw))
	if kind == feedOpen {
		// Open loop: what was fed over the time it took, on the clock — the
		// offered rate when the system keeps up. A backlog that grows means
		// it does not: the run says so, and every chunk counts as late.
		r.itemsPerS = float64(r.items) / lastReply.Sub(first).Seconds()
		if r.lagSlope > 1 {
			r.lateShare = 1
			c.logf("UNSUSTAINED: lag grows %.2f ms per second of run", r.lagSlope)
		}
	} else {
		// Closed loop: items over the median chunk's service time.
		r.itemsPerS = float64(chunk) / (median(r.lagMs.norm(c.probe)) / 1000)
	}

	// Correctness: every reply against the twin engine, chunk by chunk.
	phase = c.phase(root, "reference")
	if err := verifyChunks(c, phase.span, r, qs, plan); err != nil {
		return nil, err
	}
	if r.ratio, err = modelRatio(c.sz.grid, qs, c.itemGen().Generate(c.sz.ratioItems)); err != nil {
		return nil, err
	}
	phase.end()
	for _, p := range plan[warm:] {
		if !p.sent.IsZero() {
			r.runs++
			r.snapItems += p.items
		}
	}
	return r, nil
}

// openLoop sends the chunks on the fixed schedule from a writer goroutine
// while a reader goroutine takes the replies. The writer never waits for a
// reply, so a slow system does not slow the offered load. The reader takes
// a probe sample in the schedule's idle gap after a reply — never while a
// chunk is due — so each chunk is bracketed by the samples before and after.
func openLoop(c *runCtx, cl *cluster, plan []chunkRec, docs [][]byte) error {
	interval := time.Duration(float64(time.Second) / c.sz.openRate)
	c.probe.sample()
	start := time.Now().Add(20 * time.Millisecond)
	for i := range plan {
		plan[i].due = start.Add(time.Duration(i) * interval)
	}
	var werr, rerr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range plan {
			if d := time.Until(plan[i].due); d > 0 {
				time.Sleep(d)
			}
			plan[i].sent = time.Now()
			if werr = cl.cl.send("FEED "+streamName, docs[i]); werr != nil {
				cl.cl.close() // unblocks the reader
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := range plan {
			before := c.probe.last()
			rep, err := cl.cl.recv(replyTimeout)
			if err != nil {
				rerr = fmt.Errorf("chunk %d: %w (%s)", i, err, cl.nodes[0].lastLog())
				cl.cl.close() // unblocks the writer
				return
			}
			plan[i].replied = time.Now()
			plan[i].err, plan[i].counts = rep.err(), rep.counts()
			if i+1 == len(plan) || time.Until(plan[i+1].due) > interval/3 {
				c.probe.sample()
			}
			plan[i].block = bracket{before, c.probe.last()}
		}
	}()
	wg.Wait()
	if werr != nil {
		return werr
	}
	return rerr
}

// subscribeAll registers every query over the protocol and returns the ids,
// each round trip's time, and how many failed.
func subscribeAll(c *runCtx, parent span, cl *lineClient, qs []query) (ids []string, rtt []time.Duration, failed int) {
	for _, q := range qs {
		req := c.tr.request(parent, "SUBSCRIBE")
		t0 := time.Now()
		id, err := cl.subscribe(q)
		rtt = append(rtt, time.Since(t0))
		req.end()
		if err != nil {
			c.logf("subscribe: %v", err)
			failed++
			continue
		}
		ids = append(ids, id)
	}
	return ids, rtt, failed
}

// wirePopulations empties the cluster of the subscriptions ids and then,
// until the deadline, registers the whole plan set and removes it again;
// each registration is one probe-bracketed block. No FEED may follow: the
// twin engine does not replay these rounds.
func wirePopulations(c *runCtx, parent span, cl *lineClient, qs []query, ids []string, deadline time.Time) (timings, error) {
	var out timings
	remove := func(ids []string) (failed int, err error) {
		for _, id := range ids {
			rep, err := cl.do("UNSUBSCRIBE "+id, nil)
			if err != nil {
				return failed, err
			}
			if rep.err() != nil {
				failed++
			}
		}
		return failed, nil
	}
	for len(out.raw) == 0 || time.Now().Before(deadline) {
		removed := len(ids)
		failed, err := remove(ids)
		if err != nil {
			return out, err
		}
		c.probe.sample()
		sp := c.tr.start(parent, "server.populate")
		t0 := time.Now()
		var subFailed int
		ids, _, subFailed = subscribeAll(c, sp, cl, qs)
		took := time.Since(t0)
		sp.end()
		out.add(durMs(took), c.probe.close())
		c.ops(removed+len(qs), failed+subFailed)
	}
	return out, nil
}

// wireCycles times SUBSCRIBE+UNSUBSCRIBE round trips over the protocol, in
// probe-bracketed blocks.
func wireCycles(c *runCtx, parent span, cl *lineClient, qs []query, deadline time.Time) *cycleStats {
	st := &cycleStats{}
	c.probe.sample()
	from, took := 0, time.Duration(0)
	for i := 0; ; i++ {
		if i > 0 && i%c.sz.wireBlock == 0 {
			st.closeBlock(from, took, c.probe.close())
			from, took = len(st.sub), 0
			if time.Now().After(deadline) {
				break
			}
		}
		q := qs[i%len(qs)]
		cyc := c.tr.request(parent, "cycle")
		sp := c.tr.start(cyc, "SUBSCRIBE")
		t0 := time.Now()
		id, err := cl.subscribe(q)
		t1 := time.Now()
		sp.end()
		if err != nil {
			st.failed++
			cyc.end()
			continue
		}
		sp = c.tr.start(cyc, "UNSUBSCRIBE")
		rep, err := cl.do("UNSUBSCRIBE "+id, nil)
		t2 := time.Now()
		sp.end()
		cyc.end()
		if err == nil {
			err = rep.err()
		}
		if err != nil {
			st.failed++
		}
		st.sub = append(st.sub, t1.Sub(t0))
		st.unsub = append(st.unsub, t2.Sub(t1))
		took += t2.Sub(t0)
	}
	if len(st.sub) > from {
		st.closeBlock(from, took, c.probe.close())
	}
	return st
}

// verifyChunks replays every chunk that was sent through twin engines and
// compares per-subscription result counts. Chunks are independent of each
// other — a run flushes all window state — so two twins share the work;
// each regenerates the whole item stream (cheap) and simulates every other
// chunk (not cheap). The twin's modelled traffic and work also give the
// workload's link_bytes_per_item and work_units_per_item.
func verifyChunks(c *runCtx, parent span, r *clusterResult, qs []query, plan []chunkRec) error {
	type tally struct {
		attempted, failed, items, results int
		bytes, work                       float64
		simNs                             int64
		err                               error
	}
	const workers = 2
	lastSent := 0 // documents generated past it were never sent
	for i := range plan {
		if !plan[i].sent.IsZero() {
			lastSent = i
		}
	}
	var tallies [workers]tally
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			sp := c.tr.start(parent, "core.Simulate")
			defer sp.end()
			eng, err := populatedEngine(c.sz.grid, qs, core.StreamSharing, core.Config{})
			if err != nil {
				t.err = err
				return
			}
			gen := c.itemGen()
			for i := 0; i <= lastSent; i++ {
				items := gen.Generate(plan[i].items)
				if plan[i].sent.IsZero() || i%workers != w {
					continue
				}
				t.attempted++
				t0 := time.Now()
				res, err := eng.Simulate(feedOf(items), false)
				if err != nil {
					t.err = err
					return
				}
				if plan[i].timed {
					t.simNs += time.Since(t0).Nanoseconds()
					t.items += len(items)
					t.results += sumCounts(res.Results)
					t.bytes += res.Metrics.TotalBytes()
					t.work += res.Metrics.TotalWork()
				}
				if plan[i].err != nil {
					c.logf("chunk %d: %v", i, plan[i].err)
					t.failed++
				} else if bad := countMismatches(plan[i].counts, res.Results); bad > 0 {
					c.logf("chunk %d: %d subscription(s) differ from the reference", i, bad)
					t.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	var sum tally
	for _, t := range tallies {
		if t.err != nil {
			return t.err
		}
		sum.attempted += t.attempted
		sum.failed += t.failed
		sum.items += t.items
		sum.results += t.results
		sum.bytes += t.bytes
		sum.work += t.work
		sum.simNs += t.simNs
	}
	c.ops(sum.attempted, sum.failed)
	if sum.items == 0 {
		return fmt.Errorf("no timed chunk to verify")
	}
	r.linkBytes = sum.bytes / float64(sum.items)
	r.workUnits = sum.work / float64(sum.items)
	r.simNsPerItem = float64(sum.simNs) / float64(sum.items)
	r.resultsPerItem = float64(sum.results) / float64(sum.items)
	return nil
}

// reopenJournals opens every journal the stopped processes left under dir
// and returns the total time recovery took, in ms.
func reopenJournals(dir string) float64 {
	var total time.Duration
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil || !d.IsDir() {
			return nil
		}
		if segs, _ := filepath.Glob(filepath.Join(path, "*.wal")); len(segs) == 0 {
			return nil
		}
		t0 := time.Now()
		w, _, err := durable.Open(durable.Options{Dir: path, Sync: durable.SyncNone})
		if err == nil {
			total += time.Since(t0)
			w.Close() //nolint:errcheck // read-only visit of a dead process's journal
		}
		return nil
	})
	return durMs(total)
}

// nodeDeltas differences the two nodes' registries over the traced chunks.
type nodeDeltas [2]obs.Snapshot

func (d nodeDeltas) counter(name string) float64 {
	return d[0].Counters[name] + d[1].Counters[name]
}

// hist merges one histogram's growth over both nodes.
func (d nodeDeltas) hist(name string) obs.HistogramSnapshot {
	a, b := d[0].Histograms[name], d[1].Histograms[name]
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 || len(a.Counts) != len(b.Counts) {
		return a
	}
	m := obs.HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum,
		Min: math.Min(a.Min, b.Min), Max: math.Max(a.Max, b.Max),
		Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts))}
	for i := range m.Counts {
		m.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return m
}

// gaugeGrowth sums, over both nodes, the growth of every cumulative gauge
// transport.link.<remote>.<suffix>.
func gaugeGrowth(r *clusterResult, suffix string) float64 {
	total := 0.0
	for i := range r.after {
		for name, v := range r.after[i].Streamshare.Gauges {
			if strings.HasPrefix(name, "transport.link.") && strings.HasSuffix(name, suffix) {
				total += v - r.before[i].Streamshare.Gauges[name]
			}
		}
	}
	return total
}

// clusterLedger turns the traced pass's differenced snapshots into the
// run-derived per-layer metrics.
func clusterLedger(c *runCtx, r *clusterResult) {
	var d nodeDeltas
	for i := range d {
		d[i] = r.after[i].Streamshare.Delta(r.before[i].Streamshare)
	}
	items := float64(r.snapItems)
	runtimeLedger(c, d.hist, d.counter, items)
	hwm := 0.0
	var mallocs, bytes, pause float64
	for i := range r.after {
		for name, v := range r.after[i].Streamshare.Gauges {
			if strings.HasPrefix(name, "runtime.mailbox.hwm.") {
				hwm = math.Max(hwm, v)
			}
		}
		mallocs += float64(r.after[i].Memstats.Mallocs - r.before[i].Memstats.Mallocs)
		bytes += float64(r.after[i].Memstats.TotalAlloc - r.before[i].Memstats.TotalAlloc)
		pause += float64(r.after[i].Memstats.PauseTotalNs-r.before[i].Memstats.PauseTotalNs) / 1e6
	}
	c.set("runtime.mailbox_hwm_items", hwm)
	c.set("runtime.allocs_per_item", mallocs/items)
	c.set("runtime.alloc_bytes_per_item", bytes/items)
	c.set("runtime.gc_pause_ms", pause)

	c.set("wire.run_encode_ms", d.hist("wire.encode.seconds").Sum*1000)
	c.set("wire.run_decode_ms", d.hist("wire.decode.seconds").Sum*1000)
	c.set("transport.sock_bytes_per_item", gaugeGrowth(r, ".bytes.sent")/items)
	c.set("transport.frames_per_item", gaugeGrowth(r, ".frames.sent")/items)
	c.set("transport.replayed_frames", gaugeGrowth(r, ".replayed"))
	c.set("transport.reconnects", r.reconnects)

	c.set("durable.appends_per_item", d.counter("durable.appends")/items)
	c.set("durable.journal_bytes_per_item", r.writeBytes/float64(r.items))
	c.set("durable.compactions_per_run", d.counter("durable.compactions")/float64(max(r.runs, 1)))
	c.set("durable.reopen_ms", r.reopenMs)

	c.set("server.subscribe_rtt_p50_ms", median(durs(r.subscribeRTT, time.Millisecond)))
	c.set("server.feed_fixed_ms", median(r.fixedMs))
	c.set("server.feed_lag_p90_ms", quantile(r.lagMs.raw, 0.9))
	c.set("server.feed_lag_p99_ms", quantile(r.lagMs.raw, 0.99))

	controlLedger(c, r.ctl, r.cycles, r.ctlMallocs)
	c.set("core.simulate_ns_per_item", r.simNsPerItem)
	c.set("exec.results_per_item", r.resultsPerItem)

	c.set("bench.gen_late_p99_ms", quantile(r.genLateMs, 0.99))
	c.set("bench.lag_slope_ms_per_s", r.lagSlope)
	c.set("bench.late_share", r.lateShare)
}
