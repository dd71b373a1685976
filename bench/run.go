package main

import (
	"fmt"
	"os"
	grt "runtime"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/photons"
	"streamshare/internal/xmlstream"
)

// sizes are the workload shapes. defaultSizes is what BENCHMARK.json's
// numbers are measured with; the smoke test shrinks them.
type sizes struct {
	grid         int     // side of the data workloads' grid
	queries      int     // their query count
	inprocItems  int     // items per in-process Run
	satChunk     int     // items per FEED document, saturation workloads
	satWarm      int     // untimed leading chunks
	satPerSecond float64 // documents generated per measured second (the loop stops early if they run out)
	openChunk    int     // items per FEED document, open loop
	openRate     float64 // documents per second
	openWarm     int     // untimed closed-loop chunks before the schedule starts
	lateLimitMs  float64 // open-loop latency limit
	churnGrid    int
	churnQueries int
	simChunk     int // items per simulator chunk over the churn engine
	simMax       int // at most this many chunks (the loop is timed)
	checkItems   int // items simulated after the churn, churned engine against twin
	setupReps    int // fresh systems set up per run; setup_s is the median over them
	cycleBlock   int // engine cycles per probe-bracketed block
	wireBlock    int // wire cycles per probe-bracketed block
	ratioItems   int // stream prefix both strategies are simulated over
	fixedFeeds   int // one-item FEEDs for server.feed_fixed_ms (traced runs)
}

func defaultSizes() sizes {
	return sizes{
		grid: 4, queries: 32,
		inprocItems: 10_000,
		satChunk:    1024, satWarm: 8, satPerSecond: 24,
		openChunk: 256, openRate: 20, openWarm: 10, lateLimitMs: 100,
		churnGrid: 6, churnQueries: 256, simChunk: 100, simMax: 400, checkItems: 1000,
		setupReps: 5, cycleBlock: 512, wireBlock: 100,
		ratioItems: 4096, fixedFeeds: 50,
	}
}

// runCtx carries one workload run's parameters and collects its results.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes
	tr       *tracer // nil unless traced
	probe    *prober

	m         map[string]float64
	phases    []string // wall-time breakdown, logged when the run ends
	attempted int
	failed    int
}

func (c *runCtx) set(name string, v float64) { c.m[name] = v }

// zero records that a layer did no work on this workload.
func (c *runCtx) zero(names ...string) {
	for _, n := range names {
		c.m[n] = 0
	}
}

// ops counts operations attempted and how many of them failed: ERR replies,
// errors, timeouts, and every result that differs from the reference.
func (c *runCtx) ops(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

// phase is a top-level stretch of a workload: a span when tracing, and a
// line in the run's wall-time breakdown either way.
type phase struct {
	span
	c    *runCtx
	name string
	t0   time.Time
}

func (c *runCtx) phase(root span, name string) phase {
	return phase{span: c.tr.start(root, name), c: c, name: name, t0: time.Now()}
}

func (p phase) end() {
	p.span.end()
	p.c.phases = append(p.c.phases, fmt.Sprintf("%s %.1fs", p.name, time.Since(p.t0).Seconds()))
}

func (c *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "  ["+c.workload+"] "+format+"\n", args...)
}

// passSeconds is how long a pass measures: the whole of -seconds untraced;
// a traced invocation splits it between an untraced pass (the base of
// bench.trace_overhead_ratio), the traced pass and the kernels.
func (c *runCtx) passSeconds() float64 {
	if c.traced {
		return c.seconds / 3
	}
	return c.seconds
}

// A pass splits its seconds between the workload's own loop and the loops
// behind its secondary metrics. Data workloads: feeding, warm subscribe
// cycles, cold populations. subscribe-churn: cycles, the simulator, cold
// populations.
const (
	mainShare       = 0.7
	cycleShare      = 0.2
	populateShare   = 0.1
	churnCycleShare = 0.65
	churnSimShare   = 0.25
)

// deadline is now plus a share of the pass's seconds.
func (c *runCtx) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * c.passSeconds() * float64(time.Second)))
}

// itemGen returns the run's item generator: the same seed gives the same
// stream, and chunk k is always the k-th slice of it.
func (c *runCtx) itemGen() *photons.Generator {
	return photons.NewGenerator(photons.DefaultConfig(), c.seed)
}

// timings is a sequence of probe-bracketed blocks: raw keeps what the clock
// said, norm gives the same blocks at reference speed (see probe.go).
type timings struct {
	raw []float64
	at  []bracket
}

func (t *timings) add(v float64, b bracket) {
	t.raw = append(t.raw, v)
	t.at = append(t.at, b)
}

func (t *timings) norm(p *prober) []float64 {
	out := make([]float64, len(t.raw))
	for i, v := range t.raw {
		out[i] = v * p.scale(t.at[i])
	}
	return out
}

// modelRatio simulates items under stream sharing and under data shipping,
// on twin engines carrying the same queries, and returns sharing's modelled
// link bytes over data shipping's — the paper's traffic claim as one number.
func modelRatio(grid int, qs []query, items []*xmlstream.Element) (float64, error) {
	var bytes [2]float64
	for i, strat := range []core.Strategy{core.StreamSharing, core.DataShipping} {
		eng, err := populatedEngine(grid, qs, strat, core.Config{})
		if err != nil {
			return 0, err
		}
		res, err := eng.Simulate(feedOf(items), false)
		if err != nil {
			return 0, err
		}
		bytes[i] = res.Metrics.TotalBytes()
	}
	if bytes[1] == 0 {
		return 0, fmt.Errorf("data shipping moved no bytes")
	}
	return bytes[0] / bytes[1], nil
}

// cycleStats is what timed subscribe+unsubscribe cycles give. Cycles run in
// probe-bracketed blocks; perCycle holds each block's seconds per cycle.
type cycleStats struct {
	sub, unsub []time.Duration // per call, as the clock said (the ledger's percentiles)
	perCycle   timings
	failed     int
}

// subsPerS is cycles per second at reference speed, median over blocks.
func (s *cycleStats) subsPerS(p *prober) float64 {
	if len(s.perCycle.raw) == 0 {
		return 0
	}
	return 1 / median(s.perCycle.norm(p))
}

// closeBlock records the block of cycles done since the last one ended.
func (s *cycleStats) closeBlock(from int, took time.Duration, b bracket) {
	if n := len(s.sub) - from; n > 0 && took > 0 {
		s.perCycle.add(took.Seconds()/float64(n), b)
	}
}

// engineCycles runs subscribe+unsubscribe cycles against a populated
// engine, query order given by pick, until n cycles are done or the
// deadline passes (zero deadline: no limit). A nil tracer records no spans;
// a nil prober leaves the cycles unscaled (warm-up passes).
func engineCycles(c *runCtx, tr *tracer, pr *prober, parent span, eng *core.Engine, qs []query, pick func(i int) int, n int, deadline time.Time) *cycleStats {
	st := &cycleStats{}
	if pr != nil {
		pr.sample()
	}
	from, took := 0, time.Duration(0)
	for i := 0; i < n; i++ {
		if i > 0 && i%c.sz.cycleBlock == 0 {
			if pr != nil {
				st.closeBlock(from, took, pr.close())
			}
			from, took = len(st.sub), 0
			if !deadline.IsZero() && time.Now().After(deadline) {
				break
			}
		}
		q := qs[pick(i)]
		cyc := tr.request(parent, "cycle")
		sp := tr.start(cyc, "core.Subscribe")
		t0 := time.Now()
		sub, err := eng.Subscribe(q.src, q.target, core.StreamSharing)
		t1 := time.Now()
		sp.end()
		if err != nil {
			st.failed++
			cyc.end()
			continue
		}
		sp = tr.start(cyc, "core.Unsubscribe")
		err = eng.Unsubscribe(sub.ID)
		t2 := time.Now()
		sp.end()
		cyc.end()
		if err != nil {
			st.failed++
		}
		st.sub = append(st.sub, t1.Sub(t0))
		st.unsub = append(st.unsub, t2.Sub(t1))
		took += t2.Sub(t0)
	}
	if pr != nil && len(st.sub) > from {
		st.closeBlock(from, took, pr.close())
	}
	return st
}

// cycleAllocs counts heap allocations per subscribe+unsubscribe cycle over
// one block of cycles with no probe and no span in between.
func cycleAllocs(c *runCtx, eng *core.Engine, qs []query, pick func(i int) int) float64 {
	var m0, m1 grt.MemStats
	grt.ReadMemStats(&m0)
	st := engineCycles(c, nil, nil, span{}, eng, qs, pick, c.sz.cycleBlock, time.Time{})
	grt.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(max(len(st.sub), 1))
}

// ownPeakRSSMB is this process's resident-set high-water mark.
func ownPeakRSSMB() float64 { return peakRSSMB(os.Getpid()) }
