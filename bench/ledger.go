package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	grt "runtime"
	"strings"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/exec"
	"streamshare/internal/obs"
	"streamshare/internal/predicate"
	"streamshare/internal/properties"
	"streamshare/internal/runtime"
	"streamshare/internal/transport"
	"streamshare/internal/wire"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// The per-layer ledger has two kinds of entries. Run metrics come from the
// traced pass of the workload itself: the program's own counters and
// histograms, differenced around the measured chunks. Kernel metrics time
// calls into one layer's exported functions on inputs taken from the
// workload's items and queries; they do not depend on which workload runs
// them, and every workload reports them so that one traced run of any
// workload is a complete ledger.

// Run metrics of layers a workload bypasses are reported as 0: the layer
// did no work there.
var (
	// runtimeRunMetrics need a distributed run.
	runtimeRunMetrics = []string{
		"runtime.stage_batch_p50_us", "runtime.stage_send_p50_us", "runtime.stage_queue_p50_us",
		"runtime.stage_parse_p50_us", "runtime.stage_eval_p50_us", "runtime.stage_deliver_p50_us",
		"runtime.queue_p99_ms", "runtime.compute_p99_ms", "runtime.mailbox_hwm_items",
		"runtime.batch_size_mean", "runtime.messages_per_item", "runtime.parse_skipped_share",
		"runtime.allocs_per_item", "runtime.alloc_bytes_per_item", "runtime.gc_pause_ms",
	}
	// boundaryRunMetrics need a second process: codec, sockets, journal,
	// line protocol, and the open-loop generator's own health.
	boundaryRunMetrics = []string{
		"wire.run_encode_ms", "wire.run_decode_ms",
		"transport.sock_bytes_per_item", "transport.frames_per_item", "transport.replayed_frames", "transport.reconnects",
		"durable.appends_per_item", "durable.journal_bytes_per_item", "durable.compactions_per_run", "durable.reopen_ms",
		"server.subscribe_rtt_p50_ms", "server.feed_fixed_ms", "server.feed_lag_p90_ms", "server.feed_lag_p99_ms",
		"bench.gen_late_p99_ms", "bench.lag_slope_ms_per_s", "bench.late_share",
	}
)

// runtimeLedger reads the distributed runtime's own series: the sampled
// provenance-span stage histograms (1 in 16 on traced passes), batch sizes
// and message counts.
func runtimeLedger(c *runCtx, hist func(string) obs.HistogramSnapshot, counter func(string) float64, items float64) {
	for _, st := range []string{"batch", "send", "queue", "parse", "eval", "deliver"} {
		c.set("runtime.stage_"+st+"_p50_us", hist("latency.stage."+st).Quantile(0.5)*1e6)
	}
	c.set("runtime.queue_p99_ms", hist("latency.queue").Quantile(0.99)*1000)
	c.set("runtime.compute_p99_ms", hist("latency.compute").Quantile(0.99)*1000)
	batches := hist("runtime.batch.size")
	c.set("runtime.batch_size_mean", batches.Mean())
	c.set("runtime.messages_per_item", counter("runtime.messages")/items)
	share := 0.0
	if batches.Sum > 0 {
		share = counter("runtime.parse.skipped") / batches.Sum
	}
	c.set("runtime.parse_skipped_share", share)
}

// controlLedger reads the planner's counters over a stretch of warm
// subscribe+unsubscribe cycles.
func controlLedger(c *runCtx, d obs.Snapshot, cyc *cycleStats, allocsPerCycle float64) {
	ratio := func(hit, miss string) float64 {
		h, m := d.Counters[hit], d.Counters[miss]
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	installed := max(d.Counters["core.subscribe.installed"], 1)
	c.set("plan.cache_match_hit_ratio", ratio("plan.cache.match.hit", "plan.cache.match.miss"))
	c.set("plan.cache_route_hit_ratio", ratio("plan.cache.route.hit", "plan.cache.route.miss"))
	c.set("plan.candidates_per_sub", d.Counters["core.discovery.candidates"]/installed)
	c.set("core.discovery_visited_per_sub", d.Counters["core.discovery.visited"]/installed)
	c.set("core.control_messages_per_sub", d.Counters["core.control.messages"]/installed)
	c.set("core.subscribe_p50_us", median(durs(cyc.sub, time.Microsecond)))
	c.set("core.subscribe_p99_us", quantile(durs(cyc.sub, time.Microsecond), 0.99))
	c.set("core.unsubscribe_p50_us", median(durs(cyc.unsub, time.Microsecond)))
	c.set("core.subscribe_allocs_per_op", allocsPerCycle)
}

// kernelRounds is how many times each kernel is timed; the median is kept.
const kernelRounds = 3

// kernelCount is the number of timed kernels; each gets an equal share of
// the pass's seconds.
const kernelCount = 20

// kernelRunner times calls into single layers.
type kernelRunner struct {
	c      *runCtx
	parent span
	round  time.Duration // how long one round of one kernel runs
}

// measure times fn, which performs ops operations per call, and returns
// the median over the rounds of ns per operation and allocations per
// operation.
func (k *kernelRunner) measure(name string, ops int, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches and pools
	var ns, allocs []float64
	var m0, m1 grt.MemStats
	for r := 0; r < kernelRounds; r++ {
		sp := k.c.tr.start(k.parent, name)
		grt.ReadMemStats(&m0)
		calls := 0
		t0 := time.Now()
		for calls == 0 || time.Since(t0) < k.round {
			fn()
			calls++
		}
		el := time.Since(t0)
		grt.ReadMemStats(&m1)
		sp.end()
		n := float64(calls * ops)
		ns = append(ns, float64(el.Nanoseconds())/n)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
	}
	return median(ns), median(allocs)
}

// kernels fills the kernel half of the ledger.
func kernels(c *runCtx, root span) error {
	phase := c.phase(root, "kernels")
	defer phase.end()
	k := &kernelRunner{c: c, parent: phase.span,
		round: time.Duration(c.passSeconds() / kernelCount / kernelRounds * float64(time.Second))}
	items := c.itemGen().Generate(1024)
	qs := gridQueries(c.sz.grid, c.sz.queries, gridQuerySeed)
	if c.workload == "subscribe-churn" {
		qs = gridQueries(c.sz.churnGrid, c.sz.churnQueries, churnQuerySeed)
	}
	n := len(items)

	// xmlstream: the document decoder a FEED pays on every node, the
	// canonical fast parser and serializer, and the size function metering
	// uses on tree batches.
	doc := feedDoc(items)
	ns, allocs := k.measure("xmlstream.Decoder", n, func() {
		dec := xmlstream.NewDecoder(bytes.NewReader(doc)).ConvertAttributes()
		for {
			if _, err := dec.Next(); err != nil {
				break
			}
		}
	})
	c.set("xmlstream.decode_ns_per_item", ns)
	c.set("xmlstream.decode_allocs_per_item", allocs)
	raw := make([][]byte, n)
	total := 0
	for i, it := range items {
		raw[i] = xmlstream.AppendMarshal(nil, it)
		total += len(raw[i])
	}
	c.set("xmlstream.item_bytes", float64(total)/float64(n))
	ns, _ = k.measure("xmlstream.UnmarshalBytes", n, func() {
		for _, b := range raw {
			xmlstream.UnmarshalBytes(b) //nolint:errcheck // bytes this program just marshalled
		}
	})
	c.set("xmlstream.unmarshal_ns_per_item", ns)
	var buf []byte
	ns, _ = k.measure("xmlstream.AppendMarshal", n, func() {
		for _, it := range items {
			buf = xmlstream.AppendMarshal(buf[:0], it)
		}
	})
	c.set("xmlstream.marshal_ns_per_item", ns)
	sink := 0
	ns, _ = k.measure("xmlstream.MarshalSize", n, func() {
		for _, it := range items {
			sink += xmlstream.MarshalSize(it)
		}
	})
	c.set("xmlstream.marshalsize_ns_per_item", ns)

	// exec: one full pipeline per query template, and one residual
	// pipeline deriving a query from a stream another query deployed.
	inputs, err := queryInputs(qs)
	if err != nil {
		return err
	}
	for _, t := range []struct{ tag, metric string }{{"<sel>", "sel"}, {"<proj>", "proj"}, {"<agg_en>", "agg"}} {
		qi := firstWith(inputs, t.tag)
		if qi == nil {
			return fmt.Errorf("no %s query in the workload's set", t.tag)
		}
		ns, allocs = k.measure("exec.FullPipeline."+t.metric, n, func() {
			pl, err := exec.FullPipeline(qi.q, qi.in, nil)
			if err != nil {
				return
			}
			for _, it := range items {
				pl.Process(it)
			}
			pl.Flush()
		})
		c.set("exec."+t.metric+"_ns_per_item", ns)
		if t.metric != "proj" {
			c.set("exec."+t.metric+"_allocs_per_item", allocs)
		}
	}
	reused, sub := residualPair(inputs)
	if reused == nil {
		return fmt.Errorf("no query in the set can be derived from another")
	}
	shared := exec.CanonicalPipeline(reused.in, nil).Run(items)
	if len(shared) == 0 {
		return fmt.Errorf("the reused stream carries no item")
	}
	ns, _ = k.measure("exec.ResidualPipeline", len(shared), func() {
		pl, err := exec.ResidualPipeline(reused.in, sub.in, nil)
		if err != nil {
			return
		}
		for _, it := range shared {
			pl.Process(it)
		}
		pl.Flush()
	})
	c.set("exec.residual_ns_per_item", ns)

	// runtime: the same plan under the reliability contract — sequenced
	// acked session channels — on a feed small enough for a kernel.
	small := feedOf(c.itemGen().Generate(4 * n))
	gq := gridQueries(c.sz.grid, c.sz.queries, gridQuerySeed)
	ns, _ = k.measure("runtime.Run.reliable", 4*n, func() {
		eng, err := populatedEngine(c.sz.grid, gq, core.StreamSharing, core.Config{Reliable: true})
		if err != nil {
			return
		}
		opts := runtime.DefaultOptions()
		opts.Session = runtime.NewSession(runtime.SessionOptions{})
		runtime.NewWith(eng, false, opts).Run(small) //nolint:errcheck // timing only; correctness is the workloads' job
	})
	c.set("runtime.reliable_ns_per_item", ns)

	// wire: the binary codec on 64-item tree batches, dictionaries seeded
	// with the schema as a link handshake does.
	names := schemaNames()
	const batch = 64
	enc := wire.NewBinaryEncoder()
	enc.SeedShared(names)
	var payloads [][]byte
	var wireBytes int
	ns, _ = k.measure("wire.EncodeElems", n, func() {
		payloads = payloads[:0]
		wireBytes = 0
		for lo := 0; lo < n; lo += batch {
			p := enc.EncodeElems(nil, items[lo:min(lo+batch, n)])
			payloads = append(payloads, p)
			wireBytes += len(p)
		}
	})
	c.set("wire.bin_encode_ns_per_item", ns)
	c.set("wire.bin_bytes_per_item", float64(wireBytes)/float64(n))
	c.set("wire.xml_bytes_per_item", float64(total)/float64(n))
	dec := wire.NewBinaryDecoder()
	dec.SeedShared(names)
	ns, allocs = k.measure("wire.DecodeElems", n, func() {
		for _, p := range payloads {
			dec.DecodeElems(p) //nolint:errcheck // payloads this program just encoded
		}
	})
	c.set("wire.bin_decode_ns_per_item", ns)
	c.set("wire.bin_decode_allocs_per_item", allocs)

	// transport: framing one 64-item binary batch, and a frame's round
	// trip over a loopback TCP connection.
	frame := &transport.Frame{Type: transport.FrameBatchBin, Seq: 1, Stream: "q1/photons", Hop: 1, Data: payloads[0]}
	var fb []byte
	ns, _ = k.measure("transport.AppendFrame", 1, func() { fb = transport.AppendFrame(fb[:0], frame) })
	c.set("transport.frame_encode_ns", ns)
	ns, _ = k.measure("transport.DecodeFrame", 1, func() {
		transport.DecodeFrame(fb) //nolint:errcheck // a frame this program just encoded
	})
	c.set("transport.frame_decode_ns", ns)
	rtt, err := tcpRoundTrip(k, fb)
	if err != nil {
		return err
	}
	c.set("transport.tcp_rtt_us", rtt/1000)

	// durable: a 16 kB append without fsync, and the fsync itself.
	out, err := outDir()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "wal-")
	if err != nil {
		return err
	}
	trackDir(dir)
	defer removeDir(dir)
	w, _, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		return err
	}
	head, tail := make([]byte, 16), make([]byte, 16<<10)
	ns, _ = k.measure("durable.AppendPair", 1, func() {
		w.AppendPair(1, head, tail) //nolint:errcheck // a sticky error would show as a failed Close
	})
	c.set("durable.append_ns_per_record", ns)
	ns, _ = k.measure("durable.Sync", 1, func() {
		w.AppendPair(1, head, tail) //nolint:errcheck // gives the fsync something to flush
		w.Sync()                    //nolint:errcheck
	})
	c.set("durable.fsync_p50_us", ns/1000)
	if err := w.Close(); err != nil {
		return fmt.Errorf("durable kernel: %w", err)
	}

	// Control plane: parsing, property building, and matching over all
	// ordered pairs of the workload's queries.
	ns, _ = k.measure("wxquery.Parse", len(qs), func() {
		for _, q := range qs {
			wxquery.Parse(q.src) //nolint:errcheck // generated queries parse
		}
	})
	c.set("wxquery.parse_us_per_query", ns/1000)
	ns, _ = k.measure("properties.Build", len(inputs), func() {
		for _, qi := range inputs {
			properties.Build(qi.q, properties.Options{}) //nolint:errcheck // built once already in queryInputs
		}
	})
	c.set("properties.build_us_per_query", ns/1000)
	pairs, accepted := 0, 0
	ns, _ = k.measure("properties.MatchInput", len(inputs)*len(inputs), func() {
		pairs, accepted = 0, 0
		for _, a := range inputs {
			for _, b := range inputs {
				pairs++
				if properties.MatchInput(a.in, b.in) {
					accepted++
				}
			}
		}
	})
	c.set("properties.match_ns_per_pair", ns)
	c.set("properties.match_accept_ratio", float64(accepted)/float64(pairs))
	var graphs []*predicate.Graph
	for _, qi := range inputs {
		if g := qi.in.Selection(); g != nil {
			graphs = append(graphs, g)
		}
	}
	ns, _ = k.measure("predicate.MatchPredicates", len(graphs)*len(graphs), func() {
		for _, a := range graphs {
			for _, b := range graphs {
				if predicate.MatchPredicates(a, b) {
					sink++
				}
			}
		}
	})
	c.set("predicate.implies_ns_per_pair", ns)
	if sink < 0 { // keeps the kernels' results observable
		c.logf("sink %d", sink)
	}
	// How fast the machine was during this run: what every end-to-end
	// timing was scaled by, relative to probeRefMs.
	c.set("bench.probe_ms", median(c.probe.ms))
	return nil
}

// queryInput is a parsed query with its single input's properties.
type queryInput struct {
	src string
	q   *wxquery.Query
	in  *properties.Input
}

func queryInputs(qs []query) ([]*queryInput, error) {
	out := make([]*queryInput, 0, len(qs))
	for _, q := range qs {
		pq, err := wxquery.Parse(q.src)
		if err != nil {
			return nil, err
		}
		p, err := properties.Build(pq, properties.Options{})
		if err != nil {
			return nil, err
		}
		in, ok := p.SingleInput()
		if !ok {
			return nil, fmt.Errorf("query has %d inputs, want 1", len(p.Inputs))
		}
		out = append(out, &queryInput{src: q.src, q: pq, in: in})
	}
	return out, nil
}

func firstWith(inputs []*queryInput, tag string) *queryInput {
	for _, qi := range inputs {
		if strings.Contains(qi.src, tag) {
			return qi
		}
	}
	return nil
}

// residualPair finds two different queries where the second can be served
// from the first's canonical stream and the derivation compiles.
func residualPair(inputs []*queryInput) (reused, sub *queryInput) {
	for _, a := range inputs {
		for _, b := range inputs {
			if a.src == b.src || !properties.MatchInput(a.in, b.in) {
				continue
			}
			if pl, err := exec.ResidualPipeline(a.in, b.in, nil); err == nil && len(pl.Ops) > 0 {
				return a, b
			}
		}
	}
	return nil, nil
}

// tcpRoundTrip echoes one frame payload over a loopback connection of the
// mesh's TCP transport and returns the median round trip in ns.
func tcpRoundTrip(k *kernelRunner, payload []byte) (float64, error) {
	tr := transport.NewTCP()
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for {
			p, err := conn.ReadFrame()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				echoed <- err
				return
			}
			if err := conn.WriteFrame(p); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		return 0, err
	}
	var rerr error
	ns, _ := k.measure("transport.tcp.roundtrip", 1, func() {
		if err := conn.WriteFrame(payload); err != nil {
			rerr = err
			return
		}
		if _, err := conn.ReadFrame(); err != nil {
			rerr = err
		}
	})
	conn.Close()
	<-echoed // the echo side ends on our close; only our own errors matter
	return ns, rerr
}
