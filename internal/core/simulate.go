package core

import (
	"fmt"

	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/xmlstream"
)

// SimResult holds the measurements of one simulated stream delivery run:
// the raw traffic/work counters and the modeled wall-clock duration used to
// normalize them into the paper's kbps and CPU-% figures.
type SimResult struct {
	Metrics *network.Metrics
	// Duration is the modeled stream duration in seconds (items ÷ source
	// frequency, maximized over sources).
	Duration float64
	// Results counts the result items delivered per subscription id.
	Results map[string]int
	// Collected holds the actual result items per subscription id when
	// collection was requested.
	Collected map[string][]*xmlstream.Element
}

// AvgCPUPercent returns the average CPU load of a peer over the run as a
// percentage of its capacity (Figs. 6 and 7, left).
func (r *SimResult) AvgCPUPercent(net *network.Network, p network.PeerID) float64 {
	if r.Duration <= 0 {
		return 0
	}
	return r.Metrics.PeerWork[p] / r.Duration / net.Peer(p).Capacity * 100
}

// LinkKbps returns the average traffic of a link in kilobits per second
// (Fig. 6, right).
func (r *SimResult) LinkKbps(l network.LinkID) float64 {
	if r.Duration <= 0 {
		return 0
	}
	return r.Metrics.LinkBytes[l] * 8 / 1000 / r.Duration
}

// PeerMbit returns the accumulated incoming plus outgoing traffic of a peer
// in megabits over the whole run (Fig. 7, right).
func (r *SimResult) PeerMbit(p network.PeerID) float64 {
	return r.Metrics.PeerBytes()[p] * 8 / 1e6
}

// Simulate pushes the given items of every original stream through the
// current plan, metering bytes per link and work units per peer, and
// collecting subscription results. collect enables storing the actual result
// items (memory-proportional to output size). Each call runs fresh operator
// instances of the plan: no state carries from one call to the next, and a
// call may overlap catalog mutations and other runs.
//
// Original streams are fed in plan order, each cut into batches of
// exec.BatchSize items — the runtime's default batch — and every batch goes
// down the plan depth-first: a stream's residual runs once per batch, its
// outputs are metered once per route link and relay, and then reach each
// derived stream and reader. A stream's output is consumed before its
// pipeline runs again, as exec.Pipeline.Eval's scratch buffers require.
func (e *Engine) Simulate(items map[string][]*xmlstream.Element, collect bool) (*SimResult, error) {
	p := e.Plan()
	for name := range items {
		if p.Original(name) == nil {
			return nil, fmt.Errorf("core: simulate unknown stream %q", name)
		}
	}
	s := &sim{
		eng:     e,
		res:     &SimResult{Metrics: network.NewMetrics(), Results: map[string]int{}},
		collect: collect,
		lat:     e.obs.Latency,
		inst:    p.Instantiate(),
		dup:     e.Cfg.Model.BLoad["duplicate"],
		links:   make([][]network.LinkID, len(p.Streams)),
	}
	if collect {
		s.res.Collected = map[string][]*xmlstream.Element{}
	}
	// Every route first: a batch reaches streams later in the plan.
	for i, d := range p.Streams {
		s.links[i] = network.PathLinks(d.Route)
	}
	for _, d := range p.Streams {
		its, fed := items[d.Source]
		if !fed || !d.Original {
			continue
		}
		if d.Freq > 0 {
			if dur := float64(len(its)) / d.Freq; dur > s.res.Duration {
				s.res.Duration = dur
			}
		}
		s.feed(d, its)
	}
	// Drain window state in plan order (parents precede children).
	for _, d := range p.Streams {
		if _, fed := items[d.Source]; !fed && d.Original {
			continue
		}
		s.flush(d)
	}
	reg := e.obs.Metrics
	reg.Counter("sim.runs").Inc()
	for _, n := range s.res.Results {
		reg.Counter("sim.results.items").Add(float64(n))
	}
	s.res.Metrics.Publish(reg, "sim")
	return s.res, nil
}

type sim struct {
	eng     *Engine
	res     *SimResult
	collect bool
	lat     *obs.LatencyRecorder
	inst    *Instances
	// dup is the load model's duplication cost per item forked at a tap.
	dup float64
	// links holds each stream's route links by plan index.
	links [][]network.LinkID
}

// feed cuts original stream d's items into source batches and pushes each
// down the plan. The simulator runs the runtime's deterministic span
// sampler, the way the runtime's source batcher does: every sampled item
// starts a span at its feed position, so both backends log identical sample
// sets, and the batch's first span rides it (feeding the same
// per-subscription watermark/lag series — with near-zero lag, since
// delivery here is synchronous).
func (s *sim) feed(d *PlanStream, its []*xmlstream.Element) {
	for lo := 0; lo < len(its); lo += exec.BatchSize {
		batch := its[lo:min(lo+exec.BatchSize, len(its))]
		var sp *obs.Span
		for i := range batch {
			if idx := uint64(lo + i); s.lat.Sampled(d.Source, idx) {
				if started := s.lat.Start(d.Source, idx); sp == nil {
					sp = started
				}
			}
		}
		s.push(d, batch, sp)
	}
}

// eval pushes batch through pipeline instance p at a peer — or, with flush,
// drains p at end of stream — charging bload(op)·pindex(v) per item entering
// each stage plus perItem per item of batch. The result is p's scratch
// buffer (see exec.Pipeline.Eval).
func (s *sim) eval(p *exec.Pipeline, loads []float64, at network.PeerID, batch []*xmlstream.Element, flush bool, perItem float64) []*xmlstream.Element {
	out, work := p.Eval(0, batch, flush, loads)
	if work += perItem * float64(len(batch)); work != 0 {
		s.res.Metrics.AddWork(at, work*s.eng.Net.Peer(at).PerfIndex)
	}
	return out
}

// push pushes one batch of parent items into stream d: residual operators
// run at the tap, charged the duplication of every forked item too, then
// the produced batch flows along the route and reaches the stream's
// consumers. sp, when non-nil, is the batch's provenance span; it rides the
// produced batch.
func (s *sim) push(d *PlanStream, batch []*xmlstream.Element, sp *obs.Span) {
	var dup float64
	if d.Parent != nil {
		dup = s.dup // the parent stream forks here
	}
	outs := s.eval(s.inst.Residual[d.Index], d.Loads, d.Tap, batch, false, dup)
	if len(outs) == 0 {
		// The batch died in the residual pipeline, but its span still
		// reaches every downstream sink: in the runtime the span rides the
		// stream's next batch past the filter, so watermarks advance on
		// progress even when the sampled items produced no output.
		s.spanWalk(d, sp)
		return
	}
	s.transmit(d, outs, sp)
}

// spanWalk carries a filtered-out batch's span to d's consumers — forked to
// every derived stream, delivered at every subscription — without moving
// any data.
func (s *sim) spanWalk(d *PlanStream, sp *obs.Span) {
	if sp == nil {
		return
	}
	for _, child := range d.Taps {
		s.spanWalk(child, s.lat.Fork(sp))
	}
	for _, r := range d.Readers {
		s.lat.Deliver(sp, r.Sub)
	}
}

// transmit moves one produced batch of d along its route and hands it to
// consumers.
func (s *sim) transmit(d *PlanStream, batch []*xmlstream.Element, sp *obs.Span) {
	var size float64
	for _, it := range batch {
		size += float64(it.ByteSize())
	}
	for _, l := range s.links[d.Index] {
		s.res.Metrics.AddTraffic(l, size)
	}
	// Forwarding work at the relay peers strictly inside the route.
	for i := 1; i < len(d.Route)-1; i++ {
		p := s.eng.Net.Peer(d.Route[i])
		s.res.Metrics.AddWork(d.Route[i], s.eng.Cfg.Model.ForwardPerByte*size*p.PerfIndex)
	}
	for _, child := range d.Taps {
		s.push(child, batch, s.lat.Fork(sp))
	}
	target := d.Target()
	for _, r := range d.Readers {
		s.read(r, target, batch, false)
		// The span ends at each subscription sink whether or not the batch
		// survived the local pipeline — watermarks track progress, not
		// output (same rule as the runtime's feedReader).
		s.lat.Deliver(sp, r.Sub)
	}
}

// flush drains stream d's residual pipeline and local readers.
func (s *sim) flush(d *PlanStream) {
	if outs := s.eval(s.inst.Residual[d.Index], d.Loads, d.Tap, nil, true, 0); len(outs) > 0 {
		s.transmit(d, outs, nil)
	}
	target := d.Target()
	for _, r := range d.Readers {
		s.read(r, target, nil, true)
	}
}

// read runs reader r's local pipeline instance at peer at over batch — or,
// with flush, drains it — and records the subscription's results: a
// collecting run builds and keeps them, any other only counts them
// (exec.Pipeline.Results), as the runtime's feedReader does.
func (s *sim) read(r *PlanReader, at network.PeerID, batch []*xmlstream.Element, flush bool) {
	items, n, work := s.inst.Local[r.Index].Results(batch, flush, r.Loads, s.collect)
	if work != 0 {
		s.res.Metrics.AddWork(at, work*s.eng.Net.Peer(at).PerfIndex)
	}
	if n > 0 {
		s.res.Results[r.Sub] += n
		if s.collect {
			s.res.Collected[r.Sub] = append(s.res.Collected[r.Sub], items...)
		}
	}
}
