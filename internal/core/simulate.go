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
func (e *Engine) Simulate(items map[string][]*xmlstream.Element, collect bool) (*SimResult, error) {
	p := e.Plan()
	s := &sim{
		eng:     e,
		res:     &SimResult{Metrics: network.NewMetrics(), Results: map[string]int{}},
		collect: collect,
		lat:     e.obs.Latency,
		inst:    p.Instantiate(),
	}
	if collect {
		s.res.Collected = map[string][]*xmlstream.Element{}
	}
	for name, its := range items {
		orig := p.Original(name)
		if orig == nil {
			return nil, fmt.Errorf("core: simulate unknown stream %q", name)
		}
		if orig.Freq > 0 {
			if d := float64(len(its)) / orig.Freq; d > s.res.Duration {
				s.res.Duration = d
			}
		}
		for i, it := range its {
			// The simulator runs the same deterministic span sampler as the
			// runtime: sampled items get a span at their feed position so
			// both backends log identical sample sets (and the sim feeds
			// the same per-subscription watermark/lag series — with
			// near-zero lag, since delivery here is synchronous).
			var sp *obs.Span
			if s.lat.Sampled(name, uint64(i)) {
				sp = s.lat.Start(name, uint64(i))
			}
			s.deliver(orig, it, sp)
		}
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
}

// eval pushes batch (one item: spans and traffic are per item here) through
// pipeline instance p at a peer — or, with flush, drains p at end of stream —
// charging bload(op)·pindex(v) per item entering each stage. The result is
// p's scratch buffer (see exec.Pipeline.Eval).
func (s *sim) eval(p *exec.Pipeline, loads []float64, at network.PeerID, batch []*xmlstream.Element, flush bool) []*xmlstream.Element {
	out, work := p.Eval(0, batch, flush, loads)
	if work != 0 {
		s.res.Metrics.AddWork(at, work*s.eng.Net.Peer(at).PerfIndex)
	}
	return out
}

// deliver pushes one parent item into stream d: residual operators run at
// the tap, then every produced item flows along the route and reaches the
// stream's consumers. sp, when non-nil, is the sampled item's provenance
// span; it follows the first produced output (mirroring the runtime, where
// one span rides the batch containing the sampled item).
func (s *sim) deliver(d *PlanStream, item *xmlstream.Element, sp *obs.Span) {
	if d.Parent != nil {
		// Duplication work at the tap (the parent stream forks here).
		peer := s.eng.Net.Peer(d.Tap)
		s.res.Metrics.AddWork(d.Tap, s.eng.Cfg.Model.BLoad["duplicate"]*peer.PerfIndex)
	}
	outs := s.eval(s.inst.Residual[d.Index], d.Loads, d.Tap, []*xmlstream.Element{item}, false)
	if len(outs) == 0 {
		// The item died in the residual pipeline, but its span still reaches
		// every downstream sink: in the runtime the span rides the stream's
		// next batch past the filter, so watermarks advance on progress even
		// when the sampled item itself produced no output.
		s.spanWalk(d, sp)
		return
	}
	for i, out := range outs {
		if i == 0 {
			s.transmit(d, out, sp)
		} else {
			s.transmit(d, out, nil)
		}
	}
}

// spanWalk carries a filtered-out sampled item's span to d's consumers —
// forked to every derived stream, delivered at every subscription — without
// moving any data.
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

// transmit moves one produced item of d along its route and hands it to
// consumers.
func (s *sim) transmit(d *PlanStream, item *xmlstream.Element, sp *obs.Span) {
	size := float64(item.ByteSize())
	for _, l := range network.PathLinks(d.Route) {
		s.res.Metrics.AddTraffic(l, size)
	}
	// Forwarding work at the relay peers strictly inside the route.
	for i := 1; i < len(d.Route)-1; i++ {
		p := s.eng.Net.Peer(d.Route[i])
		s.res.Metrics.AddWork(d.Route[i], s.eng.Cfg.Model.ForwardPerByte*size*p.PerfIndex)
	}
	for _, child := range d.Taps {
		s.deliver(child, item, s.lat.Fork(sp))
	}
	target := d.Target()
	for _, r := range d.Readers {
		for _, res := range s.eval(s.inst.Local[r.Index], r.Loads, target, []*xmlstream.Element{item}, false) {
			s.emit(r.Sub, res)
		}
		// The span ends at each subscription sink whether or not the item
		// survived the local pipeline — watermarks track progress, not
		// output (same rule as the runtime's feedReader).
		s.lat.Deliver(sp, r.Sub)
	}
}

// flush drains stream d's residual pipeline and local readers.
func (s *sim) flush(d *PlanStream) {
	for _, out := range s.eval(s.inst.Residual[d.Index], d.Loads, d.Tap, nil, true) {
		s.transmit(d, out, nil)
	}
	target := d.Target()
	for _, r := range d.Readers {
		for _, res := range s.eval(s.inst.Local[r.Index], r.Loads, target, nil, true) {
			s.emit(r.Sub, res)
		}
	}
}

func (s *sim) emit(sub string, item *xmlstream.Element) {
	s.res.Results[sub]++
	if s.collect {
		s.res.Collected[sub] = append(s.res.Collected[sub], item)
	}
}
