package core

import (
	"fmt"

	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/xmlstream"
)

// simulateItemwise is the per-item walk of a plan: every source item goes
// down the whole plan on its own, as a one-item batch at every stream and
// reader, and is metered item by item. It feeds the original streams in
// plan order, as Simulate does. TestSimulateBatchEquivalence holds
// Simulate's batched walk to it.
func simulateItemwise(e *Engine, items map[string][]*xmlstream.Element, collect bool) (*SimResult, error) {
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
	}
	if collect {
		s.res.Collected = map[string][]*xmlstream.Element{}
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
		for i, it := range its {
			var sp *obs.Span
			if s.lat.Sampled(d.Source, uint64(i)) {
				sp = s.lat.Start(d.Source, uint64(i))
			}
			s.deliver(d, it, sp)
		}
	}
	for _, d := range p.Streams {
		if _, fed := items[d.Source]; !fed && d.Original {
			continue
		}
		s.flushItemwise(d)
	}
	return s.res, nil
}

// deliver pushes one parent item into stream d: residual operators run at
// the tap, then every produced item flows along the route and reaches the
// stream's consumers. sp follows the first produced output.
func (s *sim) deliver(d *PlanStream, item *xmlstream.Element, sp *obs.Span) {
	if d.Parent != nil {
		peer := s.eng.Net.Peer(d.Tap)
		s.res.Metrics.AddWork(d.Tap, s.eng.Cfg.Model.BLoad["duplicate"]*peer.PerfIndex)
	}
	outs := s.eval(s.inst.Residual[d.Index], d.Loads, d.Tap, []*xmlstream.Element{item}, false, 0)
	if len(outs) == 0 {
		s.spanWalk(d, sp)
		return
	}
	for i, out := range outs {
		if i == 0 {
			s.transmitItem(d, out, sp)
		} else {
			s.transmitItem(d, out, nil)
		}
	}
}

// transmitItem moves one produced item of d along its route and hands it to
// consumers.
func (s *sim) transmitItem(d *PlanStream, item *xmlstream.Element, sp *obs.Span) {
	size := float64(item.ByteSize())
	for _, l := range network.PathLinks(d.Route) {
		s.res.Metrics.AddTraffic(l, size)
	}
	for i := 1; i < len(d.Route)-1; i++ {
		p := s.eng.Net.Peer(d.Route[i])
		s.res.Metrics.AddWork(d.Route[i], s.eng.Cfg.Model.ForwardPerByte*size*p.PerfIndex)
	}
	for _, child := range d.Taps {
		s.deliver(child, item, s.lat.Fork(sp))
	}
	target := d.Target()
	for _, r := range d.Readers {
		for _, res := range s.eval(s.inst.Local[r.Index], r.Loads, target, []*xmlstream.Element{item}, false, 0) {
			s.emit(r.Sub, []*xmlstream.Element{res})
		}
		s.lat.Deliver(sp, r.Sub)
	}
}

// flushItemwise drains stream d's residual pipeline and local readers, one
// flushed item at a time.
func (s *sim) flushItemwise(d *PlanStream) {
	for _, out := range s.eval(s.inst.Residual[d.Index], d.Loads, d.Tap, nil, true, 0) {
		s.transmitItem(d, out, nil)
	}
	target := d.Target()
	for _, r := range d.Readers {
		for _, res := range s.eval(s.inst.Local[r.Index], r.Loads, target, nil, true, 0) {
			s.emit(r.Sub, []*xmlstream.Element{res})
		}
	}
}
