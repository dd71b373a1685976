package core

import (
	"slices"

	"streamshare/internal/exec"
	"streamshare/internal/network"
)

// Plan is the catalog at one epoch as a value: every deployed stream with
// its compiled operator templates and its place in the dataflow, and every
// subscription input reading one. Nothing in a Plan changes once built.
// Whatever executes a plan — Simulate, a runtime.Runtime, a Session's
// recovery — reads only its plan value and drives operator instances of its
// own (Instantiate); a template is never driven, so the catalog may change,
// and other runs may execute, while a run is in flight.
type Plan struct {
	// Epoch is the engine epoch the plan was built at; every catalog
	// mutation starts a new one.
	Epoch   uint64
	Streams []*PlanStream // parents before children
	Readers []*PlanReader // in registration order

	groups []tapGroup
}

// tapGroup is the selection group of the streams one stream feeds at one
// peer — the children a runtime lane, or the simulator, hands the same
// items in one loop — by their indices in Plan.Streams.
type tapGroup struct {
	streams []int
	sel     *exec.SelectionGroup
}

// PlanStream is one deployed stream of a Plan. Index is its position in
// Plan.Streams; Source names the original stream it derives from; Residual
// is the template of the operators run at Tap, and Loads holds the load
// model's bload per stage, the weights exec.Pipeline.Eval charges by. Taps
// lists the streams derived from it, Readers the inputs it feeds at its
// target.
type PlanStream struct {
	Index    int
	ID       string
	Epoch    uint64
	Source   string
	Original bool
	Freq     float64
	Tap      network.PeerID
	Route    []network.PeerID
	Parent   *PlanStream
	Residual *exec.Pipeline
	Loads    []float64
	Taps     []*PlanStream
	Readers  []*PlanReader
}

// Target returns the peer the stream is delivered to.
func (s *PlanStream) Target() network.PeerID { return s.Route[len(s.Route)-1] }

// PlanReader is one subscription input of a Plan: subscription Sub reading
// Feed at its target through the Local template. ID, "<sub>/<input stream>",
// names the input across re-plans; Index is its position in Plan.Readers.
type PlanReader struct {
	Index int
	ID    string
	Sub   string
	Feed  *PlanStream
	Local *exec.Pipeline
	Loads []float64
}

// Instances is one run's operator state over a plan: an instance of every
// template, indexed like Plan.Streams and Plan.Readers.
type Instances struct {
	Residual, Local []*exec.Pipeline
}

// Instantiate returns fresh operator state for one run of the plan, a value
// table per selection group included.
func (p *Plan) Instantiate() *Instances {
	in := &Instances{make([]*exec.Pipeline, len(p.Streams)), make([]*exec.Pipeline, len(p.Readers))}
	for i, s := range p.Streams {
		in.Residual[i] = s.Residual.Instance()
	}
	for i, r := range p.Readers {
		in.Local[i] = r.Local.Instance()
	}
	var sibs []*exec.Pipeline
	for _, g := range p.groups {
		sibs = sibs[:0]
		for _, i := range g.streams {
			sibs = append(sibs, in.Residual[i])
		}
		g.sel.Bind(sibs)
	}
	return in
}

// selectionGroups compiles a selection group for every (stream, tap peer)
// whose children lead with a Select at least twice.
func selectionGroups(streams []*PlanStream) []tapGroup {
	var out []tapGroup
	var sibs []*exec.Pipeline
	for _, s := range streams {
		for i, c := range s.Taps {
			if slices.ContainsFunc(s.Taps[:i], func(d *PlanStream) bool { return d.Tap == c.Tap }) {
				continue // grouped with an earlier child at the same peer
			}
			g := tapGroup{}
			sibs = sibs[:0]
			for _, d := range s.Taps[i:] {
				if d.Tap == c.Tap {
					g.streams = append(g.streams, d.Index)
					sibs = append(sibs, d.Residual)
				}
			}
			if g.sel = exec.NewSelectionGroup(sibs); g.sel != nil {
				out = append(out, g)
			}
		}
	}
	return out
}

// Original returns the plan's original stream with the given name, or nil.
func (p *Plan) Original(name string) *PlanStream {
	for _, s := range p.Streams {
		if s.Original && s.Source == name {
			return s
		}
	}
	return nil
}

// Plan returns the catalog's current plan value, built on the first call
// after a mutation and shared until the next: a mutation pays nothing for
// it.
func (e *Engine) Plan() *Plan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plan != nil && e.plan.Epoch == e.epoch {
		return e.plan
	}
	p := &Plan{Epoch: e.epoch}
	of := make(map[*Deployed]*PlanStream, len(e.deployed))
	for i, d := range e.deployed {
		s := &PlanStream{Index: i, ID: d.ID, Epoch: d.Epoch, Source: d.Input.Stream, Original: d.Original,
			Freq: d.Freq, Tap: d.Tap, Route: d.Route, Residual: d.Residual, Loads: e.loadsOf(d.Residual)}
		// A parent precedes its children; a child whose parent was swept
		// while it awaits repair stays unfed, as in the catalog.
		if s.Parent = of[d.Parent]; s.Parent != nil {
			s.Parent.Taps = append(s.Parent.Taps, s)
		}
		of[d] = s
		p.Streams = append(p.Streams, s)
	}
	for _, sub := range e.subs {
		for _, si := range sub.Inputs {
			r := &PlanReader{Index: len(p.Readers), ID: sub.ID + "/" + si.In.Stream, Sub: sub.ID,
				Feed: of[si.Feed], Local: si.Local, Loads: e.loadsOf(si.Local)}
			r.Feed.Readers = append(r.Feed.Readers, r)
			p.Readers = append(p.Readers, r)
		}
	}
	p.groups = selectionGroups(p.Streams)
	e.plan = p
	return p
}

// loadsOf resolves the load model's bload of every stage of p, so no run
// looks an operator up by name.
func (e *Engine) loadsOf(p *exec.Pipeline) []float64 {
	l := make([]float64, len(p.Ops))
	for i, op := range p.Ops {
		l[i] = e.Cfg.Model.BLoad[op.Name()]
	}
	return l
}
