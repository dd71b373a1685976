package core

import (
	"errors"
	"fmt"
	"time"

	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/plan"
	"streamshare/internal/properties"
	"streamshare/internal/wxquery"
)

// Subscribe registers a continuous query at the given target super-peer
// using the engine's configured strategy and installs the chosen evaluation
// plan (the search itself lives in internal/plan). It returns ErrRejected
// when admission control is enabled and every plan would overload a peer or
// network connection. Concurrent Subscribe calls are safe: the engine
// serializes its control plane.
//
// Every call — successful or not — leaves a decision trace in the engine's
// observer recording candidate streams, match outcomes, cost breakdowns and
// the winner; successful registrations also keep it on Subscription.Trace.
func (e *Engine) Subscribe(src string, target network.PeerID, strat Strategy) (*Subscription, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	started := time.Now()
	e.m.subTotal.Inc()
	dt := &obs.DecisionTrace{
		SubID:    fmt.Sprintf("q%d", e.subSeq+1),
		Strategy: strat.String(),
		Target:   string(target),
		Query:    src,
	}
	fail := func(err error) (*Subscription, error) {
		dt.Err = err.Error()
		dt.Duration = time.Since(started)
		e.obs.Tracer.Record(dt)
		if errors.Is(err, ErrRejected) {
			e.m.subRejected.Inc()
		} else {
			e.m.subErrors.Inc()
		}
		return nil, err
	}
	if e.Net.Peer(target) == nil {
		return fail(fmt.Errorf("core: unknown peer %s", target))
	}
	q, err := wxquery.Parse(src)
	if err != nil {
		return fail(err)
	}
	props, err := properties.FromQuery(q)
	if err != nil {
		return fail(err)
	}
	if err := refuseUDFs(props); err != nil {
		return fail(err)
	}
	sub := &Subscription{
		ID:       dt.SubID,
		Query:    q,
		Props:    props,
		Target:   target,
		Strategy: strat,
		Trace:    dt,
	}
	plans, err := e.planInputs(sub, props.Inputs, &sub.Reg, dt, func(in *properties.Input) error {
		if e.originals[in.Stream] == nil {
			return fmt.Errorf("%w: %q", ErrUnknownStream, in.Stream)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	for _, p := range plans {
		si, err := e.install(sub, q, p.in, p.resIn, p.cand, strat)
		if err != nil {
			return fail(err)
		}
		sub.Inputs = append(sub.Inputs, si)
	}
	sub.Reg.Compute = time.Since(started)
	dt.Duration = sub.Reg.Compute
	dt.Messages = sub.Reg.Messages
	dt.VisitedPeers = sub.Reg.Visited
	e.obs.Tracer.Record(dt)
	e.subs = append(e.subs, sub)
	e.subSeq++

	e.m.subInstalled.Inc()
	e.m.visited.Add(float64(sub.Reg.Visited))
	e.m.candidates.Add(float64(sub.Reg.Candidates))
	e.m.messages.Add(float64(sub.Reg.Messages))
	e.m.computeSeconds.Observe(sub.Reg.Compute.Seconds())
	for _, p := range plans {
		e.m.planCost.Observe(p.cand.Cost)
	}
	e.publishUse()
	return sub, nil
}

// planned is one input's chosen plan, not yet installed.
type planned struct {
	in, resIn *properties.Input
	cand      *plan.Candidate
}

// planInputs plans the given inputs of sub's query against the current
// catalog, every one before anything installs: a rejected input must not
// leave partially installed state behind. Registration, repair and migration
// all plan through it. vet, when set, checks an input before it is planned.
func (e *Engine) planInputs(sub *Subscription, ins []*properties.Input, rs *RegStats, dt *obs.DecisionTrace,
	vet func(*properties.Input) error) ([]planned, error) {
	result := sub.Props.Result()
	plans := make([]planned, 0, len(ins))
	for _, in := range ins {
		it := dt.Input(in.Stream)
		if vet != nil {
			if err := vet(in); err != nil {
				return nil, err
			}
		}
		c, err := e.planner.PlanInput(sub.Query, in, sub.Target, sub.Strategy, rs, it)
		if err != nil {
			return nil, err
		}
		plans = append(plans, planned{in: in, resIn: result.Input(in.Stream), cand: c})
	}
	return plans, nil
}

// refuseUDFs refuses a subscription that calls a function other than the
// five built-in aggregates. Matching handles such a function (Algorithm 2's
// unknown operator), but the engine has no evaluator for one: planned, it
// would deliver empty windows.
func refuseUDFs(props *properties.Properties) error {
	for _, in := range props.Inputs {
		for _, o := range in.Ops {
			if o.Kind == properties.OpUDF {
				return fmt.Errorf("%w: %s is not sum, count, avg, min or max", properties.ErrUnsupported, o.UDF.Name)
			}
		}
	}
	return nil
}

// install creates the deployed stream and subscription wiring for one
// planned input and applies its analytic usage.
func (e *Engine) install(sub *Subscription, q *wxquery.Query, in, resIn *properties.Input, c *plan.Candidate, strat Strategy) (*SubInput, error) {
	e.nextID++
	si := &SubInput{In: in}
	if c.Widen != nil {
		e.installWidening(c.Widen)
		// The rewiring delta was only seeded for costing; installWidening
		// has applied the rewire exactly, so the subscription's own
		// footprint excludes it.
		for l, b := range c.Widen.DeltaLink {
			c.LinkAdd[l] -= b
			if c.LinkAdd[l] == 0 {
				delete(c.LinkAdd, l)
			}
		}
		for p, u := range c.Widen.DeltaPeer {
			c.PeerAdd[p] -= u
			if c.PeerAdd[p] == 0 {
				delete(c.PeerAdd, p)
			}
		}
	}

	switch strat {
	case DataShipping:
		// Raw stream copy to the target; full evaluation there.
		full, err := exec.FullPipeline(q, in, nil)
		if err != nil {
			return nil, err
		}
		si.Feed = &Deployed{
			ID:       fmt.Sprintf("s%d(raw %s for %s)", e.nextID, in.Stream, sub.ID),
			Input:    c.Source.Input,
			Parent:   c.Source,
			Tap:      c.Tap,
			Route:    c.Route,
			Residual: exec.NewPipeline(),
			Size:     c.Size,
			Freq:     c.Freq,
		}
		si.Local = full
	case QueryShipping:
		full, err := exec.FullPipeline(q, in, nil)
		if err != nil {
			return nil, err
		}
		si.Feed = &Deployed{
			ID:           fmt.Sprintf("s%d(result %s)", e.nextID, sub.ID),
			Input:        resIn,
			Parent:       c.Source,
			Tap:          c.Tap,
			Route:        c.Route,
			Residual:     full,
			Size:         c.Size,
			Freq:         c.Freq,
			NotShareable: true,
		}
		si.Local = exec.NewPipeline()
	default:
		res, err := exec.ResidualPipeline(c.Source.Input, in, nil)
		if err != nil {
			return nil, err
		}
		rs, err := exec.RestructureFor(q, in)
		if err != nil {
			return nil, err
		}
		si.Feed = &Deployed{
			ID:       fmt.Sprintf("s%d(%s via %s@%s)", e.nextID, sub.ID, c.Source.ID, c.Tap),
			Input:    resIn,
			Parent:   c.Source,
			Tap:      c.Tap,
			Route:    c.Route,
			Residual: res,
			Size:     c.Size,
			Freq:     c.Freq,
		}
		si.Local = exec.NewPipeline(rs)
	}
	si.Feed.Residual = exec.Instrument(si.Feed.Residual, e.obs.Metrics, "exec.op")
	si.Local = exec.Instrument(si.Local, e.obs.Metrics, "exec.op")
	e.epoch++
	si.Feed.Epoch = e.epoch

	// Query-shipping results are restructured and private; data-shipping raw
	// copies are per-subscription by definition. Only stream sharing
	// advertises its canonical streams — but keeping all deployments in the
	// registry is harmless because discovery goes through the planner's
	// index, which never lists non-shareable ones.
	e.deployed = append(e.deployed, si.Feed)
	e.planner.Install(si.Feed)

	si.Feed.LinkAdd = c.LinkAdd
	si.Feed.PeerAdd = c.PeerAdd
	e.reserve(si.Feed)
	return si, nil
}
