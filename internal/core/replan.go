package core

import (
	"errors"
	"slices"
	"time"

	"streamshare/internal/cost"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/properties"
)

// This file is the engine half of the dynamic-adaptation subsystem
// (internal/adapt drives it): detecting streams severed by topology
// failures, releasing the resources their plans reserved, re-planning the
// affected subscriptions against the surviving topology, and migrating
// subscriptions to cheaper plans once capacity frees up. The paper computes
// plans once at registration (§4) and only hints at post-hoc change (§6,
// stream widening); everything here is the natural extension of Algorithm 1
// to a network whose peers and links fail, recover and grow.

// routeDown reports whether any peer or link on the stream's route is
// currently failed.
func (e *Engine) routeDown(d *Deployed) bool {
	return slices.ContainsFunc(d.Route, func(p network.PeerID) bool { return !e.Net.PeerUp(p) }) ||
		slices.ContainsFunc(network.PathLinks(d.Route), func(l network.LinkID) bool { return !e.Net.LinkUp(l.A, l.B) })
}

// streamBroken reports whether the stream or any ancestor it derives from is
// severed — already marked broken, or with a failed peer/link on its route.
func (e *Engine) streamBroken(d *Deployed) bool {
	for x := d; x != nil; x = x.Parent {
		if x.Broken || e.routeDown(x) {
			return true
		}
	}
	return false
}

// ReleaseBroken scans all deployed streams against the current topology,
// marks every severed one broken, and releases the analytic bandwidth and
// load its plan reserved (a failed peer no longer does work; a failed link
// no longer carries traffic). It returns the streams newly marked broken.
// Broken streams are excluded from sharing discovery; Replan replaces or
// rejects the subscriptions feeding from them.
func (e *Engine) ReleaseBroken() []*Deployed {
	e.mu.Lock()
	defer e.mu.Unlock()
	var broken []*Deployed
	for _, d := range e.deployed {
		if d.Broken || !e.streamBroken(d) {
			continue
		}
		d.Broken = true
		e.withdraw(d)
		// The usage is gone for good: a later release() of this stream must
		// not subtract it again.
		d.LinkAdd, d.PeerAdd = nil, nil
		e.obs.Metrics.Counter("core.streams.broken").Inc()
		broken = append(broken, d)
	}
	if len(broken) > 0 {
		e.epoch++
		e.publishUse()
	}
	return broken
}

// ReviveRestored clears the broken mark on original streams whose route came
// back up (originals reserve no plan resources, so reviving them is free).
// Derived streams stay broken — their resources were released, and Replan
// rebuilds them from scratch. It returns the number of streams revived.
func (e *Engine) ReviveRestored() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, d := range e.deployed {
		if d.Broken && d.Original && !e.routeDown(d) {
			d.Broken = false
			e.obs.Metrics.Counter("core.streams.revived").Inc()
			n++
		}
	}
	if n > 0 {
		e.epoch++
	}
	return n
}

// Affected returns the subscriptions with at least one broken feed, in
// registration order. Call after ReleaseBroken; after a full repair cycle
// (Replan over every affected subscription) it returns nil again — no
// subscription is left silently stranded.
func (e *Engine) Affected() []*Subscription {
	var out []*Subscription
	for _, s := range e.subs {
		for _, si := range s.Inputs {
			if si.Feed.Broken || e.streamBroken(si.Feed) {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// hideLiveShared transiently hides every live derived stream from discovery
// while a reliable repair or migration re-plans, forcing the replacement
// chain to derive directly from original streams. The returned func
// restores exactly the streams this call hid.
func (e *Engine) hideLiveShared() (restore func()) {
	if !e.Cfg.Reliable {
		return func() {}
	}
	var hidden []*Deployed
	for _, d := range e.deployed {
		if d.Original || d.Broken || d.Hidden {
			continue
		}
		d.Hidden = true
		hidden = append(hidden, d)
	}
	return func() {
		for _, d := range hidden {
			d.Hidden = false
		}
	}
}

// Replan repairs a subscription whose feeds were severed by a topology
// change: it re-runs discovery and plan generation for every broken input
// against the surviving topology — reusing still-flowing shared streams
// first, exactly like a fresh registration — and installs the replacement
// plans make-before-break (the new feed is installed before the broken one
// is swept, so an observer never sees the subscription feedless). When any
// broken input has no feasible plan the whole subscription is torn down and
// the error — ErrRejected when admission control refused every plan — is
// returned so the caller can report the explicit rejection.
//
// The event string labels the re-planning decision trace ("repair
// peer-failed SP6"); pass "" for none.
func (e *Engine) Replan(sub *Subscription, event string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	started := time.Now()
	reg := e.obs.Metrics
	reg.Counter("core.replan.total").Inc()
	dt := &obs.DecisionTrace{
		SubID:    sub.ID,
		Strategy: sub.Strategy.String(),
		Target:   string(sub.Target),
		Query:    sub.Trace.Query,
		Event:    event,
	}
	fail := func(err error) error {
		dt.Err = err.Error()
		dt.Duration = time.Since(started)
		e.obs.Tracer.Record(dt)
		e.dropSubscription(sub)
		if errors.Is(err, ErrRejected) {
			reg.Counter("core.replan.rejected").Inc()
		} else {
			reg.Counter("core.replan.errors").Inc()
		}
		return err
	}

	var rs RegStats
	var broken []*SubInput
	var ins []*properties.Input
	for _, si := range sub.Inputs {
		if !si.Feed.Broken && !e.streamBroken(si.Feed) {
			continue // still flowing; keep it
		}
		si.Feed.Broken = true
		broken = append(broken, si)
		ins = append(ins, si.In)
	}
	if len(broken) == 0 {
		return nil // nothing broken
	}
	unhide := e.hideLiveShared()
	plans, err := e.planInputs(sub, ins, &rs, dt, nil)
	unhide()
	if err != nil {
		return fail(err)
	}

	for i, p := range plans {
		si, err := e.install(sub, sub.Query, p.in, p.resIn, p.cand, sub.Strategy)
		if err != nil {
			return fail(err)
		}
		old := broken[i].Feed
		broken[i].Feed, broken[i].Local = si.Feed, si.Local
		e.sweepBroken(old)
	}
	dt.Duration = time.Since(started)
	dt.Messages = rs.Messages
	dt.VisitedPeers = rs.Visited
	e.obs.Tracer.Record(dt)
	sub.Trace = dt
	reg.Counter("core.replan.repaired").Inc()
	e.publishUse()
	return nil
}

// dropSubscription removes a subscription whose repair failed, tearing down
// its remaining feeds: broken ones are swept (resources already released),
// live ones released normally.
func (e *Engine) dropSubscription(sub *Subscription) {
	for i, s := range e.subs {
		if s == sub {
			e.subs = append(e.subs[:i], e.subs[i+1:]...)
			break
		}
	}
	for _, si := range sub.Inputs {
		if si.Feed.Broken {
			e.sweepBroken(si.Feed)
		} else {
			e.release(si.Feed)
		}
	}
	e.epoch++
	e.publishUse()
}

// sweepBroken removes a broken non-original stream from the registry (its
// resources were already released by ReleaseBroken) and gives its parent the
// usual no-consumers-left release check.
func (e *Engine) sweepBroken(d *Deployed) {
	if d == nil || d.Original {
		return
	}
	if e.removeDeployed(d) {
		e.obs.Metrics.Counter("core.streams.swept").Inc()
	}
	e.release(d.Parent)
}

// hasChildren reports whether any deployed stream derives from d.
func (e *Engine) hasChildren(d *Deployed) bool {
	return slices.ContainsFunc(e.deployed, func(x *Deployed) bool { return x.Parent == d })
}

// priceFootprint prices an installed plan's absolute usage additions against
// the engine's *current* remaining capacities, mirroring costCandidate — so
// an old plan and a candidate replacement are comparable. The caller must
// have withdrawn the plan's own usage from the running totals first.
func (e *Engine) priceFootprint(linkAdd map[network.LinkID]float64, peerAdd map[network.PeerID]float64) cost.Usage {
	var u cost.Usage
	for l, b := range linkAdd {
		ln := e.Net.Link(l.A, l.B)
		if ln == nil {
			continue
		}
		u.Links = append(u.Links, cost.LinkUsage{
			ID: l, Ub: b / ln.Bandwidth, Ab: 1 - e.linkUse[l]/ln.Bandwidth,
		})
	}
	for p, w := range peerAdd {
		pr := e.Net.Peer(p)
		if pr == nil {
			continue
		}
		u.Peers = append(u.Peers, cost.PeerUsage{
			ID: p, Ul: w / pr.Capacity, Al: 1 - e.peerUse[p]/pr.Capacity,
		})
	}
	return u
}

// TryMigrate re-plans a healthy subscription from scratch and migrates it
// when the fresh plan is cheaper than re-pricing the current one by more
// than the hysteresis fraction (newCost < oldCost·(1−hysteresis)) — the
// bound that keeps triggered re-optimization from thrashing. The current
// feeds are hidden from discovery and their usage withdrawn while planning,
// so the comparison is fair; if the candidate loses, everything is restored
// exactly. Subscriptions with broken feeds (repair territory) or feeds other
// streams derive from (migration would strand the children) are skipped.
//
// It returns whether the subscription migrated. The event string labels the
// decision trace of a successful migration.
func (e *Engine) TryMigrate(sub *Subscription, hysteresis float64, event string) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, si := range sub.Inputs {
		if si.Feed.Broken || e.streamBroken(si.Feed) {
			return false, nil
		}
		if e.hasChildren(si.Feed) {
			return false, nil
		}
	}

	// Withdraw the current plan: hide the feeds from discovery and release
	// their usage so candidate plans price against the capacity that would
	// actually be free after the migration.
	for _, si := range sub.Inputs {
		si.Feed.Hidden = true
		e.withdraw(si.Feed)
	}
	restore := func() {
		for _, si := range sub.Inputs {
			si.Feed.Hidden = false
			e.reserve(si.Feed)
		}
	}

	oldCost := 0.0
	for _, si := range sub.Inputs {
		oldCost += e.Cfg.Model.Cost(e.priceFootprint(si.Feed.LinkAdd, si.Feed.PeerAdd))
	}

	started := time.Now()
	dt := &obs.DecisionTrace{
		SubID:    sub.ID,
		Strategy: sub.Strategy.String(),
		Target:   string(sub.Target),
		Query:    sub.Trace.Query,
		Event:    event,
	}
	var rs RegStats
	ins := make([]*properties.Input, len(sub.Inputs))
	for i, si := range sub.Inputs {
		ins[i] = si.In
	}
	unhide := e.hideLiveShared()
	plans, err := e.planInputs(sub, ins, &rs, dt, nil)
	unhide()
	if err != nil {
		restore()
		return false, nil // no feasible alternative; keep the current plan
	}
	newCost := 0.0
	for _, p := range plans {
		newCost += p.cand.Cost
	}

	if newCost >= oldCost*(1-hysteresis) {
		restore()
		return false, nil
	}

	// Migrate make-before-break: install the new feeds, then discard the old
	// ones (their usage is already withdrawn).
	var installed []*SubInput
	for _, p := range plans {
		si, err := e.install(sub, sub.Query, p.in, p.resIn, p.cand, sub.Strategy)
		if err != nil {
			for _, done := range installed {
				e.release(done.Feed) // nothing consumes it yet
			}
			restore()
			return false, err
		}
		installed = append(installed, si)
	}
	for i, si := range sub.Inputs {
		old := si.Feed
		si.Feed, si.Local = installed[i].Feed, installed[i].Local
		e.removeDeployed(old)
		e.release(old.Parent)
	}
	dt.Duration = time.Since(started)
	dt.Messages = rs.Messages
	dt.VisitedPeers = rs.Visited
	e.obs.Tracer.Record(dt)
	sub.Trace = dt
	e.obs.Metrics.Counter("core.migrate.total").Inc()
	e.publishUse()
	return true, nil
}
