package core

import (
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/plan"
)

// Stream widening (enabled with Config.Widening) implements the paper's §6
// extension: when no flowing stream matches a new subscription, an existing
// selection/projection stream may be *altered* — its operators replaced by
// widened ones — so that it carries enough data for both its current
// consumers and the new subscription.
//
// The widened stream w takes over the old stream's tap, route and parent;
// the old stream d becomes a cheap local derivation of w at its target
// (residual selection/projection reconstruct exactly its previous items, so
// existing consumers are unaffected), and streams that tapped d along its
// route are re-parented onto w. The new subscription then taps w like any
// shared stream. The *search* for widening plans lives in internal/plan
// (the candidate carries the decision in Candidate.Widen); this file applies
// the rewire at install time.

// installWidening performs the rewiring described above; it must run before
// the subscription's own feed is installed against c.Source (= the widened
// stream).
func (e *Engine) installWidening(wd *plan.Widening) {
	d, w := wd.D, wd.W
	e.obs.Metrics.Counter("core.widen.installed").Inc()
	w.Residual = exec.Instrument(w.Residual, e.obs.Metrics, "exec.op")
	// Insert w directly before d so simulation flush order stays
	// parent-before-child.
	for i, x := range e.deployed {
		if x == d {
			e.deployed = append(e.deployed[:i], append([]*Deployed{w}, e.deployed[i:]...)...)
			break
		}
	}
	// Re-parent streams that tapped d along its route.
	for _, child := range e.deployed {
		if child.Parent != d || child == w {
			continue
		}
		res, err := exec.ResidualPipeline(w.Input, child.Input, nil)
		if err != nil {
			continue // unreachable: child matched d, and w ⊇ d
		}
		child.Parent = w
		child.Residual = exec.Instrument(res, e.obs.Metrics, "exec.op")
	}
	// d becomes a local derivation of w at its target.
	tgt := d.Target()
	dRes, err := exec.ResidualPipeline(w.Input, d.Input, nil)
	if err == nil {
		d.Parent = w
		d.Tap = tgt
		d.Route = []network.PeerID{tgt}
		d.Residual = exec.Instrument(dRes, e.obs.Metrics, "exec.op")
	}
	// Usage bookkeeping: release d's old footprint, apply the new ones.
	for l, b := range d.LinkAdd {
		e.linkUse[l] -= b
	}
	for p, u := range d.PeerAdd {
		e.peerUse[p] -= u
	}
	d.LinkAdd = map[network.LinkID]float64{}
	d.PeerAdd = wd.DPeerAdd
	w.LinkAdd = wd.WLinkAdd
	w.PeerAdd = wd.WPeerAdd
	e.reserve(w)
	e.reserve(d)
	// The rewire inserted w mid-registry and moved d's tap and route, which
	// the discovery index cannot track incrementally — rebuild it.
	e.planner.Reindex(e.deployed)
}
