package plan

import (
	"cmp"
	"fmt"
	"slices"

	"streamshare/internal/cost"
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/properties"
)

// Stream widening (Options.Widening) implements the paper's §6 extension:
// when no flowing stream matches a new subscription, an existing
// selection/projection stream may be *altered* — its operators replaced by
// widened ones — so that it carries enough data for both its current
// consumers and the new subscription. The planner prices the rewire here;
// the engine applies it at install time (the candidate carries the decision
// in Candidate.Widen).

// widenCandidate searches for the cheapest widening plan for the given
// subscription input, or nil if none is applicable (or none survives
// admission control).
func (p *Planner) widenCandidate(in *properties.Input, target network.PeerID) *Candidate {
	var best *Candidate
	for _, d := range p.host.Streams() {
		if d.Original || d.NotShareable || d.Broken || d.Hidden || d.Input.Stream != in.Stream {
			continue
		}
		if d.Parent == nil || !d.Parent.Original {
			// Widening rebuilds the stream from its parent; restrict to
			// first-level streams so the parent always carries enough data.
			continue
		}
		if p.matchInput(d.Input, in) {
			continue // ordinary sharing already covers this stream
		}
		wIn := properties.Widen(d.Input, in)
		if wIn == nil {
			continue
		}
		c, err := p.buildWidenCandidate(d, wIn, in, target)
		if err != nil || c == nil {
			continue
		}
		if best == nil || c.Cost < best.Cost {
			best = c
		}
	}
	return best
}

// buildWidenCandidate prices one widening plan.
func (p *Planner) buildWidenCandidate(d *Deployed, wIn, in *properties.Input, target network.PeerID) (*Candidate, error) {
	wSize, wFreq := p.opt.Est.SizeFreq(wIn)
	wRes, err := exec.ResidualPipeline(d.Parent.Input, wIn, nil)
	if err != nil {
		return nil, err
	}
	dRes, err := exec.ResidualPipeline(wIn, d.Input, nil)
	if err != nil {
		return nil, err
	}
	w := &Deployed{
		ID:       fmt.Sprintf("w%s(widened %s)", d.ID, d.Input.Stream),
		Input:    wIn,
		Parent:   d.Parent,
		Tap:      d.Tap,
		Route:    d.Route,
		Residual: wRes,
		Size:     wSize,
		Freq:     wFreq,
	}

	// Post-rewire footprints: w inherits d's route at the widened rate; d
	// shrinks to a local derivation at its target.
	wiLink := map[network.LinkID]float64{}
	for _, l := range network.PathLinks(d.Route) {
		wiLink[l] += wSize * wFreq
	}
	wiPeer := map[network.PeerID]float64{}
	addOp := func(m map[network.PeerID]float64, v network.PeerID, op string, freq float64) {
		m[v] += p.opt.Model.OpLoad(op, p.net.Peer(v), freq)
	}
	inFreq := d.Parent.Freq
	for _, op := range wRes.Ops {
		addOp(wiPeer, d.Tap, op.Name(), inFreq)
		if op.Name() == cost.OpSelect {
			inFreq = wFreq
		}
	}
	for i := 1; i < len(d.Route)-1; i++ {
		wiPeer[d.Route[i]] += p.opt.Model.ForwardLoad(p.net.Peer(d.Route[i]), wFreq, wSize)
	}
	dPeer := map[network.PeerID]float64{}
	addOp(dPeer, d.Target(), cost.OpDuplicate, wFreq)
	for _, op := range dRes.Ops {
		addOp(dPeer, d.Target(), op.Name(), wFreq)
	}

	// The subscription's own feed taps w at the best route point.
	var route *Route
	for _, tap := range d.Route {
		if r := p.shortestPath(tap, target); r != nil && (route == nil || len(r.IDs) < len(route.IDs)) {
			route = r
		}
	}
	if route == nil {
		return nil, fmt.Errorf("core: no path to %s", target)
	}
	subRes, err := exec.ResidualPipeline(wIn, in, nil)
	if err != nil {
		return nil, err
	}
	size, freq := p.opt.Est.SizeFreq(in)
	c := &Candidate{
		Source: w, Tap: route.IDs[0], Route: route.IDs, route: route,
		Size: size, Freq: freq,
		ResidualOps: opNames(subRes.Ops),
		Widen: &Widening{
			D: d, W: w, In: wIn,
			DPeerAdd: dPeer, WLinkAdd: wiLink, WPeerAdd: wiPeer,
		},
	}
	// Seed the rewiring delta (relative to releasing d's current footprint)
	// before pricing the subscription's own additions.
	deltaLink := map[network.LinkID]float64{}
	deltaPeer := map[network.PeerID]float64{}
	for l, b := range wiLink {
		deltaLink[l] += b
	}
	for l, b := range d.LinkAdd {
		deltaLink[l] -= b
	}
	for v, u := range wiPeer {
		deltaPeer[v] += u
	}
	for v, u := range dPeer {
		deltaPeer[v] += u
	}
	for v, u := range d.PeerAdd {
		deltaPeer[v] -= u
	}
	c.Widen.DeltaLink, c.Widen.DeltaPeer = deltaLink, deltaPeer
	// In key order, so the cost — a float sum over these lists — does not
	// follow map iteration order. Entries off the subscription's route are
	// resolved here; the route's own come from its Route.
	for l, b := range deltaLink {
		c.linkAdds = append(c.linkAdds, linkAdd{link: p.net.Link(l.A, l.B), b: b})
	}
	slices.SortFunc(c.linkAdds, func(x, y linkAdd) int {
		return cmp.Or(cmp.Compare(x.link.ID.A, y.link.ID.A), cmp.Compare(x.link.ID.B, y.link.ID.B))
	})
	for v, u := range deltaPeer {
		c.peerAdds = append(c.peerAdds, peerAdd{peer: p.net.Peer(v), w: u})
	}
	slices.SortFunc(c.peerAdds, func(x, y peerAdd) int { return cmp.Compare(x.peer.ID, y.peer.ID) })
	p.costCandidate(c, p.opt.Est.InputFreq(in), restructureOps)
	if p.opt.Admission && c.Usage.Overloaded() {
		return nil, nil
	}
	return c, nil
}
