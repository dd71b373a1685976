package plan

import (
	"fmt"

	"streamshare/internal/cost"
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/properties"
	"streamshare/internal/wxquery"
)

// PlanInput is the single planning entry point: it produces the evaluation
// plan for one input stream of a subscription under the given strategy.
// Subscribe, Replan and TryMigrate all route through it, so repairs and
// migrations price plans exactly like fresh registrations.
func (p *Planner) PlanInput(q *wxquery.Query, in *properties.Input, target network.PeerID, strat Strategy, reg *RegStats, it *obs.InputTrace) (*Candidate, error) {
	var c *Candidate
	var err error
	if strat == StreamSharing {
		c, err = p.planStreamSharing(in, target, reg, it)
	} else {
		c, err = p.planShipping(q, in, target, strat, reg, it)
	}
	if c != nil {
		// Only the winner's absolute additions are ever installed or
		// inspected — build its maps here, once.
		c.materialize()
	}
	return c, err
}

func peerStrings(ps []network.PeerID) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}

func opNames(ops []exec.Operator) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.Name()
	}
	return out
}

// traceCandidate fills a trace row's plan fields from a costed candidate.
func (p *Planner) traceCandidate(ct *obs.CandidateTrace, c *Candidate) {
	ct.Tap = string(c.Tap)
	ct.Route = peerStrings(c.Route)
	// Candidate op-name slices are immutable once built (they may come from
	// the residual cache), so the trace can alias instead of copying.
	ct.Residual = c.ResidualOps
	ct.Cost = obs.CostBreakdown(p.opt.Model.Breakdown(c.Usage))
	ct.Overloaded = c.Usage.Overloaded()
}

// planShipping serves the two baselines, which route one stream from the
// input's source super-peer to the target, once for this subscription. Data
// shipping routes the raw input and charges the whole query at the target;
// query shipping charges it at the source and ships the (restructured)
// result.
func (p *Planner) planShipping(q *wxquery.Query, in *properties.Input, target network.PeerID, strat Strategy, reg *RegStats, it *obs.InputTrace) (*Candidate, error) {
	orig := p.host.Original(in.Stream)
	it.Visited = append(it.Visited, string(orig.Tap))
	ct := obs.CandidateTrace{Stream: orig.ID, FoundAt: string(orig.Tap), Match: true, Reason: "match"}
	route := p.shortestPath(orig.Tap, target)
	if route == nil {
		ct.Err = "no path to target"
		it.Candidates = append(it.Candidates, ct)
		return nil, fmt.Errorf("core: no path from %s to %s", orig.Tap, target)
	}
	reg.Messages += 2*(len(route)-1) + 2
	full, err := exec.FullPipeline(q, in, nil)
	if err != nil {
		return nil, err
	}
	c := &Candidate{Source: orig, Tap: orig.Tap, Route: route, Size: orig.Size, Freq: orig.Freq}
	targetOps := opNames(full.Ops)
	if strat == QueryShipping {
		c.Size, c.Freq = p.opt.Est.SizeFreq(in)
		c.ResidualOps, targetOps = targetOps, nil
	}
	p.costCandidate(c, p.opt.Est.InputFreq(in), targetOps, target)
	p.traceCandidate(&ct, c)
	if p.opt.Admission && c.Usage.Overloaded() {
		it.Candidates = append(it.Candidates, ct)
		return nil, ErrRejected
	}
	ct.Selected = true
	it.Candidates = append(it.Candidates, ct)
	return c, nil
}

// planStreamSharing is Algorithm 1 (Subscribe) for one input stream. The
// plan from the original source is costed first — an unreachable source
// fails the registration before any discovery side effects. Then a
// breadth-first search over the stream overlay, starting at the input's
// source super-peer, matches the properties of every stream available at
// each visited peer and costs each matching stream where it is first
// discovered; the cheapest plan wins under a strict comparison, so the
// earliest discovered candidate wins ties.
//
// Every considered stream is recorded in the input trace — a stream
// discovered at several peers gets one row, at its first discovery. Costing
// it once is enough: a re-encounter would build the same plan — the tap is
// chosen from the stream's route, not the discovery peer — and an equal cost
// never displaces the incumbent.
func (p *Planner) planStreamSharing(in *properties.Input, target network.PeerID, reg *RegStats, it *obs.InputTrace) (*Candidate, error) {
	startCand := reg.Candidates
	defer func() {
		p.obs.Metrics.Histogram("plan.candidates", obs.ExpBuckets(1, 2, 12)).
			Observe(float64(reg.Candidates - startCand))
	}()

	orig := p.host.Original(in.Stream)
	vb := orig.Tap
	// The new stream's estimates depend only on the subscription input, not
	// on the candidate — compute them once instead of per candidate.
	size, freq := p.opt.Est.SizeFreq(in)
	selFreq := p.opt.Est.InputFreq(in)

	// Trace rows are bounded by the indexed stream count for this input (one
	// row per distinct stream, plus a possible widening row) — reserve the
	// slice once instead of growing it through repeated appends.
	nstreams := p.idx.Count(in.Stream)
	if it.Candidates == nil {
		it.Candidates = make([]obs.CandidateTrace, 0, nstreams+1)
	}
	rows := make(map[*Deployed]int, nstreams)
	rowFor := func(d *Deployed, at network.PeerID) (int, bool) {
		if i, ok := rows[d]; ok {
			return i, false
		}
		it.Candidates = append(it.Candidates, obs.CandidateTrace{Stream: d.ID, FoundAt: string(at)})
		i := len(it.Candidates) - 1
		rows[d] = i
		return i, true
	}

	var best *Candidate
	// consider records a costed plan in its trace row and keeps it if it is
	// selectable and strictly cheaper than the incumbent.
	consider := func(c *Candidate, row int) {
		ct := &it.Candidates[row]
		ct.Match, ct.Reason = true, "match"
		p.traceCandidate(ct, c)
		c.row = row + 1
		if !(p.opt.Admission && c.Usage.Overloaded()) && (best == nil || c.Cost < best.Cost) {
			best = c
		}
	}

	// The fallback plan from the original source.
	c, err := p.shareCandidate(orig, vb, in, target, size, freq, selFreq)
	if err != nil {
		return nil, err
	}
	i, _ := rowFor(orig, vb)
	consider(c, i)

	// Discovery. Non-matching properties do not extend the search (§3.3:
	// following these paths cannot yield a reusable stream).
	lv := []network.PeerID{vb}
	marked := map[network.PeerID]bool{}
	queued := map[network.PeerID]bool{vb: true}
	for len(lv) > 0 {
		v := lv[0]
		lv = lv[1:]
		if marked[v] {
			continue
		}
		marked[v] = true
		reg.Visited++
		it.Visited = append(it.Visited, string(v))
		for _, d := range p.available(v, in.Stream) {
			reg.Candidates++
			i, fresh := rowFor(d, v)
			if !p.matchInput(d.Input, in) {
				if fresh {
					it.Candidates[i].Reason = p.explainMismatch(d.Input, in)
				}
				continue
			}
			if n := d.Target(); !marked[n] && !queued[n] {
				lv = append(lv, n)
				queued[n] = true
			}
			if !fresh {
				continue
			}
			c, err := p.shareCandidate(d, v, in, target, size, freq, selFreq)
			if err != nil {
				ct := &it.Candidates[i]
				ct.Match, ct.Reason, ct.Err = true, "match", err.Error()
				continue
			}
			consider(c, i)
		}
	}

	// Discovery costs one request/reply pair per visited peer; the
	// properties of the streams available there piggyback on the reply.
	reg.Messages += 2 * reg.Visited
	if p.opt.Widening && (best == nil || best.Source.Original) {
		// Nothing shareable is flowing: consider altering an existing
		// stream so it carries enough data for both its consumers and this
		// subscription (§6).
		if wc := p.widenCandidate(in, target); wc != nil && (best == nil || wc.Cost < best.Cost) {
			best = wc
			ct := obs.CandidateTrace{
				Stream: wc.Widen.D.ID, FoundAt: string(wc.Widen.D.Tap),
				Match: true, Reason: "widenable", Widened: true,
			}
			p.traceCandidate(&ct, wc)
			it.Candidates = append(it.Candidates, ct)
			wc.row = len(it.Candidates)
		}
	}
	if best == nil {
		return nil, ErrRejected
	}
	reg.Messages += 2*(len(best.Route)-1) + 2
	if p.opt.Admission && best.Usage.Overloaded() {
		return nil, ErrRejected
	}
	if best.row > 0 {
		it.Candidates[best.row-1].Selected = true
	}
	return best, nil
}

// shareCandidate is generatePlan(p, v, vq): reuse stream d — discovered at
// peer v — for the subscription input in, routing the residual result to the
// target. The duplication point is the peer on d's route closest to the
// target (earliest on the route on ties), which is how the paper's example
// duplicates Query 1's result at SP5 rather than at its endpoint SP1.
// Overload handling is the caller's: the candidate is returned with its
// usage filled either way, so rejected plans still show up in traces.
func (p *Planner) shareCandidate(d *Deployed, v network.PeerID, in *properties.Input, target network.PeerID, size, freq, selFreq float64) (*Candidate, error) {
	var route []network.PeerID
	for _, tap := range d.Route {
		r := p.shortestPath(tap, target)
		if r != nil && (route == nil || len(r) < len(route)) {
			route = r
		}
	}
	if route == nil {
		return nil, fmt.Errorf("core: no path from %s to %s", v, target)
	}
	v = route[0]
	ops, err := p.residualOps(d.Input, in)
	if err != nil {
		return nil, err
	}
	c := &Candidate{Source: d, Tap: v, Route: route, Size: size, Freq: freq,
		ResidualOps: ops}
	p.costCandidate(c, selFreq, []string{cost.OpRestructure}, target)
	return c, nil
}

// costCandidate fills the candidate's usage, absolute additions and cost
// value: the new stream's traffic on every route link, residual operators
// and duplication at the tap, forwarding at intermediate peers, and the
// local pipeline at the target. The additions accumulate into small
// insertion-ordered association lists — a route touches a handful of peers,
// where two map allocations per candidate dominated the costing profile —
// and the public maps wait for materialize(). A widening candidate arrives
// with its rewiring delta already on the lists. selFreq is the
// post-selection item frequency of the subscription input (estimated once
// per plan call; it does not depend on the candidate).
func (p *Planner) costCandidate(c *Candidate, selFreq float64, targetOps []string, target network.PeerID) {
	if c.linkAdds == nil { // each on its own: a one-peer widened route seeds no link
		c.linkAdds = make([]linkAdd, 0, len(c.Route))
	}
	if c.peerAdds == nil {
		c.peerAdds = make([]peerAdd, 0, len(c.Route)+1)
	}
	addLink := func(l network.LinkID, b float64) {
		for i := range c.linkAdds {
			if c.linkAdds[i].id == l {
				c.linkAdds[i].b += b
				return
			}
		}
		c.linkAdds = append(c.linkAdds, linkAdd{id: l, b: b})
	}
	addPeer := func(v network.PeerID, w float64) {
		for i := range c.peerAdds {
			if c.peerAdds[i].id == v {
				c.peerAdds[i].w += w
				return
			}
		}
		c.peerAdds = append(c.peerAdds, peerAdd{id: v, w: w})
	}

	bytesPerSec := c.Size * c.Freq
	for i := 0; i+1 < len(c.Route); i++ {
		addLink(network.MakeLinkID(c.Route[i], c.Route[i+1]), bytesPerSec)
	}

	addOp := func(v network.PeerID, op string, freq float64) {
		addPeer(v, p.opt.Model.OpLoad(op, p.net.Peer(v), freq))
	}
	// Duplication at the tap: the reused stream keeps flowing to its own
	// consumers; tapping it forks a copy (§1's duplication at SP5).
	if !c.Source.Original || c.Tap != c.Source.Tap {
		addOp(c.Tap, cost.OpDuplicate, c.Source.Freq)
	}
	// Residual operators at the tap. Pre-selection stages see the parent's
	// frequency, window stages the post-selection item frequency, and
	// post-window stages the result frequency.
	inFreq := c.Source.Freq
	for _, op := range c.ResidualOps {
		addOp(c.Tap, op, inFreq)
		switch op {
		case cost.OpSelect:
			inFreq = selFreq
		case cost.OpWindowAgg, cost.OpWindowContents, cost.OpWindowMerge, cost.OpRemap:
			inFreq = c.Freq
		}
	}
	// Forwarding at intermediate peers.
	for _, v := range c.Route[1:] {
		if v == target {
			continue
		}
		addPeer(v, p.opt.Model.ForwardLoad(p.net.Peer(v), c.Freq, c.Size))
	}
	// Local pipeline at the target.
	for _, op := range targetOps {
		f := c.Freq
		if op == cost.OpSelect || op == cost.OpWindowAgg || op == cost.OpWindowContents {
			// Data shipping evaluates from the raw stream at the target.
			f = c.Source.Freq
		}
		addOp(target, op, f)
	}

	// Relative usage against remaining capacity.
	c.Usage.Links = make([]cost.LinkUsage, 0, len(c.linkAdds))
	c.Usage.Peers = make([]cost.PeerUsage, 0, len(c.peerAdds))
	for _, la := range c.linkAdds {
		bw := p.net.Link(la.id.A, la.id.B).Bandwidth
		c.Usage.Links = append(c.Usage.Links, cost.LinkUsage{
			ID: la.id, Ub: la.b / bw, Ab: 1 - p.host.LinkLoad(la.id)/bw,
		})
	}
	for _, pa := range c.peerAdds {
		cap := p.net.Peer(pa.id).Capacity
		c.Usage.Peers = append(c.Usage.Peers, cost.PeerUsage{
			ID: pa.id, Ul: pa.w / cap, Al: 1 - p.host.PeerLoad(pa.id)/cap,
		})
	}
	c.Cost = p.opt.Model.Cost(c.Usage)
}
