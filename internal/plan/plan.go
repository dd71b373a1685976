// Package plan is the engine's control plane: Algorithm 1's plan search
// (discovery over the stream overlay, property matching, cost-based plan
// selection) behind a single entry point that Subscribe, Replan and
// TryMigrate all call through (PlanInput).
//
// The search is the paper's serial loop — discover, match, cost, keep the
// cheapest — and is fast through what it looks things up in, not through
// how it runs:
//
//   - a deployed-stream index (per-peer × per-input-stream posting lists,
//     maintained incrementally on install/uninstall and rebuilt on widening
//     rewires) instead of a scan over every deployed stream at every
//     visited peer;
//   - a route cache memoizing shortest paths, invalidated wholesale by the
//     network's OnChange events;
//   - a match cache memoizing properties.MatchInput outcomes, mismatch
//     explanations and residual operator lists, keyed by canonical input
//     fingerprints (properties are immutable once built).
//
// Reference (reference.go) answers the same lookups by brute force; it is
// the oracle the equivalence tests hold the index and the caches to.
package plan

import (
	"errors"
	"fmt"
	"time"

	"streamshare/internal/cost"
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/properties"
)

// Strategy selects how new subscriptions are planned (§4).
type Strategy int

// Planning strategies.
const (
	// DataShipping routes the whole input stream from its source to the
	// target super-peer, once per subscription, and evaluates there.
	DataShipping Strategy = iota
	// QueryShipping evaluates each subscription completely at the source
	// super-peer and ships the result.
	QueryShipping
	// StreamSharing runs Algorithm 1: reuse (possibly preprocessed) streams
	// already flowing in the network, chosen by the cost model.
	StreamSharing
)

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case DataShipping:
		return "Data Shipping"
	case QueryShipping:
		return "Query Shipping"
	case StreamSharing:
		return "Stream Sharing"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ErrRejected reports that no evaluation plan without overload exists for a
// subscription (the rejection experiment of §4). The message keeps the
// engine's historical prefix: rejection is an engine-level outcome.
var ErrRejected = errors.New("core: subscription rejected: every plan overloads a peer or connection")

// Deployed is a data stream flowing in the network: the original stream at
// its source super-peer, or a derived stream produced by operators at a tap
// peer and routed to a target. Every peer on the route can tap the stream
// for further sharing (§1's example duplicates Query 1's result at SP5).
type Deployed struct {
	ID string
	// Input describes the stream's content relative to its original input
	// (the properties of §3.1; identity for original streams).
	Input *properties.Input
	// Parent is the stream this one is derived from; nil for originals.
	Parent *Deployed
	// Tap is the peer where Residual runs (the first peer of Route).
	Tap network.PeerID
	// Route is the path the stream flows along, from Tap to its target.
	Route []network.PeerID
	// Residual transforms parent items into this stream's items at Tap. It
	// is a template: runs drive instances of it (exec.Pipeline.Instance).
	Residual *exec.Pipeline
	// Size and Freq are the cost model's estimates for one item and the
	// item frequency.
	Size, Freq float64
	// Original marks the raw source streams registered by data providers.
	Original bool
	// NotShareable marks streams whose items are restructured query results;
	// per §2 post-processing output is never considered for reuse.
	NotShareable bool
	// Broken marks streams severed by a topology failure: their tap, a route
	// peer or a route link is down (or an ancestor is broken). Broken streams
	// are never reused for sharing; their reserved usage has been released
	// and non-originals are swept once repaired.
	Broken bool
	// Hidden transiently excludes the stream from discovery while a
	// migration re-plans its subscription (TryMigrate).
	Hidden bool
	// Epoch is the engine's install epoch when the stream was (re)installed.
	// The reliable runtime stamps every message with it so receivers can
	// discard stale-epoch stragglers across a repair or migration.
	Epoch uint64

	// LinkAdd and PeerAdd record the analytic usage the stream's
	// installation added, so the engine can release it on teardown.
	LinkAdd map[network.LinkID]float64
	PeerAdd map[network.PeerID]float64
}

// Target returns getTNode(p): the peer the stream is delivered to.
func (d *Deployed) Target() network.PeerID { return d.Route[len(d.Route)-1] }

// OnRoute reports whether the stream is available at peer v.
func (d *Deployed) OnRoute(v network.PeerID) bool {
	for _, p := range d.Route {
		if p == v {
			return true
		}
	}
	return false
}

// RegStats records the cost of registering a subscription, reproducing
// Table 1: the measured algorithm time plus a modeled network latency of
// Messages control messages.
type RegStats struct {
	Compute time.Duration
	// Messages is the number of point-to-point control messages the
	// registration exchanged (discovery, property fetches, installation).
	Messages int
	// Visited is the number of peers the discovery traversed.
	Visited int
	// Candidates is the number of candidate streams whose properties were
	// matched.
	Candidates int
}

// Time returns the modeled total registration latency given a per-message
// network latency.
func (r RegStats) Time(perMessage time.Duration) time.Duration {
	return r.Compute + time.Duration(r.Messages)*perMessage
}

// Candidate is one evaluation plan for a single input stream of a new
// subscription: tap the source stream at a peer, run residual operators
// there, and route the result to the subscription's target.
type Candidate struct {
	Source *Deployed
	Tap    network.PeerID
	Route  []network.PeerID
	// ResidualOps names the operators the plan runs at the tap; the pipeline
	// itself is built fresh at install time so operator state is not shared
	// between costing and execution.
	ResidualOps []string
	// Size and Freq are the new stream's cost-model estimates.
	Size, Freq float64
	// LinkAdd and PeerAdd are the absolute additions to link and peer usage
	// if installed, materialized from the costing accumulators only on the
	// winning candidate (losing plans never need them).
	LinkAdd map[network.LinkID]float64
	PeerAdd map[network.PeerID]float64
	Usage   cost.Usage
	Cost    float64
	// Widen, when set, rewires an existing stream before installation
	// (§6's stream-widening extension).
	Widen *Widening

	// linkAdds/peerAdds accumulate the usage additions in first-touch order
	// during costing (after a widening candidate's rewiring delta, in key
	// order); materialize() folds them into the public maps.
	linkAdds []linkAdd
	peerAdds []peerAdd
	// row is 1+the candidate's trace-row index, 0 when untraced.
	row int
}

type linkAdd struct {
	id network.LinkID
	b  float64
}

type peerAdd struct {
	id network.PeerID
	w  float64
}

// materialize builds the public LinkAdd/PeerAdd maps from the costing
// accumulators. PlanInput calls it on the returned candidate; the per-key
// sums are identical to accumulating into the maps directly.
func (c *Candidate) materialize() {
	c.LinkAdd = make(map[network.LinkID]float64, len(c.linkAdds))
	for _, la := range c.linkAdds {
		c.LinkAdd[la.id] += la.b
	}
	c.PeerAdd = make(map[network.PeerID]float64, len(c.peerAdds))
	for _, pa := range c.peerAdds {
		c.PeerAdd[pa.id] += pa.w
	}
}

// Widening carries the rewiring decision inside a candidate: stream D is
// altered into W so it serves both its current consumers and the new
// subscription. The engine applies the rewire at install time.
type Widening struct {
	D  *Deployed         // existing stream to widen
	W  *Deployed         // the widened replacement (pre-built, not yet installed)
	In *properties.Input // widened properties
	// DPeerAdd and WLinkAdd/WPeerAdd are the post-rewire usage footprints of
	// D and W.
	DPeerAdd map[network.PeerID]float64
	WLinkAdd map[network.LinkID]float64
	WPeerAdd map[network.PeerID]float64
	// DeltaLink/DeltaPeer is the rewiring delta seeded into the candidate's
	// usage for costing; the installer applies the rewire exactly and
	// subtracts the delta again from the candidate's additions.
	DeltaLink map[network.LinkID]float64
	DeltaPeer map[network.PeerID]float64
}

// Host is the engine-side state the planner reads: the stream registry and
// the running usage totals the cost function prices against. The planner
// never mutates host state; installation stays with the engine.
type Host interface {
	// Original returns the registered original stream by name, or nil.
	Original(stream string) *Deployed
	// Streams returns all deployed streams, originals first, in creation
	// order.
	Streams() []*Deployed
	// LinkLoad returns the current analytic bandwidth use of a link.
	LinkLoad(l network.LinkID) float64
	// PeerLoad returns the current analytic load of a peer.
	PeerLoad(p network.PeerID) float64
}

// Options tunes a Planner.
type Options struct {
	Model cost.Model
	Est   *cost.Estimator
	// Admission rejects plans that would overload a peer or link.
	Admission bool
	// Widening enables the §6 stream-widening extension.
	Widening bool
}

// lookups is what Algorithm 1 asks of the catalog and the topology. Returned
// slices are shared; callers must not mutate them.
type lookups interface {
	// available returns the shareable, unbroken, visible deployed streams
	// flowing through peer v that derive from the named original input
	// stream, in deployment order.
	available(v network.PeerID, stream string) []*Deployed
	// shortestPath resolves a minimum-hop route over the live topology, nil
	// when unreachable.
	shortestPath(a, b network.PeerID) []network.PeerID
	// matchInput runs Algorithm 2.
	matchInput(have, want *properties.Input) bool
	// explainMismatch renders the trace reason for a failed match.
	explainMismatch(have, want *properties.Input) string
	// residualOps names the operators of the residual pipeline deriving
	// `want` from a stream carrying `have`.
	residualOps(have, want *properties.Input) ([]string, error)
}

// Planner runs the plan search for the engine.
type Planner struct {
	lookups
	net  *network.Network
	host Host
	opt  Options
	obs  *obs.Observer
	idx  *Index
}

// indexed answers the planner's lookups from the posting-list index and the
// fingerprint-keyed caches.
type indexed struct {
	net    *network.Network
	idx    *Index
	routes *RouteCache
	match  *MatchCache
}

// New returns a planner over the given topology and engine state. It
// registers a network change observer that invalidates the route cache on
// every topology mutation.
func New(net *network.Network, host Host, opt Options, o *obs.Observer) *Planner {
	x := &indexed{
		net:    net,
		idx:    NewIndex(),
		routes: NewRouteCache(o.Metrics),
		match:  NewMatchCache(o.Metrics),
	}
	net.OnChange(func(network.Change) { x.routes.Clear() })
	return &Planner{lookups: x, net: net, host: host, opt: opt, obs: o, idx: x.idx}
}

// Install adds a newly deployed stream to the discovery index.
func (p *Planner) Install(d *Deployed) { p.idx.Install(d) }

// Uninstall removes a released or swept stream from the discovery index.
func (p *Planner) Uninstall(d *Deployed) { p.idx.Uninstall(d) }

// Reindex rebuilds the discovery index from the engine's deployed-stream
// slice. The engine calls it after widening rewires, which reorder streams
// and change routes in place — a rare event, so a full rebuild beats
// tracking the individual moves.
func (p *Planner) Reindex(all []*Deployed) { p.idx.Rebuild(all) }

// Broken and hidden streams are filtered at query time (their flags flip
// without index events).
func (x *indexed) available(v network.PeerID, stream string) []*Deployed {
	return x.idx.Available(v, stream)
}

func (x *indexed) shortestPath(a, b network.PeerID) []network.PeerID {
	return x.routes.Path(x.net, a, b)
}

func (x *indexed) matchInput(have, want *properties.Input) bool {
	return x.match.Match(have, want)
}

func (x *indexed) explainMismatch(have, want *properties.Input) string {
	return x.match.Explain(have, want)
}

func (x *indexed) residualOps(have, want *properties.Input) ([]string, error) {
	return x.match.Residual(have, want)
}
