package plan

import (
	"errors"
	"sync"

	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/properties"
)

// Route is a minimum-hop path resolved against the topology it was computed
// on: the peers and links costing prices, and the peer names a trace row
// shows. Resolving it once per topology leaves costing a candidate with
// pointer reads instead of topology lookups. A Route is shared between
// callers and must not be mutated.
type Route struct {
	IDs   []network.PeerID
	Peers []*network.Peer
	// Links[i] joins IDs[i] and IDs[i+1]; its ID is the canonical LinkID.
	Links []*network.Link
	// Names spells IDs for decision traces, which alias it.
	Names []string
}

// resolveRoute resolves a path of peer ids against the topology; nil stays
// nil (unreachable).
func resolveRoute(net *network.Network, ids []network.PeerID) *Route {
	if ids == nil {
		return nil
	}
	r := &Route{
		IDs:   ids,
		Peers: make([]*network.Peer, len(ids)),
		Links: make([]*network.Link, len(ids)-1),
		Names: make([]string, len(ids)),
	}
	for i, v := range ids {
		r.Peers[i], r.Names[i] = net.Peer(v), string(v)
		if i > 0 {
			r.Links[i-1] = net.Link(ids[i-1], v)
		}
	}
	return r
}

// RouteCache memoizes minimum-hop shortest paths, resolved (Route), including
// negative results (unreachable pairs). Any topology mutation — capacity and
// bandwidth changes included — clears it wholesale: the planner wires Clear
// into Network.OnChange, so a cached route is always a path over the current
// live topology and never outlives it. It is safe for concurrent use: a
// topology change can fire Clear outside the engine's control-plane lock.
type RouteCache struct {
	mu        sync.Mutex
	paths     map[[2]network.PeerID]*Route
	hit, miss *obs.Counter
}

// NewRouteCache returns an empty route cache reporting hit/miss counters to
// the given registry. The counters are resolved once here: planning consults
// the cache per candidate, and a registry lookup per hit would cost more
// than the hit saves.
func NewRouteCache(reg *obs.Registry) *RouteCache {
	return &RouteCache{
		paths: map[[2]network.PeerID]*Route{},
		hit:   reg.Counter("plan.cache.route.hit"),
		miss:  reg.Counter("plan.cache.route.miss"),
	}
}

// Path returns the resolved minimum-hop route from a to b over the live
// topology (nil when unreachable), computing and memoizing it on first use.
// The returned route is shared between callers and must not be mutated.
func (c *RouteCache) Path(net *network.Network, a, b network.PeerID) *Route {
	key := [2]network.PeerID{a, b}
	c.mu.Lock()
	r, ok := c.paths[key]
	c.mu.Unlock()
	if ok {
		c.hit.Inc()
		return r
	}
	c.miss.Inc()
	r = resolveRoute(net, net.ShortestPath(a, b))
	c.mu.Lock()
	c.paths[key] = r
	c.mu.Unlock()
	return r
}

// Clear drops every memoized route. Called on every topology change.
func (c *RouteCache) Clear() {
	c.mu.Lock()
	c.paths = map[[2]network.PeerID]*Route{}
	c.mu.Unlock()
}

// MatchCache memoizes properties.MatchInput outcomes keyed by the canonical
// fingerprints of the two inputs (via their interned FingerprintIDs, packed
// into one uint64 — hashing the fingerprint strings themselves on every
// probe costs more than Algorithm 2's fast paths). Fingerprint equality
// implies semantic equality of everything Algorithm 2 inspects, so a
// memoized outcome holds for every input pair that encodes the same way;
// properties are immutable once built, so entries never go stale. The cache
// is unbounded: the key space is the set of distinct (stream shape,
// subscription shape) pairs the system has seen, which grows with the query
// workload, not with time.
type MatchCache struct {
	mu        sync.Mutex
	outcomes  map[uint64]bool
	explains  map[uint64]string
	residuals map[uint64]residual

	matchHit, matchMiss       *obs.Counter
	explainHit, explainMiss   *obs.Counter
	residualHit, residualMiss *obs.Counter
}

// residual is a memoized residual-pipeline compilation between two input
// shapes: the operator names the planner prices, or the compile error.
type residual struct {
	ops []string
	err string
}

// pairKey packs the two inputs' interned fingerprint ids into one map key.
func pairKey(have, want *properties.Input) uint64 {
	return uint64(have.FingerprintID())<<32 | uint64(want.FingerprintID())
}

// NewMatchCache returns an empty match cache reporting hit/miss counters to
// the given registry.
func NewMatchCache(reg *obs.Registry) *MatchCache {
	return &MatchCache{
		outcomes:     map[uint64]bool{},
		explains:     map[uint64]string{},
		residuals:    map[uint64]residual{},
		matchHit:     reg.Counter("plan.cache.match.hit"),
		matchMiss:    reg.Counter("plan.cache.match.miss"),
		explainHit:   reg.Counter("plan.cache.explain.hit"),
		explainMiss:  reg.Counter("plan.cache.explain.miss"),
		residualHit:  reg.Counter("plan.cache.residual.hit"),
		residualMiss: reg.Counter("plan.cache.residual.miss"),
	}
}

// Match reports whether a subscription wanting `want` can be fed from a
// stream carrying `have` (Algorithm 2), memoized by fingerprint.
func (c *MatchCache) Match(have, want *properties.Input) bool {
	key := pairKey(have, want)
	c.mu.Lock()
	m, ok := c.outcomes[key]
	c.mu.Unlock()
	if ok {
		c.matchHit.Inc()
		return m
	}
	c.matchMiss.Inc()
	m = properties.MatchInput(have, want)
	c.mu.Lock()
	c.outcomes[key] = m
	c.mu.Unlock()
	return m
}

// Explain returns the trace reason for a mismatch between `want` and a
// stream carrying `have`, memoized the same way as Match. Rendering the
// explanation walks and prints predicate graphs — by far the most expensive
// part of considering a non-matching candidate — and like the outcome it is
// a pure function of the two input shapes.
func (c *MatchCache) Explain(have, want *properties.Input) string {
	key := pairKey(have, want)
	c.mu.Lock()
	e, ok := c.explains[key]
	c.mu.Unlock()
	if ok {
		c.explainHit.Inc()
		return e
	}
	c.explainMiss.Inc()
	e = properties.ExplainInputMismatch(have, want)
	c.mu.Lock()
	c.explains[key] = e
	c.mu.Unlock()
	return e
}

// Residual returns the operator names of the residual pipeline that derives
// `want` from a stream carrying `have` — or the pipeline's compile error —
// memoized by fingerprint like Match. Costing consumes only the operator
// names; installation compiles its pipelines fresh so no operator state is
// ever shared, which is what makes the compiled result safe to skip here.
// The returned slice is shared between callers and must not be mutated.
func (c *MatchCache) Residual(have, want *properties.Input) ([]string, error) {
	key := pairKey(have, want)
	c.mu.Lock()
	r, ok := c.residuals[key]
	c.mu.Unlock()
	if ok {
		c.residualHit.Inc()
	} else {
		c.residualMiss.Inc()
		if pl, err := exec.ResidualPipeline(have, want, nil); err != nil {
			r = residual{err: err.Error()}
		} else {
			r = residual{ops: opNames(pl.Ops)}
		}
		c.mu.Lock()
		c.residuals[key] = r
		c.mu.Unlock()
	}
	if r.err != "" {
		return nil, errors.New(r.err)
	}
	return r.ops, nil
}
