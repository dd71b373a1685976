// Package network implements the super-peer backbone substrate: peers with
// capacity and performance indices, links with bandwidth, shortest-path
// routing, and traffic/load metering used by both the cost model (§3.2) and
// the experimental evaluation (§4).
//
// The paper runs one super-peer per blade on a 100 Mbit LAN; here the
// topology is simulated in-process and the evaluation metrics (average CPU
// load, link traffic) are ratios of the modeled capacities, which preserves
// the relative comparison between data shipping, query shipping and stream
// sharing.
//
// The topology is mutable after construction: peers and links can fail and
// be restored, new peers and links can join, and capacities/bandwidths can
// change (the §6 dynamic-network concern; see internal/adapt for the repair
// layer that reacts to these events). Routing — Neighbors, ShortestPath —
// only ever uses the live part of the topology. Change observers registered
// with OnChange are notified synchronously of every mutation.
package network

import (
	"fmt"
	"sort"

	"streamshare/internal/obs"
)

// PeerID names a peer, e.g. "SP4" or "P1".
type PeerID string

// Peer is a network node. Super-peers form the stationary backbone and run
// operators; thin-peers deliver data streams or register queries.
type Peer struct {
	ID PeerID
	// Super marks backbone super-peers.
	Super bool
	// Capacity is l(v): the maximum sustainable computational load in
	// abstract work units per second.
	Capacity float64
	// PerfIndex is pindex(v): a factor scaling the cost of work on this
	// peer (1.0 = reference hardware; larger = slower).
	PerfIndex float64
}

// LinkID identifies an undirected link by its canonically ordered endpoints.
type LinkID struct{ A, B PeerID }

// MakeLinkID returns the canonical id for the link between two peers.
func MakeLinkID(a, b PeerID) LinkID {
	if b < a {
		a, b = b, a
	}
	return LinkID{A: a, B: b}
}

// String renders the link as "A-B".
func (l LinkID) String() string { return string(l.A) + "-" + string(l.B) }

// Link is an undirected network connection.
type Link struct {
	ID LinkID
	// Bandwidth is b(e) in bytes per second.
	Bandwidth float64
}

// ChangeKind enumerates topology mutations.
type ChangeKind int

// Topology change kinds, emitted to OnChange observers.
const (
	PeerAdded ChangeKind = iota
	PeerFailed
	PeerRestored
	LinkAdded
	LinkFailed
	LinkRestored
	CapacityChanged
	BandwidthChanged
)

// Change describes one topology mutation. Peer is set for peer events and
// capacity changes; Link for link events and bandwidth changes; Value carries
// the new capacity or bandwidth.
type Change struct {
	Kind  ChangeKind
	Peer  PeerID
	Link  LinkID
	Value float64
}

// Network is a topology of peers and links, mutable after construction.
type Network struct {
	peers map[PeerID]*Peer
	links map[LinkID]*Link
	adj   map[PeerID][]PeerID

	downPeers map[PeerID]bool
	downLinks map[LinkID]bool
	watchers  []func(Change)
}

// New returns an empty network.
func New() *Network {
	return &Network{
		peers:     map[PeerID]*Peer{},
		links:     map[LinkID]*Link{},
		adj:       map[PeerID][]PeerID{},
		downPeers: map[PeerID]bool{},
		downLinks: map[LinkID]bool{},
	}
}

// OnChange registers an observer notified synchronously of every topology
// mutation, in registration order.
func (n *Network) OnChange(fn func(Change)) { n.watchers = append(n.watchers, fn) }

func (n *Network) notify(c Change) {
	for _, fn := range n.watchers {
		fn(c)
	}
}

// AddPeer registers a peer; it panics on duplicates (topologies are built
// programmatically — use Peer() to probe before dynamic joins).
func (n *Network) AddPeer(p Peer) {
	if _, dup := n.peers[p.ID]; dup {
		panic(fmt.Sprintf("network: duplicate peer %s", p.ID))
	}
	if p.Capacity <= 0 {
		p.Capacity = 1
	}
	if p.PerfIndex <= 0 {
		p.PerfIndex = 1
	}
	cp := p
	n.peers[p.ID] = &cp
	n.notify(Change{Kind: PeerAdded, Peer: p.ID, Value: cp.Capacity})
}

// Connect links two existing peers with the given bandwidth (bytes/second).
func (n *Network) Connect(a, b PeerID, bandwidth float64) {
	if n.peers[a] == nil || n.peers[b] == nil {
		panic(fmt.Sprintf("network: connect unknown peer %s-%s", a, b))
	}
	id := MakeLinkID(a, b)
	if _, dup := n.links[id]; dup {
		panic(fmt.Sprintf("network: duplicate link %s", id))
	}
	n.links[id] = &Link{ID: id, Bandwidth: bandwidth}
	n.adj[a] = insertSorted(n.adj[a], b)
	n.adj[b] = insertSorted(n.adj[b], a)
	n.notify(Change{Kind: LinkAdded, Link: id, Value: bandwidth})
}

// FailPeer marks a peer as down. Routing excludes it (and implicitly every
// link incident to it) until RestorePeer. Failing an already-down peer is a
// no-op.
func (n *Network) FailPeer(id PeerID) error {
	if n.peers[id] == nil {
		return fmt.Errorf("network: fail unknown peer %s", id)
	}
	if n.downPeers[id] {
		return nil
	}
	n.downPeers[id] = true
	n.notify(Change{Kind: PeerFailed, Peer: id})
	return nil
}

// RestorePeer brings a failed peer back. Restoring an up peer is a no-op.
func (n *Network) RestorePeer(id PeerID) error {
	if n.peers[id] == nil {
		return fmt.Errorf("network: restore unknown peer %s", id)
	}
	if !n.downPeers[id] {
		return nil
	}
	delete(n.downPeers, id)
	n.notify(Change{Kind: PeerRestored, Peer: id})
	return nil
}

// FailLink marks the link between two peers as down until RestoreLink.
func (n *Network) FailLink(a, b PeerID) error {
	id := MakeLinkID(a, b)
	if n.links[id] == nil {
		return fmt.Errorf("network: fail unknown link %s", id)
	}
	if n.downLinks[id] {
		return nil
	}
	n.downLinks[id] = true
	n.notify(Change{Kind: LinkFailed, Link: id})
	return nil
}

// RestoreLink brings a failed link back.
func (n *Network) RestoreLink(a, b PeerID) error {
	id := MakeLinkID(a, b)
	if n.links[id] == nil {
		return fmt.Errorf("network: restore unknown link %s", id)
	}
	if !n.downLinks[id] {
		return nil
	}
	delete(n.downLinks, id)
	n.notify(Change{Kind: LinkRestored, Link: id})
	return nil
}

// PeerUp reports whether the peer exists and is not failed.
func (n *Network) PeerUp(id PeerID) bool { return n.peers[id] != nil && !n.downPeers[id] }

// LinkUp reports whether the link exists, is not failed, and both its
// endpoints are up.
func (n *Network) LinkUp(a, b PeerID) bool {
	id := MakeLinkID(a, b)
	return n.links[id] != nil && !n.downLinks[id] && n.PeerUp(a) && n.PeerUp(b)
}

// SetCapacity changes a peer's computational capacity (work units/second).
func (n *Network) SetCapacity(id PeerID, capacity float64) error {
	p := n.peers[id]
	if p == nil {
		return fmt.Errorf("network: set capacity of unknown peer %s", id)
	}
	if capacity <= 0 {
		return fmt.Errorf("network: capacity of %s must be positive", id)
	}
	p.Capacity = capacity
	n.notify(Change{Kind: CapacityChanged, Peer: id, Value: capacity})
	return nil
}

// SetBandwidth changes a link's bandwidth (bytes/second).
func (n *Network) SetBandwidth(a, b PeerID, bandwidth float64) error {
	id := MakeLinkID(a, b)
	l := n.links[id]
	if l == nil {
		return fmt.Errorf("network: set bandwidth of unknown link %s", id)
	}
	if bandwidth <= 0 {
		return fmt.Errorf("network: bandwidth of %s must be positive", id)
	}
	l.Bandwidth = bandwidth
	n.notify(Change{Kind: BandwidthChanged, Link: id, Value: bandwidth})
	return nil
}

// Peer returns a peer by id, or nil.
func (n *Network) Peer(id PeerID) *Peer { return n.peers[id] }

// Link returns the link between two peers, or nil.
func (n *Network) Link(a, b PeerID) *Link { return n.links[MakeLinkID(a, b)] }

// Peers returns all peer ids in sorted order.
func (n *Network) Peers() []PeerID {
	out := make([]PeerID, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SuperPeers returns all backbone peer ids in sorted order.
func (n *Network) SuperPeers() []PeerID {
	var out []PeerID
	for id, p := range n.peers {
		if p.Super {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Links returns all link ids in sorted order.
func (n *Network) Links() []LinkID {
	out := make([]LinkID, 0, len(n.links))
	for id := range n.links {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// insertSorted adds id to a sorted adjacency list, keeping it sorted.
// Adjacency lists are maintained sorted on Connect so Neighbors never
// re-sorts on the planner's hot path.
func insertSorted(list []PeerID, id PeerID) []PeerID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	list = append(list, "")
	copy(list[i+1:], list[i:])
	list[i] = id
	return list
}

// Neighbors returns the peers reachable from id over live links, in sorted
// order. Failed peers and failed links are excluded.
//
// The returned slice may alias the network's internal adjacency list and is
// only valid until the next topology mutation; callers must treat it as
// read-only. On a fully live topology (the common case on the planner's BFS
// hot path) this performs no allocation and no sorting.
func (n *Network) Neighbors(id PeerID) []PeerID {
	adj := n.adj[id]
	if len(n.downPeers) == 0 && len(n.downLinks) == 0 {
		return adj
	}
	if !n.PeerUp(id) {
		return nil
	}
	// Degraded topology: find the first excluded neighbor; everything before
	// it can seed the filtered copy directly (adj is already sorted).
	for i, w := range adj {
		if n.liveEdge(id, w) {
			continue
		}
		out := append(make([]PeerID, 0, len(adj)-1), adj[:i]...)
		for _, w := range adj[i+1:] {
			if n.liveEdge(id, w) {
				out = append(out, w)
			}
		}
		return out
	}
	return adj
}

// liveEdge reports whether the edge from an up peer id to neighbor w is
// usable: w is up and the connecting link is not failed. Unlike LinkUp it
// assumes id itself was already checked.
func (n *Network) liveEdge(id, w PeerID) bool {
	return !n.downPeers[w] && !n.downLinks[MakeLinkID(id, w)]
}

// ShortestPath returns a minimum-hop path from a to b over the live topology
// including both endpoints, or nil if unreachable (including when either
// endpoint is down). Ties break deterministically by peer id.
func (n *Network) ShortestPath(a, b PeerID) []PeerID {
	if !n.PeerUp(a) || !n.PeerUp(b) {
		return nil
	}
	if a == b {
		return []PeerID{a}
	}
	prev := map[PeerID]PeerID{a: a}
	frontier := []PeerID{a}
	for len(frontier) > 0 {
		var next []PeerID
		for _, v := range frontier {
			for _, w := range n.Neighbors(v) {
				if _, seen := prev[w]; seen {
					continue
				}
				prev[w] = v
				if w == b {
					return buildPath(prev, a, b)
				}
				next = append(next, w)
			}
		}
		frontier = next
	}
	return nil
}

func buildPath(prev map[PeerID]PeerID, a, b PeerID) []PeerID {
	var rev []PeerID
	for v := b; v != a; v = prev[v] {
		rev = append(rev, v)
	}
	rev = append(rev, a)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathLinks returns the link ids along a peer path.
func PathLinks(path []PeerID) []LinkID {
	if len(path) < 2 {
		return nil
	}
	out := make([]LinkID, len(path)-1)
	for i := 0; i < len(path)-1; i++ {
		out[i] = MakeLinkID(path[i], path[i+1])
	}
	return out
}

// Metrics accumulates traffic and load during a simulation run or from
// analytic estimates.
type Metrics struct {
	// LinkBytes is the number of bytes transmitted per link.
	LinkBytes map[LinkID]float64
	// PeerWork is the accumulated computational work per peer in abstract
	// work units (already scaled by pindex).
	PeerWork map[PeerID]float64
}

// NewMetrics returns empty metrics.
func NewMetrics() *Metrics {
	return &Metrics{LinkBytes: map[LinkID]float64{}, PeerWork: map[PeerID]float64{}}
}

// AddTraffic records bytes crossing a link.
func (m *Metrics) AddTraffic(l LinkID, bytes float64) { m.LinkBytes[l] += bytes }

// AddWork records work units on a peer.
func (m *Metrics) AddWork(p PeerID, units float64) { m.PeerWork[p] += units }

// Merge adds other's counters into m.
func (m *Metrics) Merge(other *Metrics) {
	for l, b := range other.LinkBytes {
		m.LinkBytes[l] += b
	}
	for p, w := range other.PeerWork {
		m.PeerWork[p] += w
	}
}

// TotalBytes sums traffic over all links.
func (m *Metrics) TotalBytes() float64 {
	var t float64
	for _, b := range m.LinkBytes {
		t += b
	}
	return t
}

// TotalWork sums work over all peers.
func (m *Metrics) TotalWork() float64 {
	var t float64
	for _, w := range m.PeerWork {
		t += w
	}
	return t
}

// Publish feeds the accumulated counters into a metrics registry under the
// given prefix: one counter per link (<prefix>.link.bytes.<A-B>) and per
// peer (<prefix>.peer.work.<id>), plus <prefix>.traffic.bytes and
// <prefix>.work.units totals. Both execution backends publish through this
// after a run, so their snapshots are directly comparable.
func (m *Metrics) Publish(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	var tb, tw float64
	for l, b := range m.LinkBytes {
		reg.Counter(prefix + ".link.bytes." + l.String()).Add(b)
		tb += b
	}
	for p, w := range m.PeerWork {
		reg.Counter(prefix + ".peer.work." + string(p)).Add(w)
		tw += w
	}
	reg.Counter(prefix + ".traffic.bytes").Add(tb)
	reg.Counter(prefix + ".work.units").Add(tw)
}

// PeerBytes returns incoming plus outgoing traffic per peer (used for the
// accumulated-traffic view of Fig. 7).
func (m *Metrics) PeerBytes() map[PeerID]float64 {
	out := map[PeerID]float64{}
	for l, b := range m.LinkBytes {
		out[l.A] += b
		out[l.B] += b
	}
	return out
}
