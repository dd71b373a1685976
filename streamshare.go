// Package streamshare is a data stream management system for continuous
// WXQuery subscriptions over XML data streams in super-peer networks,
// reproducing "Data Stream Sharing" (Kuntschke & Kemper, EDBT 2006, the
// StreamGlobe project).
//
// A System hosts a simulated super-peer topology. Data providers register
// original streams with collected statistics; subscribers register
// continuous queries written in WXQuery (XQuery with data windows). New
// subscriptions are planned with one of three strategies: data shipping,
// query shipping, or stream sharing — the paper's contribution, which
// searches the network for already-flowing (possibly preprocessed) streams
// whose properties imply they contain everything the new query needs, and
// reuses the cheapest one according to a cost model balancing network
// traffic and peer load.
//
// Quick start:
//
//	net := streamshare.NewNetwork()
//	net.AddPeer(streamshare.Peer{ID: "SP0", Super: true, Capacity: 1000})
//	… connect peers …
//	sys := streamshare.NewSystem(net, streamshare.Config{})
//	sys.RegisterStreamItems("photons", "photons/photon", "SP0", items, 100)
//	sub, err := sys.Subscribe(queryText, "SP3", streamshare.StreamSharing)
//	res, err := sys.Simulate(map[string][]*streamshare.Item{"photons": items}, true)
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package streamshare

import (
	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/photons"
	"streamshare/internal/properties"
	"streamshare/internal/runtime"
	"streamshare/internal/stats"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// Re-exported building blocks. The aliases form the public surface of the
// library; the implementation lives in internal packages.
type (
	// Network is a super-peer topology with links and capacities.
	Network = network.Network
	// Peer is one network node.
	Peer = network.Peer
	// PeerID names a peer.
	PeerID = network.PeerID
	// LinkID names an undirected network connection.
	LinkID = network.LinkID
	// Item is one XML stream item (an element tree).
	Item = xmlstream.Element
	// Path addresses elements along the child axis.
	Path = xmlstream.Path
	// Query is a parsed WXQuery subscription.
	Query = wxquery.Query
	// Properties is the §3.1 representation of subscriptions and streams.
	Properties = properties.Properties
	// Strategy selects the planning strategy.
	Strategy = core.Strategy
	// Config tunes the engine (cost model, admission control, ablations).
	Config = core.Config
	// Subscription is an installed continuous query.
	Subscription = core.Subscription
	// Deployed is a data stream flowing in the network.
	Deployed = core.Deployed
	// SimResult holds measurements of a simulated delivery run.
	SimResult = core.SimResult
	// StreamStats are collected statistics of an original stream.
	StreamStats = stats.Stream
	// Observer bundles the instrumentation layer: a metrics registry fed by
	// every subsystem and a tracer retaining recent planning decisions. Pass
	// one in Config.Obs to share it between systems (e.g. a simulator and a
	// distributed runtime whose snapshots should be comparable).
	Observer = obs.Observer
	// MetricsRegistry is a concurrent-safe registry of named counters,
	// gauges and histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, with Delta and
	// WriteText for diffing and rendering.
	MetricsSnapshot = obs.Snapshot
	// DecisionTrace records one Subscribe call: every candidate stream the
	// search considered, match outcomes with rejection reasons, cost
	// breakdowns, and the winning plan (Subscription.Trace holds it).
	DecisionTrace = obs.DecisionTrace
	// CandidateTrace is one considered stream within a DecisionTrace.
	CandidateTrace = obs.CandidateTrace
)

// Planning strategies (§4).
const (
	DataShipping  = core.DataShipping
	QueryShipping = core.QueryShipping
	StreamSharing = core.StreamSharing
)

// Rejection error of admission control.
var ErrRejected = core.ErrRejected

// NewNetwork returns an empty topology.
func NewNetwork() *Network { return network.New() }

// NewObserver returns a fresh instrumentation layer for Config.Obs.
func NewObserver() *Observer { return obs.NewObserver() }

// ParsePath parses a child-axis element path such as "coord/cel/ra".
func ParsePath(s string) Path { return xmlstream.ParsePath(s) }

// ParseQuery parses a WXQuery subscription.
func ParseQuery(src string) (*Query, error) { return wxquery.Parse(src) }

// BuildProperties derives the properties of a parsed subscription,
// normalizing, satisfiability-checking and minimizing its predicates
// (§3.1/§3.3).
func BuildProperties(q *Query) (*Properties, error) { return properties.FromQuery(q) }

// Match reports whether the data stream described by p can be shared to
// answer the subscription described by sub (Algorithm 2).
func Match(p, sub *Properties) bool { return properties.MatchProperties(p, sub) }

// CollectStats computes stream statistics from a sample of items.
func CollectStats(name, itemName string, items []*Item, freq float64) *StreamStats {
	return stats.Collect(name, itemName, items, freq)
}

// PhotonConfig bounds the synthetic RASS photon generator (the stand-in for
// the paper's real astrophysical data; see DESIGN.md, Substitutions).
type PhotonConfig = photons.Config

// DefaultPhotonConfig covers the vela region used by the paper's queries.
func DefaultPhotonConfig() PhotonConfig { return photons.DefaultConfig() }

// GeneratePhotons produces n deterministic synthetic photons.
func GeneratePhotons(cfg PhotonConfig, seed int64, n int) []*Item {
	return photons.NewGenerator(cfg, seed).Generate(n)
}

// MarshalItem renders an item in its canonical serialization.
func MarshalItem(it *Item) string { return xmlstream.Marshal(it) }

// System is a StreamGlobe-style data stream management system over a
// super-peer network.
type System struct {
	eng *core.Engine
}

// NewSystem creates a system over the given topology.
func NewSystem(net *Network, cfg Config) *System {
	return &System{eng: core.NewEngine(net, cfg)}
}

// Engine exposes the underlying engine for advanced use (load inspection,
// ablation experiments).
func (s *System) Engine() *core.Engine { return s.eng }

// Obs returns the system's instrumentation layer: the metrics registry every
// subsystem feeds (subscribe counters, simulator and runtime traffic/work,
// per-operator item counts) and the tracer holding recent planning
// decisions.
func (s *System) Obs() *Observer { return s.eng.Obs() }

// RegisterStream registers an original data stream at a super-peer with
// precomputed statistics.
func (s *System) RegisterStream(name, itemPath string, at PeerID, st *StreamStats) (*Deployed, error) {
	return s.eng.RegisterStream(name, ParsePath(itemPath), at, st)
}

// RegisterStreamItems registers an original data stream, collecting
// statistics from the given sample with the given arrival frequency
// (items/second).
func (s *System) RegisterStreamItems(name, itemPath string, at PeerID, sample []*Item, freq float64) (*Deployed, error) {
	p := ParsePath(itemPath)
	itemName := ""
	if len(p) > 0 {
		itemName = p[len(p)-1]
	}
	return s.eng.RegisterStream(name, p, at, stats.Collect(name, itemName, sample, freq))
}

// Subscribe registers a continuous WXQuery subscription at a target
// super-peer and installs its evaluation plan using the given strategy.
func (s *System) Subscribe(query string, at PeerID, strat Strategy) (*Subscription, error) {
	return s.eng.Subscribe(query, at, strat)
}

// Simulate pushes items of the original streams through every installed
// plan, measuring per-link traffic and per-peer load; collect retains the
// result items per subscription.
func (s *System) Simulate(items map[string][]*Item, collect bool) (*SimResult, error) {
	return s.eng.Simulate(items, collect)
}

// DistResult is the outcome of a distributed run.
type DistResult = runtime.Result

// RuntimeOptions tunes the distributed runtime's data path: batch size and
// per-peer worker count, plus the reliable-session and cluster attachments. See PERFORMANCE.md for how the knobs interact.
type RuntimeOptions = runtime.Options

// DefaultRuntimeOptions is the tuned data path: batched transfers and a
// worker pool per peer.
func DefaultRuntimeOptions() RuntimeOptions { return runtime.DefaultOptions() }

// RunDistributed executes the installed plans on the concurrent peer
// runtime: every super-peer runs a worker pool over a multi-lane mailbox,
// and streams travel as batches of shared element trees, priced hop by hop
// at their canonical XML size. It produces the same results, traffic and
// load accounting as Simulate; like Simulate, every call starts its
// operators clean.
func (s *System) RunDistributed(items map[string][]*Item, collect bool) (*DistResult, error) {
	return runtime.New(s.eng, collect).Run(items)
}

// RunDistributedWith is RunDistributed with explicit data-path options;
// zero-valued fields take their defaults.
func (s *System) RunDistributedWith(items map[string][]*Item, collect bool, opts RuntimeOptions) (*DistResult, error) {
	return runtime.NewWith(s.eng, collect, opts).Run(items)
}

// Unsubscribe removes a continuous query, tearing down streams deployed
// solely for it and releasing their reserved bandwidth and load.
func (s *System) Unsubscribe(id string) error { return s.eng.Unsubscribe(id) }

// RepairFuzzyOrder attaches a fixed-size sort buffer to an original stream
// so fuzzily ordered input still supports time-based windows (§2).
func (s *System) RepairFuzzyOrder(stream, ref string, size int) error {
	return s.eng.RepairFuzzyOrder(stream, ParsePath(ref), size)
}

// Streams lists all streams flowing in the network (originals and derived).
func (s *System) Streams() []*Deployed { return s.eng.Streams() }

// Subscriptions lists the installed subscriptions.
func (s *System) Subscriptions() []*Subscription { return s.eng.Subscriptions() }
