// Package core implements the paper's primary contribution: the data stream
// sharing engine. It registers continuous WXQuery subscriptions in a
// super-peer network using one of three strategies — data shipping, query
// shipping, or stream sharing (Algorithm 1's Subscribe with property
// matching and cost-based plan selection) — installs the resulting operator
// plans, and simulates stream delivery to measure network traffic and peer
// load (§4). The catalog holds compiled operator templates; executors read
// it as a Plan value and own the operator state of their runs.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"streamshare/internal/cost"
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/plan"
	"streamshare/internal/properties"
	"streamshare/internal/stats"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// Strategy selects how new subscriptions are planned (§4). It lives in the
// plan package; the engine re-exports it so registrations read naturally.
type Strategy = plan.Strategy

// Planning strategies.
const (
	// DataShipping routes the whole input stream from its source to the
	// target super-peer, once per subscription, and evaluates there.
	DataShipping = plan.DataShipping
	// QueryShipping evaluates each subscription completely at the source
	// super-peer and ships the result.
	QueryShipping = plan.QueryShipping
	// StreamSharing runs Algorithm 1: reuse (possibly preprocessed) streams
	// already flowing in the network, chosen by the cost model.
	StreamSharing = plan.StreamSharing
)

// ErrRejected reports that no evaluation plan without overload exists for a
// subscription (the rejection experiment of §4).
var ErrRejected = plan.ErrRejected

// ErrUnknownStream reports a subscription referencing an unregistered input.
var ErrUnknownStream = errors.New("core: unknown input stream")

// Deployed is a data stream flowing in the network; see plan.Deployed. The
// planner owns the type (its index tracks deployments); the engine, the
// runtime and the simulator share it through this alias.
type Deployed = plan.Deployed

// RegStats records the cost of registering a subscription (Table 1); see
// plan.RegStats.
type RegStats = plan.RegStats

// SubInput is one input of an installed subscription: the canonical feed
// stream arriving at the target plus the local post-processing pipeline.
type SubInput struct {
	In   *properties.Input
	Feed *Deployed
	// Local runs at the subscription's target peer (restructuring for
	// stream sharing and query-result decoding; the full evaluation for
	// data shipping). Like Feed.Residual it is a template.
	Local *exec.Pipeline
}

// Subscription is an installed continuous query.
type Subscription struct {
	ID     string
	Query  *wxquery.Query
	Props  *properties.Properties
	Target network.PeerID
	// Strategy is the planning strategy the subscription was registered
	// with; repairs and migrations re-plan with the same strategy.
	Strategy Strategy
	Inputs   []*SubInput
	// Reg reports how the registration went.
	Reg RegStats
	// Trace records the planning decision: every candidate stream the search
	// considered, per-candidate match outcomes and rejection reasons, cost
	// breakdowns, and the winning plan.
	Trace *obs.DecisionTrace
}

// Explain renders the installed evaluation plan in a human-readable form:
// per input, the stream being reused, the residual operators and their
// placement, the route, and the post-processing at the target.
func (s *Subscription) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at %s\n", s.ID, s.Target)
	for _, si := range s.Inputs {
		feed := si.Feed
		src := "original stream"
		if feed.Parent != nil && !feed.Parent.Original {
			src = "shared stream " + feed.Parent.ID
		}
		fmt.Fprintf(&b, "  input %s: %s, operators %s at %s, routed %v",
			si.In.Stream, src, opList(feed.Residual), feed.Tap, feed.Route)
		if len(si.Local.Ops) > 0 {
			fmt.Fprintf(&b, ", post-processing %s at %s", opList(si.Local), s.Target)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func opList(p *exec.Pipeline) string {
	if p == nil || len(p.Ops) == 0 {
		return "[none]"
	}
	names := make([]string, len(p.Ops))
	for i, o := range p.Ops {
		names[i] = o.Name()
	}
	return "[" + strings.Join(names, " → ") + "]"
}

// Config tunes an Engine.
type Config struct {
	Model cost.Model
	// Admission rejects subscriptions whose best plan overloads a peer or
	// link (the §4 rejection experiment).
	Admission bool
	// Widening enables the §6 stream-widening extension: when nothing
	// shareable flows, an existing selection/projection stream may be
	// altered to carry enough data for both its consumers and the new
	// subscription (see widen.go).
	Widening bool
	// Reliable hides live shared streams from the discovery that repairs and
	// migrates: affected subscriptions are rebuilt as private chains derived
	// directly from original streams. runtime.Session.Recover does not rely
	// on it — it replays into the interrupted run's own instances, whatever
	// the repaired plan looks like.
	Reliable bool
	// Obs injects a shared observability layer (metrics registry + decision
	// tracer); nil gives the engine a private one. Instrumentation is always
	// on — it is cheap enough to leave enabled (atomic counters, bounded
	// trace ring).
	Obs *obs.Observer
}

// Engine is a StreamGlobe-style data stream management system instance over
// a super-peer network.
type Engine struct {
	Net *network.Network
	Cfg Config
	Est *cost.Estimator

	obs       *obs.Observer
	planner   *plan.Planner
	originals map[string]*Deployed
	deployed  []*Deployed
	subs      []*Subscription
	nextID    int
	// epoch counts catalog mutations; every (re)installed stream is stamped
	// with a fresh epoch so the reliable runtime can fence stale in-flight
	// messages across repairs and migrations. plan is the plan value of the
	// epoch it carries, built on demand (plan.go).
	epoch uint64
	plan  *Plan
	// subSeq issues subscription ids ("q1", "q2", …) monotonically: ids are
	// never reused after Unsubscribe or a failed repair. Failed registration
	// attempts do not consume an id — the tentative id appears only in their
	// decision trace.
	subSeq int

	// mu serializes the control plane (Subscribe, Unsubscribe, Replan,
	// TryMigrate, RegisterStream and the repair entry points) and guards the
	// plan value, all a run reads. The read-only getters are not locked; run
	// them from the goroutine that mutates, as the server does.
	mu sync.Mutex

	// Analytic running usage, kept in sync with installed plans.
	linkUse map[network.LinkID]float64 // bytes/second
	peerUse map[network.PeerID]float64 // work units/second
	// linkGauge/peerGauge hold the gauge publishUse mirrors each entry of
	// linkUse/peerUse into, resolved on the entry's first publication.
	linkGauge map[network.LinkID]*obs.Gauge
	peerGauge map[network.PeerID]*obs.Gauge

	m engineMetrics
}

// engineMetrics holds the control plane's metric handles, resolved once at
// construction: every Subscribe and Unsubscribe reports to them, and a
// registry lookup by name per call cost more than the report.
type engineMetrics struct {
	subTotal, subInstalled, subRejected, subErrors *obs.Counter
	visited, candidates, messages                  *obs.Counter
	unsubTotal, released                           *obs.Counter
	computeSeconds, planCost                       *obs.Histogram
	deployed, active                               *obs.Gauge
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		subTotal:       reg.Counter("core.subscribe.total"),
		subInstalled:   reg.Counter("core.subscribe.installed"),
		subRejected:    reg.Counter("core.subscribe.rejected"),
		subErrors:      reg.Counter("core.subscribe.errors"),
		visited:        reg.Counter("core.discovery.visited"),
		candidates:     reg.Counter("core.discovery.candidates"),
		messages:       reg.Counter("core.control.messages"),
		unsubTotal:     reg.Counter("core.unsubscribe.total"),
		released:       reg.Counter("core.streams.released"),
		computeSeconds: reg.Histogram("core.subscribe.compute_seconds", obs.ExpBuckets(1e-6, 10, 8)),
		planCost:       reg.Histogram("core.plan.cost", obs.ExpBuckets(1e-8, 10, 12)),
		deployed:       reg.Gauge("core.streams.deployed"),
		active:         reg.Gauge("core.subscriptions.active"),
	}
}

// NewEngine returns an engine over the given topology.
func NewEngine(net *network.Network, cfg Config) *Engine {
	if cfg.Model.BLoad == nil {
		cfg.Model = cost.DefaultModel()
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewObserver()
	}
	e := &Engine{
		Net:       net,
		Cfg:       cfg,
		obs:       cfg.Obs,
		Est:       cost.NewEstimator(cfg.Model, map[string]*stats.Stream{}),
		originals: map[string]*Deployed{},
		linkUse:   map[network.LinkID]float64{},
		peerUse:   map[network.PeerID]float64{},
		linkGauge: map[network.LinkID]*obs.Gauge{},
		peerGauge: map[network.PeerID]*obs.Gauge{},
		m:         newEngineMetrics(cfg.Obs.Metrics),
	}
	e.planner = plan.New(net, e, plan.Options{
		Model:     cfg.Model,
		Est:       e.Est,
		Admission: cfg.Admission,
		Widening:  cfg.Widening,
	}, e.obs)
	return e
}

// RegisterStream registers an original data stream at a super-peer, with
// statistics collected from a sample (frequency, element sizes, value
// ranges). The statistics drive the cost model's estimations.
func (e *Engine) RegisterStream(name string, itemPath xmlstream.Path, at network.PeerID, st *stats.Stream) (*Deployed, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.Net.Peer(at) == nil {
		return nil, fmt.Errorf("core: unknown peer %s", at)
	}
	if _, dup := e.originals[name]; dup {
		return nil, fmt.Errorf("core: stream %q already registered", name)
	}
	d := &Deployed{
		ID:       fmt.Sprintf("orig:%s", name),
		Input:    &properties.Input{Stream: name, ItemPath: itemPath},
		Tap:      at,
		Route:    []network.PeerID{at},
		Residual: exec.NewPipeline(),
		Size:     st.AvgItemSize,
		Freq:     st.Freq,
		Original: true,
	}
	e.epoch++
	d.Epoch = e.epoch
	e.originals[name] = d
	e.Est.Stats[name] = st
	e.deployed = append(e.deployed, d)
	e.planner.Install(d)
	e.obs.Metrics.Counter("core.streams.registered").Inc()
	e.m.deployed.Set(float64(len(e.deployed)))
	return d, nil
}

// Obs returns the engine's observability layer: the metrics registry every
// subsystem feeds and the tracer holding recent Subscribe decision traces.
func (e *Engine) Obs() *obs.Observer { return e.obs }

// publishUse mirrors the analytic reserved usage into per-link and per-peer
// gauges so snapshots show the current bandwidth/load reservation state.
// Each gauge is resolved by name once, on its entry's first publication.
func (e *Engine) publishUse() {
	for l, b := range e.linkUse {
		g := e.linkGauge[l]
		if g == nil {
			g = e.obs.Metrics.Gauge("core.link_use." + l.String())
			e.linkGauge[l] = g
		}
		g.Set(b)
	}
	for p, w := range e.peerUse {
		g := e.peerGauge[p]
		if g == nil {
			g = e.obs.Metrics.Gauge("core.peer_use." + string(p))
			e.peerGauge[p] = g
		}
		g.Set(w)
	}
	e.m.deployed.Set(float64(len(e.deployed)))
	e.m.active.Set(float64(len(e.subs)))
}

// RepairFuzzyOrder attaches a fixed-size sort buffer to an original stream
// at its source super-peer, restoring the total order of a fuzzily ordered
// stream on the given reference element (§2: "this premise could be
// somewhat relaxed to a fuzzy order by requiring that a fixed sized buffer
// is sufficient to derive the total order"). It takes effect from the next
// run.
func (e *Engine) RepairFuzzyOrder(stream string, ref xmlstream.Path, size int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.originals[stream]
	if d == nil {
		return fmt.Errorf("%w: %q", ErrUnknownStream, stream)
	}
	d.Residual = exec.Instrument(exec.NewPipeline(exec.NewSortBuffer(ref, size)), e.obs.Metrics, "exec.op")
	e.epoch++
	return nil
}

// Streams returns all deployed streams, originals first, in creation order.
func (e *Engine) Streams() []*Deployed { return e.deployed }

// Original returns the registered original stream by name, or nil. Together
// with Streams, LinkLoad and PeerLoad it forms the plan.Host surface the
// planner reads engine state through.
func (e *Engine) Original(stream string) *Deployed { return e.originals[stream] }

// Subscriptions returns the installed subscriptions in registration order.
func (e *Engine) Subscriptions() []*Subscription { return e.subs }

// LinkLoad returns the current analytic bandwidth use of a link in
// bytes/second.
func (e *Engine) LinkLoad(l network.LinkID) float64 { return e.linkUse[l] }

// PeerLoad returns the current analytic load of a peer in work units/second.
func (e *Engine) PeerLoad(p network.PeerID) float64 { return e.peerUse[p] }

// removeDeployed splices a stream out of the registry and the planner's
// discovery index. It reports whether the stream was present.
func (e *Engine) removeDeployed(d *Deployed) bool {
	for i, x := range e.deployed {
		if x == d {
			e.deployed = append(e.deployed[:i], e.deployed[i+1:]...)
			e.planner.Uninstall(d)
			return true
		}
	}
	return false
}
