// Package adapt is the dynamic-adaptation subsystem: it applies topology
// changes — peer and link failures, recoveries, additions, capacity and
// bandwidth changes — to a running engine and keeps the installed
// subscriptions alive across them. After each event it marks and releases
// severed streams, re-plans every affected subscription against the
// surviving topology (make-before-break, reusing still-flowing shared
// streams first), and reports an explicit rejection for subscriptions with
// no feasible plan left. After unsubscriptions free capacity, a triggered
// re-optimization pass migrates subscriptions to now-cheaper plans, bounded
// by a migration-cost hysteresis so the system does not thrash.
//
// The paper computes plans once at registration (§4) and names adaptivity
// as future work (§6); this package is that extension, built entirely from
// the engine's own Algorithm 1 machinery.
package adapt

import (
	"errors"
	"fmt"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/obs"
)

// DefaultHysteresis is the migration bound: a subscription migrates only
// when the fresh plan costs less than (1 − DefaultHysteresis) of the
// re-priced current plan.
const DefaultHysteresis = 0.15

// Outcome classifies what happened to one subscription under one event.
type Outcome int

// Outcomes.
const (
	// Repaired: a replacement plan was installed over the surviving topology.
	Repaired Outcome = iota
	// Rejected: no feasible plan remained; the subscription was torn down
	// and explicitly reported — never silently stranded.
	Rejected
	// Migrated: re-optimization moved the subscription to a cheaper plan.
	Migrated
)

func (o Outcome) String() string {
	switch o {
	case Repaired:
		return "repaired"
	case Rejected:
		return "rejected"
	case Migrated:
		return "migrated"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Report records the handling of one subscription under one event.
type Report struct {
	Event   Event
	Sub     string
	Outcome Outcome
	// Err holds the rejection reason for Rejected outcomes.
	Err string
	// Latency is the time the repair or migration took (planning and
	// installation; the repair-latency series of the churn experiment).
	Latency time.Duration
}

func (r Report) String() string {
	s := fmt.Sprintf("%s: %s %s (%v)", r.Event, r.Sub, r.Outcome, r.Latency.Round(time.Microsecond))
	if r.Err != "" {
		s += " — " + r.Err
	}
	return s
}

// Manager drives adaptation over one engine. It is not safe for concurrent
// use; serialize Apply with the engine's other mutations (the server does
// this under its session lock).
type Manager struct {
	Eng *core.Engine
	// Hysteresis bounds plan migration (see DefaultHysteresis).
	Hysteresis float64

	reports []Report
}

// NewManager returns a manager over the engine with the default hysteresis.
func NewManager(eng *core.Engine) *Manager {
	return &Manager{Eng: eng, Hysteresis: DefaultHysteresis}
}

// Reports returns every report accumulated so far, in application order.
func (m *Manager) Reports() []Report { return m.reports }

// ApplyAll applies a schedule of events in order, stopping at the first
// event that itself fails (repair rejections are reports, not failures).
// It returns the reports the schedule produced.
func (m *Manager) ApplyAll(events []Event) ([]Report, error) {
	start := len(m.reports)
	for _, ev := range events {
		if _, err := m.Apply(ev); err != nil {
			return m.reports[start:], fmt.Errorf("adapt: %s: %w", ev, err)
		}
	}
	return m.reports[start:], nil
}

// Apply applies one event: it mutates the topology (or unsubscribes), then
// runs the repair cycle — revive restored originals, release severed
// streams, re-plan every affected subscription — and, for events that free
// capacity (unsubscribe, reoptimize), the triggered re-optimization pass.
// It returns the reports this event produced. The returned error reports a
// failure of the event itself (unknown peer, duplicate link, …); repair
// rejections are reported, not returned.
func (m *Manager) Apply(ev Event) ([]Report, error) {
	reg := m.Eng.Obs().Metrics
	reg.Counter("adapt.events.total").Inc()
	reg.Counter("adapt.events." + ev.Kind.slug()).Inc()

	migrate := false
	switch ev.Kind {
	case FailPeer:
		if err := m.Eng.Net.FailPeer(ev.Peer); err != nil {
			return nil, err
		}
	case RestorePeer:
		if err := m.Eng.Net.RestorePeer(ev.Peer); err != nil {
			return nil, err
		}
	case FailLink:
		if err := m.Eng.Net.FailLink(ev.A, ev.B); err != nil {
			return nil, err
		}
	case RestoreLink:
		if err := m.Eng.Net.RestoreLink(ev.A, ev.B); err != nil {
			return nil, err
		}
	case AddPeer:
		if m.Eng.Net.Peer(ev.Peer) != nil {
			return nil, fmt.Errorf("peer %s already exists", ev.Peer)
		}
		m.Eng.Net.AddPeer(network.Peer{ID: ev.Peer, Super: true, Capacity: ev.Value, PerfIndex: 1})
	case AddLink:
		if m.Eng.Net.Peer(ev.A) == nil || m.Eng.Net.Peer(ev.B) == nil {
			return nil, fmt.Errorf("link %s-%s references an unknown peer", ev.A, ev.B)
		}
		if m.Eng.Net.Link(ev.A, ev.B) != nil {
			return nil, fmt.Errorf("link %s-%s already exists", ev.A, ev.B)
		}
		if ev.Value <= 0 {
			return nil, fmt.Errorf("link %s-%s needs a positive bandwidth", ev.A, ev.B)
		}
		m.Eng.Net.Connect(ev.A, ev.B, ev.Value)
	case SetCapacity:
		if err := m.Eng.Net.SetCapacity(ev.Peer, ev.Value); err != nil {
			return nil, err
		}
	case SetBandwidth:
		if err := m.Eng.Net.SetBandwidth(ev.A, ev.B, ev.Value); err != nil {
			return nil, err
		}
	case Unsubscribe:
		if err := m.Eng.Unsubscribe(ev.Sub); err != nil {
			return nil, err
		}
		migrate = true
	case Reoptimize:
		migrate = true
	default:
		return nil, fmt.Errorf("unknown event kind %d", int(ev.Kind))
	}

	start := len(m.reports)
	m.repair(ev)
	if migrate {
		m.reoptimize(ev)
	}
	return m.reports[start:], nil
}

// repair is the per-event repair cycle. Restored originals are revived
// first so re-planning can use them; then every stream severed by the
// current topology releases its reserved resources; then each affected
// subscription is re-planned. After the loop no subscription has a broken
// feed: each one was either repaired or explicitly rejected.
func (m *Manager) repair(ev Event) {
	reg := m.Eng.Obs().Metrics
	m.Eng.ReviveRestored()
	m.Eng.ReleaseBroken()
	hist := reg.Histogram("adapt.repair.latency_seconds", obs.ExpBuckets(1e-6, 10, 8))
	for _, sub := range m.Eng.Affected() {
		started := time.Now()
		err := m.Eng.Replan(sub, "repair "+ev.String())
		lat := time.Since(started)
		hist.Observe(lat.Seconds())
		reg.Counter("adapt.repairs.total").Inc()
		r := Report{Event: ev, Sub: sub.ID, Outcome: Repaired, Latency: lat}
		if err != nil {
			r.Outcome = Rejected
			r.Err = err.Error()
			reg.Counter("adapt.repairs.rejected").Inc()
			if !errors.Is(err, core.ErrRejected) {
				reg.Counter("adapt.repairs.errors").Inc()
			}
		}
		m.reports = append(m.reports, r)
		m.Eng.Obs().Flight.Record("repair", r.String())
	}
}

// reoptimize is the triggered re-optimization pass: every subscription gets
// one migration attempt against the freed capacity, in registration order,
// bounded by the manager's hysteresis.
func (m *Manager) reoptimize(ev Event) {
	reg := m.Eng.Obs().Metrics
	h := m.Hysteresis
	if h <= 0 {
		h = DefaultHysteresis
	}
	for _, sub := range append([]*core.Subscription(nil), m.Eng.Subscriptions()...) {
		started := time.Now()
		moved, err := m.Eng.TryMigrate(sub, h, "migrate after "+ev.String())
		if err != nil || !moved {
			continue
		}
		reg.Counter("adapt.migrations.total").Inc()
		r := Report{Event: ev, Sub: sub.ID, Outcome: Migrated, Latency: time.Since(started)}
		m.reports = append(m.reports, r)
		m.Eng.Obs().Flight.Record("repair", r.String())
	}
}

// ApplyDetected converts failure-detector observations (the changes a
// runtime session's failure detector queued — see the health package and
// runtime.Session.TakeDetected) into adaptation events and applies them
// through the same repair cycle scripted schedules use. Changes the
// topology already reflects are skipped: a detected peer failure implies
// link suspicions for every link the peer silenced, and FailPeer has
// already taken those links down. It returns the reports the applied
// events produced.
func (m *Manager) ApplyDetected(changes []network.Change) ([]Report, error) {
	reg := m.Eng.Obs().Metrics
	start := len(m.reports)
	for _, c := range changes {
		var ev Event
		switch c.Kind {
		case network.PeerFailed:
			if !m.Eng.Net.PeerUp(c.Peer) {
				continue
			}
			ev = Event{Kind: FailPeer, Peer: c.Peer}
		case network.LinkFailed:
			if !m.Eng.Net.LinkUp(c.Link.A, c.Link.B) {
				continue
			}
			ev = Event{Kind: FailLink, A: c.Link.A, B: c.Link.B}
		default:
			// The detector only infers failures; other change kinds are
			// not its to report.
			continue
		}
		reg.Counter("adapt.detected.applied").Inc()
		if _, err := m.Apply(ev); err != nil {
			return m.reports[start:], fmt.Errorf("adapt: detected %s: %w", ev, err)
		}
	}
	return m.reports[start:], nil
}
