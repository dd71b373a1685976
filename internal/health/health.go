// Package health implements the runtime's heartbeat failure detector: a
// deadline-based suspicion mechanism over peers and links, with exponential
// backoff and flap damping for targets that oscillate between alive and
// suspected. The detector is driven entirely by an injected clock — callers
// feed it Beat observations and Tick it with the current time — and the
// runtime drives it on a virtual one: after each run it replays the run in
// rounds of one interval (see runtime.Session).
//
// The paper's StreamGlobe assumes peers stay up once routed; detection is
// the piece that turns the adaptation layer (internal/adapt) from an
// oracle-scripted repair tool into a self-healing system: suspicion events
// convert into network.Change events and drive the same repair cycle the
// scripted schedules exercise.
package health

import (
	"sort"
	"time"

	"streamshare/internal/network"
)

// TargetKind says what a monitored target is.
type TargetKind int

// Monitored target kinds.
const (
	// TargetPeer monitors a super-peer's heartbeat.
	TargetPeer TargetKind = iota
	// TargetLink monitors heartbeats crossing one link.
	TargetLink
)

// Target identifies one monitored entity: a peer or a link.
type Target struct {
	// Kind selects which of Peer and Link is meaningful.
	Kind TargetKind
	// Peer is the monitored peer when Kind is TargetPeer.
	Peer network.PeerID
	// Link is the monitored link when Kind is TargetLink.
	Link network.LinkID
}

// PeerTarget returns the monitoring target for a peer.
func PeerTarget(p network.PeerID) Target { return Target{Kind: TargetPeer, Peer: p} }

// LinkTarget returns the monitoring target for a link.
func LinkTarget(l network.LinkID) Target { return Target{Kind: TargetLink, Link: l} }

// String renders the target ("peer SP3", "link SP1-SP2").
func (t Target) String() string {
	if t.Kind == TargetPeer {
		return "peer " + string(t.Peer)
	}
	return "link " + t.Link.String()
}

// EventKind classifies detector transitions.
type EventKind int

// Detector transition kinds.
const (
	// Suspected reports a target whose heartbeats missed the deadline.
	Suspected EventKind = iota
	// Recovered reports a suspected target that resumed beating.
	Recovered
)

// Event is one detector state transition.
type Event struct {
	// Target is the monitored entity that transitioned.
	Target Target
	// Kind is the transition direction (Suspected or Recovered).
	Kind EventKind
	// At is the clock time the transition was observed.
	At time.Time
	// Sincebeat is how long the target had been silent when the transition
	// fired (zero for recoveries).
	SinceBeat time.Duration
	// Misses is the number of whole heartbeat intervals missed.
	Misses int
}

// Options tunes a Detector. The zero value takes defaults.
type Options struct {
	// Interval is the expected heartbeat period. <=0 defaults to 5ms.
	Interval time.Duration
}

// The detector's fixed policy; counts and the flap window are in heartbeat
// intervals.
const (
	// suspectAfter is how many whole intervals a target may stay silent
	// before it is suspected.
	suspectAfter = 3
	// backoffFactor multiplies the suspicion threshold after each flap (a
	// recovery shortly after a suspicion), damping oscillating targets
	// exponentially.
	backoffFactor = 2
	// maxThreshold caps the backed-off threshold.
	maxThreshold = 16 * suspectAfter
	// flapWindow is how soon after a suspicion a recovery counts as a flap.
	flapWindow = 20
)

// state is one target's detector record.
type state struct {
	target    Target
	lastBeat  time.Time
	suspected bool
	// flaps counts suspicion→recovery oscillations inside the flap window;
	// it drives the exponential backoff of the suspicion threshold.
	flaps       int
	suspectedAt time.Time
}

// threshold returns the target's current suspicion threshold in whole
// intervals, after flap backoff.
func (s *state) threshold() int {
	th := suspectAfter
	for i := 0; i < s.flaps && th < maxThreshold; i++ {
		th *= backoffFactor
	}
	return min(th, maxThreshold)
}

// Detector is a deadline failure detector over registered targets. It is not
// internally synchronized: drive it from one goroutine or wrap it in a lock.
type Detector struct {
	interval time.Duration
	targets  map[Target]*state
	// counters for introspection and metrics publication.
	suspicions, recoveries, flapsTotal int
}

// NewDetector returns a detector with the given options.
func NewDetector(opts Options) *Detector {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Millisecond
	}
	return &Detector{interval: opts.Interval, targets: map[Target]*state{}}
}

// Interval returns the configured heartbeat period.
func (d *Detector) Interval() time.Duration { return d.interval }

// MaxSilence returns the largest suspicion threshold any target can back
// off to, in whole intervals — an upper bound on the detection rounds a
// virtual-time pass needs past a fault.
func (d *Detector) MaxSilence() int { return maxThreshold }

// Register starts monitoring a target, treating registration time as its
// first beat. Registering an existing target is a no-op.
func (d *Detector) Register(t Target, now time.Time) {
	if d.targets[t] == nil {
		d.targets[t] = &state{target: t, lastBeat: now}
	}
}

// Beat records a heartbeat from a target at the given time. Unregistered
// targets are registered implicitly.
func (d *Detector) Beat(t Target, now time.Time) {
	s := d.targets[t]
	if s == nil {
		d.Register(t, now)
		return
	}
	s.lastBeat = now
}

// Tick evaluates every registered target against the clock and returns the
// transitions since the last tick: targets silent for more than their
// (backed-off) threshold of intervals become Suspected; suspected targets
// that beat again become Recovered, counting a flap when the recovery lands
// inside the flap window.
func (d *Detector) Tick(now time.Time) []Event {
	var evs []Event
	for _, s := range sortedStates(d.targets) {
		silent := now.Sub(s.lastBeat)
		misses := int(silent / d.interval)
		if !s.suspected && misses > s.threshold() {
			s.suspected = true
			s.suspectedAt = now
			d.suspicions++
			evs = append(evs, Event{Target: s.target, Kind: Suspected, At: now, SinceBeat: silent, Misses: misses})
			continue
		}
		if s.suspected && misses == 0 {
			s.suspected = false
			d.recoveries++
			if now.Sub(s.suspectedAt) <= flapWindow*d.interval {
				s.flaps++
				d.flapsTotal++
			}
			evs = append(evs, Event{Target: s.target, Kind: Recovered, At: now})
		}
	}
	return evs
}

// sortedStates returns the states in deterministic target order.
func sortedStates(m map[Target]*state) []*state {
	out := make([]*state, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].target, out[j].target
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Kind == TargetPeer {
			return a.Peer < b.Peer
		}
		return a.Link.String() < b.Link.String()
	})
	return out
}

// TargetState is one row of a detector snapshot.
type TargetState struct {
	// Target is the monitored entity the row describes.
	Target Target
	// Suspected reports whether the target is currently suspected down.
	Suspected bool
	// Flaps is the suspicion→recovery oscillation count feeding backoff.
	Flaps int
	// Threshold is the current suspicion threshold in intervals.
	Threshold int
	// SinceBeat is the silence duration at snapshot time.
	SinceBeat time.Duration
}

// Snapshot returns per-target detector state in deterministic order, for the
// HEALTH command and /metricz.
func (d *Detector) Snapshot(now time.Time) []TargetState {
	var out []TargetState
	for _, s := range sortedStates(d.targets) {
		out = append(out, TargetState{
			Target:    s.target,
			Suspected: s.suspected,
			Flaps:     s.flaps,
			Threshold: s.threshold(),
			SinceBeat: now.Sub(s.lastBeat),
		})
	}
	return out
}

// Stats returns cumulative transition counters: suspicions, recoveries and
// flaps since construction.
func (d *Detector) Stats() (suspicions, recoveries, flaps int) {
	return d.suspicions, d.recoveries, d.flapsTotal
}
