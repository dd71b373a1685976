package runtime

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/health"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/transport"
)

// This file is the reliability layer's live half: a Session owns the
// per-stream channels (channel.go), the receive-side dedup lanes, the
// heartbeat failure detector, and the plan and operator instances of the run
// it last attached to, which recovery (recover.go) finishes. A Session
// outlives the single-use Runtimes that attach to it, which is what lets the
// replay journals, the ack cursors and an interrupted run's operator state
// survive a failure, a re-plan and the recovery pass; it keys channels by
// stream id, which outlives a plan value.

// SessionOptions tunes the reliability layer.
type SessionOptions struct {
	// CreditWindow bounds, per stream, how many unacknowledged units
	// (items plus EOS markers) the emitter may be ahead of the slowest
	// consumer. Emitters past the window block (sources) or park their
	// batches (taps), which withholds the ack to their own feed — the
	// paper-style end-to-end backpressure chain. <=0 defaults to 256.
	// Each runtime clamps the effective window to at least one full batch
	// plus the EOS marker so a single batch is always admissible.
	CreditWindow int

	// Heartbeat tunes the failure detector (zero fields take the
	// health package defaults).
	Heartbeat health.Options

	// DisableHeartbeat turns the in-run heartbeat monitor off; channels
	// then break only through the KillPeer/SeverLink oracle calls.
	DisableHeartbeat bool
}

// recvKey identifies one receive lane: a stream, by id, at one hop of its
// route.
type recvKey struct {
	stream string
	hop    int
}

// Session is the durable state of reliable delivery. Create one with
// NewSession, pass it to every Runtime via Options.Session, and call
// Recover after the engine re-planned around a failure. A Session must not
// be shared by concurrently executing Runtimes.
type Session struct {
	opts SessionOptions

	mu    sync.Mutex
	chans map[string]*streamChan
	recvs map[recvKey]*transport.RecvCursor
	// plan and inst are the last attached run's plan and operator state.
	plan *core.Plan
	inst *core.Instances

	detMu    sync.Mutex
	det      *health.Detector
	detected []network.Change
	// suspected dedups Change emission per target across monitor ticks
	// and runtimes.
	suspected map[health.Target]bool
	// failedAt records when the oracle injected each fault, so suspicion
	// events can observe detection latency.
	failedAt map[health.Target]time.Time
}

// NewSession returns an empty session with the given options.
func NewSession(opts SessionOptions) *Session {
	if opts.CreditWindow <= 0 {
		opts.CreditWindow = 256
	}
	return &Session{
		opts:      opts,
		chans:     map[string]*streamChan{},
		recvs:     map[recvKey]*transport.RecvCursor{},
		det:       health.NewDetector(opts.Heartbeat),
		suspected: map[health.Target]bool{},
		failedAt:  map[health.Target]time.Time{},
	}
}

// attach wires a runtime to the session: one channel (created or re-used)
// per stream of the run's plan that has a consumer, one receive lane per
// (stream, hop), and the run's plan and operator instances, kept for Recover.
func (s *Session) attach(r *Runtime) {
	s.mu.Lock()
	defer s.mu.Unlock()
	window := s.opts.CreditWindow
	if min := r.opts.BatchSize + 1; window < min {
		window = min
	}
	if window < 8 {
		window = 8
	}
	s.plan, s.inst = r.plan, r.inst
	for _, d := range r.plan.Streams {
		if len(d.Taps) == 0 && len(d.Readers) == 0 {
			// A stream nobody consumes has no acker; a channel there
			// would never trim. It flows unreliably (nothing observes it).
			continue
		}
		c := s.chans[d.ID]
		if c == nil {
			c = &streamChan{st: transport.NewChannel(d.Epoch, window)}
			c.cond = sync.NewCond(&c.mu)
			s.chans[d.ID] = c
		}
		c.mu.Lock()
		c.d = d
		for _, child := range d.Taps {
			c.st.AddConsumer(child.ID)
		}
		for _, rd := range d.Readers {
			c.st.AddConsumer(rd.ID)
		}
		c.mu.Unlock()
		r.chans[d] = c
		for hop := range d.Route {
			k := recvKey{d.ID, hop}
			rs := s.recvs[k]
			if rs == nil {
				rs = &transport.RecvCursor{}
				s.recvs[k] = rs
			}
			r.recvs[k] = rs
		}
	}
}

// TakeDetected returns the network changes the failure detector has
// inferred since the last call (peer and link failures), clearing the
// queue. Feed them to adapt.Manager.ApplyDetected to run the same repair
// cycle a scripted oracle schedule would.
func (s *Session) TakeDetected() []network.Change {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	out := s.detected
	s.detected = nil
	return out
}

// HealthSnapshot returns the failure detector's per-target state.
func (s *Session) HealthSnapshot() []health.TargetState {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	return s.det.Snapshot(time.Now())
}

// HealthStats returns the detector's cumulative suspicion, recovery and
// flap counters.
func (s *Session) HealthStats() (suspicions, recoveries, flaps int) {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	return s.det.Stats()
}

// ChannelStates returns one introspection row per channel, sorted by
// stream id (HEALTH command, /metricz).
func (s *Session) ChannelStates() []ChannelState {
	chans := s.channels()
	out := make([]ChannelState, 0, len(chans))
	for _, c := range chans {
		c.mu.Lock()
		out = append(out, snapshotChannel(c.st, c.d.ID))
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// channels snapshots the session's channels.
func (s *Session) channels() []*streamChan {
	s.mu.Lock()
	defer s.mu.Unlock()
	chans := make([]*streamChan, 0, len(s.chans))
	for _, c := range s.chans {
		chans = append(chans, c)
	}
	return chans
}

// parkedDepth counts parked batches across every channel. Cluster-mode
// quiescence polls it: a parked batch waits on an ack that arrives as a
// frame, possibly after the local in-flight count reaches zero.
func (s *Session) parkedDepth() int {
	n := 0
	for _, c := range s.channels() {
		c.mu.Lock()
		n += len(c.parked)
		c.mu.Unlock()
	}
	return n
}

// streamChan wraps one transport.Channel with the synchronization the live data
// path needs: a mutex, a condition variable blocked sources wait on, and
// the FIFO of parked tap batches awaiting credit.
type streamChan struct {
	mu   sync.Mutex
	cond *sync.Cond
	st   *transport.Channel
	// d is the stream as the last attached run's plan has it (under mu).
	d *core.PlanStream

	// parked holds worker-context batches that could not be admitted.
	// FIFO: once one batch parks, later ones park behind it regardless of
	// the window, preserving emission order.
	parked []parkedSend
	// stalls counts admission waits: source blocks and tap parks.
	stalls int
}

// parkedSend is one deferred tap batch plus the ack gate it holds open.
type parkedSend struct {
	m    message
	gate *ackGate
}

// ackGate defers one upstream cumulative ack until every batch the
// consumer emitted downstream has been admitted. It starts with one
// sentinel reference held by the consumer's processing; each parked batch
// adds one; the last release fires the ack. This is the link that chains
// backpressure across stream levels: a tap with parked output does not
// ack its input, so its own feed's window fills and, ultimately, the
// source blocks.
type ackGate struct {
	n    int32
	fire func()
}

func newAckGate(fire func()) *ackGate { return &ackGate{n: 1, fire: fire} }

func (g *ackGate) add() { atomic.AddInt32(&g.n, 1) }

func (g *ackGate) done() {
	if atomic.AddInt32(&g.n, -1) == 0 {
		g.fire()
	}
}

// stampLocked assigns sequence numbers to every unit of the message and
// records it in the replay buffer — the items by pointer: the journal shares
// the trees the batch carries, which nobody writes. Callers hold c.mu.
func (c *streamChan) stampLocked(m *message) {
	first := uint64(0)
	for _, e := range m.elems {
		seq := c.st.Emit(e, false)
		if first == 0 {
			first = seq
		}
	}
	if m.eos {
		seq := c.st.Emit(nil, true)
		if first == 0 {
			first = seq
		}
	}
	m.seqLo, m.epoch = first, c.st.Epoch()
}

// submit pushes one batch through the channel. Source context (gate nil)
// blocks until the window admits the batch or the channel breaks; worker
// context (tap emissions) parks the batch instead, holding the gate open.
// Batches on a broken channel are recorded in the journal and retained —
// never sent, never blocking.
func (c *streamChan) submit(r *Runtime, m message, gate *ackGate) {
	units := m.units()
	c.mu.Lock()
	if gate == nil {
		stalled := false
		for !c.st.Broken() && !c.st.Admit(units) {
			if !stalled {
				stalled = true
				c.stalls++
				r.flight.Record("credit.stall", c.d.ID+" source blocked")
			}
			c.cond.Wait()
		}
	} else if !c.st.Broken() && (len(c.parked) > 0 || !c.st.Admit(units)) {
		c.stalls++
		r.flight.Record("credit.stall", c.d.ID+" tap parked")
		gate.add()
		c.parked = append(c.parked, parkedSend{m: m, gate: gate})
		c.mu.Unlock()
		return
	}
	broken := c.st.Broken()
	c.stampLocked(&m)
	c.mu.Unlock()
	if broken {
		r.retain(&m)
		return
	}
	r.send(m)
}

// pumpLocked drains the parked queue as far as the window (or a break)
// allows, stamping each batch. It returns the batches to send, the
// batches retained by a break (to count), and the gates to release —
// all of which the caller must handle after unlocking.
func (c *streamChan) pumpLocked() (sends, drops []message, gates []*ackGate) {
	for len(c.parked) > 0 {
		p := c.parked[0]
		if c.st.Broken() {
			c.stampLocked(&p.m)
			drops = append(drops, p.m)
		} else if c.st.Admit(p.m.units()) {
			c.stampLocked(&p.m)
			sends = append(sends, p.m)
		} else {
			break
		}
		gates = append(gates, p.gate)
		c.parked[0] = parkedSend{}
		c.parked = c.parked[1:]
	}
	return
}

// ack advances one consumer's cumulative cursor and, when credits were
// freed, pumps parked batches and wakes blocked sources. Gates released by
// the pump fire after the channel unlocks (they ack other channels).
func (c *streamChan) ack(r *Runtime, consumer string, seq uint64) {
	c.mu.Lock()
	freed := c.st.Ack(consumer, seq)
	c.finishAck(r, freed)
}

// ackAll advances the cursors of a stream's readers under one lock
// acquisition — the readers of a shared stream at its target all ack the
// same batch, and taking the hot channel's lock once for the lot keeps the
// ack path from serializing the consuming side.
func (c *streamChan) ackAll(r *Runtime, readers []*core.PlanReader, seq uint64) {
	c.mu.Lock()
	freed := 0
	for _, rd := range readers {
		freed += c.st.Ack(rd.ID, seq)
	}
	c.finishAck(r, freed)
}

// finishAck completes an ack while holding c.mu (which it releases): when
// credits were freed it pumps parked batches, wakes blocked sources and
// disposes of the pump's output outside the lock.
func (c *streamChan) finishAck(r *Runtime, freed int) {
	var sends, drops []message
	var gates []*ackGate
	if freed > 0 {
		sends, drops, gates = c.pumpLocked()
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	if freed > 0 {
		r.flight.Record("ack.trim", c.d.ID+" freed="+strconv.Itoa(freed))
	}
	c.dispose(r, sends, drops, gates)
}

// breakNow marks the channel undeliverable, drains every parked batch into
// the journal and wakes blocked sources. Idempotent.
func (c *streamChan) breakNow(r *Runtime) {
	c.mu.Lock()
	if c.st.Broken() {
		c.mu.Unlock()
		return
	}
	c.st.Break()
	sends, drops, gates := c.pumpLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	r.flight.Record("channel.break", c.d.ID)
	c.dispose(r, sends, drops, gates)
}

// dispose finishes a pump outside the channel lock: admitted batches are
// sent, retained ones counted, and released gates fire their upstream
// acks (which may lock other channels — never this one re-entrantly).
func (c *streamChan) dispose(r *Runtime, sends, drops []message, gates []*ackGate) {
	for i := range sends {
		r.send(sends[i])
	}
	for i := range drops {
		r.retain(&drops[i])
	}
	for _, g := range gates {
		g.done()
	}
}

// takeStalls returns and resets the channel's admission-wait count, so
// each run publishes only its own stalls.
func (c *streamChan) takeStalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.stalls
	c.stalls = 0
	return n
}

// retain accounts a batch recorded in a broken channel's journal instead
// of sent (the journal holds its trees until Recover).
func (r *Runtime) retain(m *message) {
	u := m.units()
	r.mu.Lock()
	r.retained += u
	r.mu.Unlock()
}

// breakFor breaks every channel whose delivery depends on the failed
// target: for a peer, channels with the peer on their route; for a link,
// channels whose route crosses it in either direction.
func (s *Session) breakFor(r *Runtime, t health.Target) {
	for _, c := range s.channels() {
		c.mu.Lock()
		hit := routeHits(c.d.Route, t)
		c.mu.Unlock()
		if hit {
			c.breakNow(r)
		}
	}
}

// routeHits reports whether a stream's route depends on the failed target.
func routeHits(route []network.PeerID, t health.Target) bool {
	for i, p := range route {
		if t.Kind == health.TargetPeer && p == t.Peer ||
			i > 0 && t.Kind == health.TargetLink && network.MakeLinkID(route[i-1], p) == t.Link {
			return true
		}
	}
	return false
}

// noteFault records the oracle injection time of a fault for the
// detection-latency metric and pre-breaks the affected channels.
func (s *Session) noteFault(r *Runtime, t health.Target) {
	s.detMu.Lock()
	if _, ok := s.failedAt[t]; !ok {
		s.failedAt[t] = time.Now()
	}
	s.detMu.Unlock()
	s.breakFor(r, t)
}

// handleHealth converts detector transitions into channel breaks, queued
// network changes and metrics. Suspicions are deduped per target for the
// session's lifetime: one fault yields one change.
func (r *Runtime) handleHealth(evs []health.Event) {
	if len(evs) == 0 {
		return
	}
	s := r.sess
	reg := r.eng.Obs().Metrics
	for _, ev := range evs {
		switch ev.Kind {
		case health.Suspected:
			s.detMu.Lock()
			dup := s.suspected[ev.Target]
			s.suspected[ev.Target] = true
			var lat time.Duration
			seenFault := false
			if at, ok := s.failedAt[ev.Target]; ok {
				lat, seenFault = ev.At.Sub(at), true
			}
			if !dup {
				var ch network.Change
				if ev.Target.Kind == health.TargetPeer {
					ch = network.Change{Kind: network.PeerFailed, Peer: ev.Target.Peer}
				} else {
					ch = network.Change{Kind: network.LinkFailed, Link: ev.Target.Link}
				}
				s.detected = append(s.detected, ch)
			}
			s.detMu.Unlock()
			if !dup {
				reg.Counter("health.suspected").Inc()
				if seenFault && lat >= 0 {
					reg.Histogram("runtime.detect.latency_seconds", obs.ExpBuckets(1e-4, 10, 8)).
						Observe(lat.Seconds())
				}
				s.breakFor(r, ev.Target)
			}
		case health.Recovered:
			reg.Counter("health.recovered").Inc()
			s.detMu.Lock()
			delete(s.suspected, ev.Target)
			s.detMu.Unlock()
		}
	}
}

// registerTargets registers every peer and link with the detector.
func (r *Runtime) registerTargets(now time.Time) {
	s := r.sess
	s.detMu.Lock()
	for _, id := range r.peerIDs {
		s.det.Register(health.PeerTarget(id), now)
	}
	for _, l := range r.linkIDs {
		s.det.Register(health.LinkTarget(l), now)
	}
	s.detMu.Unlock()
}

// beatLive feeds one heartbeat round into the detector: every live peer
// beats, and every link beats unless it is severed or touches a dead
// peer (heartbeats cross links, so a dead endpoint silences the link
// too). In cluster mode each process beats only what it can vouch for —
// its own peers, the links whose A endpoint it owns — and remotely-owned
// targets beat from the latest heartbeat gossip, so a remote fault
// surfaces here as its gossip entry disappearing. Heartbeat traffic is
// control-plane and is not metered. Callers hold detMu.
func (r *Runtime) beatLive(now time.Time) {
	s := r.sess
	for _, id := range r.peerIDs {
		if !r.localPeer(id) {
			continue
		}
		if !r.nodes[id].dead.Load() {
			s.det.Beat(health.PeerTarget(id), now)
		}
	}
	r.sevMu.RLock()
	for _, l := range r.linkIDs {
		if r.owners != nil && r.owners[l.A] != r.cluster.node {
			continue
		}
		if r.severed[l] || r.deadLocal(l.A) || r.deadLocal(l.B) {
			continue
		}
		s.det.Beat(health.LinkTarget(l), now)
	}
	r.sevMu.RUnlock()
	if r.cluster != nil {
		// Remote gossip is vouching, not timing: a remote's latest frame
		// keeps beating its targets until it goes stale for far longer
		// than any scheduler skew, so only a genuinely crashed process —
		// or a gossip frame that names fewer targets — silences them.
		for _, t := range r.cluster.remoteBeats(r, now, 100*s.det.Interval()) {
			s.det.Beat(t, now)
		}
	}
}

// deadLocal reports a locally-known peer death. Remote deaths are not
// directly observable; they surface through gossip beats stopping.
func (r *Runtime) deadLocal(id network.PeerID) bool {
	return r.localPeer(id) && r.nodes[id].dead.Load()
}

// monitor is the in-run heartbeat loop: each interval it beats live
// targets, ticks the detector on the wall clock and applies any
// transitions. It exits when stop closes.
func (r *Runtime) monitor(stop chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	s := r.sess
	ticker := time.NewTicker(s.det.Interval())
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			now := time.Now()
			s.detMu.Lock()
			r.beatLive(now)
			evs := s.det.Tick(now)
			s.detMu.Unlock()
			r.handleHealth(evs)
			if r.cluster != nil {
				peers, links := r.liveLocal()
				r.cluster.gossipHeartbeat(peers, links)
			}
		}
	}
}

// drainDetector runs virtual-time detection rounds after the data path
// quiesced: live targets keep beating while the clock advances one
// interval per round, so every injected fault is deterministically
// suspected by the time Run returns, however short the run was.
func (r *Runtime) drainDetector() {
	s := r.sess
	s.detMu.Lock()
	now := time.Now()
	iv := s.det.Interval()
	var evs []health.Event
	rounds := s.det.MaxSilence() + 2
	for i := 0; i < rounds; i++ {
		if !r.faultUnsuspectedLocked(now) {
			break
		}
		now = now.Add(iv)
		r.beatLive(now)
		evs = append(evs, s.det.Tick(now)...)
	}
	s.detMu.Unlock()
	r.handleHealth(evs)
}

// faultUnsuspectedLocked reports whether some injected fault (dead peer,
// severed link, or a link silenced by a dead endpoint) is not yet
// suspected. Callers hold detMu.
func (r *Runtime) faultUnsuspectedLocked(now time.Time) bool {
	snap := r.sess.det.Snapshot(now)
	state := map[health.Target]bool{}
	for _, ts := range snap {
		state[ts.Target] = ts.Suspected
	}
	for _, id := range r.peerIDs {
		if r.nodes[id].dead.Load() && !state[health.PeerTarget(id)] {
			return true
		}
	}
	r.sevMu.RLock()
	defer r.sevMu.RUnlock()
	for _, l := range r.linkIDs {
		if (r.severed[l] || r.nodes[l.A].dead.Load() || r.nodes[l.B].dead.Load()) &&
			!state[health.LinkTarget(l)] {
			return true
		}
	}
	return false
}

// settle pumps every broken channel once more and reports whether any
// batch was sent — Run loops quiescence around it so parked batches
// released by a late break are fully processed before shutdown.
func (s *Session) settle(r *Runtime) bool {
	sent := false
	for _, c := range s.channels() {
		c.mu.Lock()
		sends, drops, gates := c.pumpLocked()
		c.mu.Unlock()
		if len(sends) > 0 || len(gates) > 0 {
			sent = true
		}
		c.dispose(r, sends, drops, gates)
	}
	return sent
}
