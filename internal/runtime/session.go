package runtime

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/transport"
)

// This file is the reliability layer's live half: a Session owns the
// per-stream channels (channel.go), the receive-side dedup lanes, the queue
// of faults its runs were given, and the plan and operator instances of the
// run it last attached to, which recovery (recover.go) finishes. A Session
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

	faultMu sync.Mutex
	faults  []network.Change
}

// NewSession returns an empty session with the given options.
func NewSession(opts SessionOptions) *Session {
	if opts.CreditWindow <= 0 {
		opts.CreditWindow = 256
	}
	return &Session{
		opts:  opts,
		chans: map[string]*streamChan{},
		recvs: map[recvKey]*transport.RecvCursor{},
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

// TakeFaults returns the faults injected into the session's runs since the
// last call (peer and link failures, in injection order), clearing the
// queue. Feed them to adapt.Manager.ApplyFaults to run the same repair cycle
// a scripted schedule would.
func (s *Session) TakeFaults() []network.Change {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	out := s.faults
	s.faults = nil
	return out
}

// report queues a fault for TakeFaults.
func (s *Session) report(ch network.Change) {
	s.faultMu.Lock()
	s.faults = append(s.faults, ch)
	s.faultMu.Unlock()
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

// breakFor breaks every channel whose delivery depends on the failed peer
// or link: for a peer, channels with the peer on their route; for a link,
// channels whose route crosses it in either direction.
func (s *Session) breakFor(r *Runtime, ch network.Change) {
	for _, c := range s.channels() {
		c.mu.Lock()
		hit := routeHits(c.d.Route, ch)
		c.mu.Unlock()
		if hit {
			c.breakNow(r)
		}
	}
}

// routeHits reports whether a stream's route depends on the failed peer or
// link.
func routeHits(route []network.PeerID, ch network.Change) bool {
	for i, p := range route {
		if ch.Kind == network.PeerFailed && p == ch.Peer ||
			i > 0 && ch.Kind == network.LinkFailed && network.MakeLinkID(route[i-1], p) == ch.Link {
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
