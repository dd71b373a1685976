// Package transport is the inter-peer delivery layer: the sequenced /
// acked / credited channel state machine extracted from the runtime's
// reliability layer, a length-prefixed frame codec, and two transports —
// the in-process one (the byte-for-byte equivalence oracle) and TCP — plus
// the Link/Mesh connection manager that gives separate OS processes peer
// identity, a versioned handshake and loss-free reconnect-with-replay.
package transport

import (
	"slices"
	"sort"

	"streamshare/internal/xmlstream"
)

// This file is the sequenced/acked/credited channel state machine of the
// reliability layer (the runtime's session wraps it for per-stream
// channels; Link reuses it verbatim as the per-link replay buffer, which is
// what makes reconnection loss-free, and a durable link's WAL is that same
// buffer's backing store). One Channel exists per emitting endpoint: the
// emitter stamps every unit with a monotonically increasing sequence number
// and keeps the unit in a replay buffer by pointer — the item's element tree
// on session channels, the frame on links, which encode per connection; every
// consumer owns a cumulative-ack cursor advanced when it has fully processed
// a prefix; the buffer is trimmed to the minimum cursor.
// The distance between the emission frontier and the minimum cursor is
// bounded by a receiver-granted credit window, which is what turns a slow
// consumer into end-to-end sender throttling instead of unbounded queues.
//
// The type is deliberately free of locks and runtime dependencies so the
// fuzz target (fuzz_test.go) can diff it against a map-based model;
// runtime/session.go and link.go wrap it with the synchronization the live
// data path needs.

// Entry is one emitted unit in a channel's replay buffer: an item, a link
// frame, or the end-of-stream marker (Elem nil, EOS true).
type Entry struct {
	// Seq is the unit's assigned sequence number (first emission gets 1).
	Seq uint64
	// Elem is the item on session channels, shared read-only with everyone
	// else the item was handed to.
	Elem *xmlstream.Element
	// EOS marks the end-of-stream sentinel unit.
	EOS bool
	// Frame is the unit on link channels (Elem nil): the link's own copy of
	// the frame, stamped with Seq and rendered for the wire by whichever
	// conn carries it.
	Frame *Frame
}

// Channel is the per-emitter channel state machine. The zero value is not
// ready; use NewChannel.
type Channel struct {
	// epoch is the plan epoch the stream was installed under; messages carry
	// it so receivers can drop stale-epoch deliveries after a migration.
	epoch uint64
	// nextSeq is the next sequence number to assign; the first emitted unit
	// gets 1.
	nextSeq uint64
	// window bounds nextSeq-1 − cumAck, in units; <=0 means unlimited.
	window int
	// buffer holds the emitted-but-not-fully-acked units in ascending
	// sequence order: exactly the range (cumAck, nextSeq).
	buffer []Entry
	// cursors maps each consumer to the highest sequence it has cumulatively
	// acknowledged.
	cursors map[string]uint64
	// cumAck is the minimum cursor: everything at or below it is delivered
	// everywhere and trimmed.
	cumAck uint64
	// atMin counts consumers whose cursor equals cumAck, so an ack that
	// moves a non-minimum cursor skips the O(consumers) minimum scan — the
	// hot case on shared streams, where every batch is acked once per
	// consumer but only the slowest one can advance the trim point.
	atMin int
	// broken marks the channel undeliverable (a dead peer or a severed link
	// on the route): emissions are still recorded — the buffer doubles as
	// the recovery journal — but admission control is bypassed so producers
	// never block on a dead route.
	broken bool

	// maxDepth is the replay buffer's high-water mark in units.
	maxDepth int
}

// NewChannel returns a channel at the given plan epoch with the given
// credit window.
func NewChannel(epoch uint64, window int) *Channel {
	return &Channel{epoch: epoch, window: window, cursors: map[string]uint64{}}
}

// AddConsumer registers a consumer cursor at the current trim point. Every
// consumer must be registered before the first emission it should see.
func (c *Channel) AddConsumer(name string) {
	if _, ok := c.cursors[name]; !ok {
		c.cursors[name] = c.cumAck
		c.atMin++
	}
}

// Admit reports whether the credit window currently allows emitting the
// given number of units. Broken channels admit everything: their emissions
// are retained, not sent, and retention must never block the producer.
func (c *Channel) Admit(units int) bool {
	if c.window <= 0 || c.broken || len(c.cursors) == 0 {
		return true
	}
	return int(c.nextSeq-1-c.cumAck)+units <= c.window
}

// NextSeq returns the sequence number the next Emit will assign.
func (c *Channel) NextSeq() uint64 {
	if c.nextSeq == 0 {
		return 1
	}
	return c.nextSeq
}

// Emit assigns the next sequence number to one unit — an item, or the
// end-of-stream marker (e nil) — and records it in the replay buffer. The
// element is retained until every consumer acks it and must not change
// afterwards. It returns the assigned sequence.
func (c *Channel) Emit(e *xmlstream.Element, eos bool) uint64 {
	return c.emit(Entry{Elem: e, EOS: eos})
}

// EmitFrame is Emit for link channels: it stamps the frame with the next
// sequence number and records the frame itself. The frame is retained
// as-is and must not change afterwards.
func (c *Channel) EmitFrame(f *Frame) uint64 {
	f.Seq = c.NextSeq()
	return c.emit(Entry{Frame: f})
}

func (c *Channel) emit(e Entry) uint64 {
	if c.nextSeq == 0 {
		c.nextSeq = 1
	}
	seq := c.nextSeq
	c.nextSeq++
	e.Seq = seq
	c.buffer = append(c.buffer, e)
	if len(c.buffer) > c.maxDepth {
		c.maxDepth = len(c.buffer)
	}
	return seq
}

// Ack advances a consumer's cumulative cursor to seq (stale and duplicate
// acks — seq at or below the cursor — are no-ops) and trims the replay
// buffer to the new minimum cursor. It returns the number of units freed
// (credits granted back to the emitter).
func (c *Channel) Ack(consumer string, seq uint64) int {
	cur, ok := c.cursors[consumer]
	if !ok || seq <= cur {
		return 0
	}
	c.cursors[consumer] = seq
	if cur > c.cumAck {
		return 0 // a non-minimum cursor moved: the trim point is unchanged
	}
	c.atMin--
	if c.atMin > 0 {
		return 0 // other consumers still sit at the trim point
	}
	// The last minimum-cursor holder moved: rescan for the new minimum.
	return c.retrim()
}

// SetConsumers makes names exactly the channel's consumers. A consumer not
// among them is dropped, so its cursor no longer holds the trim point, which
// moves up to the slowest remaining cursor; a new one is registered at that
// trim point.
func (c *Channel) SetConsumers(names []string) {
	for name := range c.cursors {
		if !slices.Contains(names, name) {
			delete(c.cursors, name)
		}
	}
	c.retrim()
	for _, name := range names {
		c.AddConsumer(name)
	}
}

// retrim recomputes the trim point from the cursors and trims the replay
// buffer to it, returning the units freed.
func (c *Channel) retrim() int {
	min := c.minCursor()
	c.atMin = 0
	for _, v := range c.cursors {
		if v == min {
			c.atMin++
		}
	}
	if min <= c.cumAck {
		return 0
	}
	freed := int(min - c.cumAck)
	c.cumAck = min
	i := 0
	for i < len(c.buffer) && c.buffer[i].Seq <= min {
		i++
	}
	// The backing array outlives the trim: drop what the acked units
	// reference, or up to a window of them stays reachable.
	clear(c.buffer[:i])
	c.buffer = c.buffer[i:]
	return freed
}

// Restore resets the channel to a recovered state: every consumer cursor at
// cumAck, nextSeq the next sequence to assign, and the replay buffer holding
// exactly the given unacked entries (ascending, all within (cumAck,
// nextSeq)). A durable link reloads its journal through it, and a link whose
// peer reports a cursor past everything it remembers sending fast-forwards
// with it.
func (c *Channel) Restore(cumAck, nextSeq uint64, unacked []Entry) {
	c.cumAck, c.nextSeq, c.buffer = cumAck, nextSeq, unacked
	for name := range c.cursors {
		c.cursors[name] = cumAck
	}
	c.atMin = len(c.cursors)
}

func (c *Channel) minCursor() uint64 {
	first := true
	var min uint64
	for _, v := range c.cursors {
		if first || v < min {
			min, first = v, false
		}
	}
	return min
}

// UnackedAfter returns the buffered entries with sequence strictly above
// the given cursor — the units a recovering (or reconnecting) consumer has
// not yet processed. The result is a view of the buffer, valid until the
// next Ack or Restore.
func (c *Channel) UnackedAfter(cursor uint64) []Entry {
	i := sort.Search(len(c.buffer), func(i int) bool { return c.buffer[i].Seq > cursor })
	return c.buffer[i:]
}

// Cursor returns a consumer's cumulative-ack cursor (0 if unregistered).
func (c *Channel) Cursor(consumer string) uint64 { return c.cursors[consumer] }

// Cursors returns a copy of the consumer → cumulative-ack cursor map.
func (c *Channel) Cursors() map[string]uint64 {
	out := make(map[string]uint64, len(c.cursors))
	for k, v := range c.cursors {
		out[k] = v
	}
	return out
}

// Depth returns the current replay-buffer depth in units.
func (c *Channel) Depth() int { return len(c.buffer) }

// MaxDepth returns the replay buffer's high-water mark in units.
func (c *Channel) MaxDepth() int { return c.maxDepth }

// CumAck returns the minimum cumulative ack across consumers.
func (c *Channel) CumAck() uint64 { return c.cumAck }

// Epoch returns the plan epoch the channel was created under.
func (c *Channel) Epoch() uint64 { return c.epoch }

// Window returns the configured credit window (<=0 means unlimited).
func (c *Channel) Window() int { return c.window }

// Broken reports whether the channel has been marked undeliverable.
func (c *Channel) Broken() bool { return c.broken }

// Break marks the channel undeliverable: admission is bypassed and further
// emissions are retained in the journal instead of delivered.
func (c *Channel) Break() { c.broken = true }

// RecvCursor is the receiving side of one delivery lane: it dedups
// deliveries by (epoch, seq). Lanes are FIFO with a single sender, so in
// normal operation sequences arrive contiguously; duplicates and stale
// epochs only appear when replay overlaps live delivery across a repair,
// a migration or a transport reconnect. The zero value is ready to use.
type RecvCursor struct {
	epoch uint64
	next  uint64 // next expected sequence
}

// Accept classifies a delivery of units [lo, hi] stamped with the given
// epoch. It returns how many leading units are duplicates to skip and
// whether the remainder should be delivered at all (false for stale-epoch
// messages, which must be dropped wholesale).
func (r *RecvCursor) Accept(epoch, lo, hi uint64) (skip int, deliver bool) {
	if epoch < r.epoch {
		return 0, false // stale plan epoch: pre-migration straggler
	}
	if epoch > r.epoch {
		// New plan epoch: the lane restarts its sequence space.
		r.epoch = epoch
		r.next = 1
	}
	if r.next == 0 {
		r.next = 1
	}
	if hi < r.next {
		return 0, false // entirely duplicate
	}
	if lo < r.next {
		skip = int(r.next - lo) // overlapping prefix already delivered
	}
	r.next = hi + 1
	return skip, true
}

// Next returns the next sequence number the cursor expects (>=1).
func (r *RecvCursor) Next() uint64 {
	if r.next == 0 {
		return 1
	}
	return r.next
}
