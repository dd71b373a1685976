package runtime

import (
	"sync"

	"streamshare/internal/core"
)

// inbox is a peer's mailbox: an unbounded, multi-lane FIFO drained by the
// peer's worker pool. Every stream addressed to the peer gets its own lane,
// and a lane is owned by at most one worker at a time, so the messages of
// one stream are processed serially in arrival order — per-subscription
// item order and the single-threaded operator contract (see package exec)
// both rest on this — while lanes of distinct streams run concurrently on
// the pool. Unboundedness rules out deadlock between mutually forwarding
// peers; per-lane order is preserved because each (stream, hop) has exactly
// one sender.
//
// Depth accounting is per item, not per batch: a message carrying k items
// contributes k units (plus one for an EOS marker), so the high-water mark
// stays comparable across batch sizes.
type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	lanes map[*core.PlanStream]*lane
	// runq lists lanes that have queued messages and no owning worker.
	runq   []*lane
	closed bool
	// depth is the number of queued item units across all lanes.
	depth int
	// hwm is the high-water mark: the maximum depth ever observed, in
	// items. Unbounded mailboxes can't drop messages, so this is the one
	// depth statistic that matters — how far a peer fell behind its
	// producers.
	hwm int
}

// lane carries one stream's pending messages at one peer. scheduled is true
// iff the lane sits in the runq or is owned by a worker; the invariant
// gives every lane at most one concurrent consumer. free is the slice the
// last worker drained, cleared, which the next push queues into, so a lane
// that is busy ping-pongs between two slices instead of growing new ones.
type lane struct {
	q, free   []message
	scheduled bool
}

func newInbox() *inbox {
	b := &inbox{lanes: map[*core.PlanStream]*lane{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// push enqueues a message on its stream's lane and accounts depth and the
// high-water mark per item carried.
func (b *inbox) push(m message) {
	u := m.units()
	b.mu.Lock()
	ln := b.lanes[m.stream]
	if ln == nil {
		ln = &lane{}
		b.lanes[m.stream] = ln
	}
	if ln.q == nil {
		ln.q, ln.free = ln.free, nil
	}
	ln.q = append(ln.q, m)
	b.depth += u
	if b.depth > b.hwm {
		b.hwm = b.depth
	}
	if !ln.scheduled {
		ln.scheduled = true
		b.runq = append(b.runq, ln)
		b.mu.Unlock()
		b.cond.Signal()
		return
	}
	b.mu.Unlock()
}

// next blocks until a runnable lane is available or the inbox is closed. It
// transfers the lane's queued messages (and their depth units) to the
// calling worker, which owns the lane until it calls done.
func (b *inbox) next() (*lane, []message, bool) {
	b.mu.Lock()
	for len(b.runq) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.runq) == 0 {
		b.mu.Unlock()
		return nil, nil, false
	}
	ln := b.runq[0]
	b.runq = b.runq[1:]
	msgs := ln.q
	ln.q = nil
	for i := range msgs {
		b.depth -= msgs[i].units()
	}
	b.mu.Unlock()
	return ln, msgs, true
}

// done releases a lane taken with next, and the messages next handed out
// with it, which the lane reuses: if messages arrived while the worker held
// it the lane goes back on the runq, otherwise it parks until the next push
// schedules it again.
func (b *inbox) done(ln *lane, msgs []message) {
	clear(msgs)
	b.mu.Lock()
	ln.free = msgs[:0]
	if len(ln.q) > 0 {
		b.runq = append(b.runq, ln)
		b.mu.Unlock()
		b.cond.Signal()
		return
	}
	ln.scheduled = false
	b.mu.Unlock()
}

// close wakes every worker blocked in next; they drain the remaining runq
// and exit.
func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *inbox) highWater() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hwm
}
