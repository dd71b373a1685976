package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// FlightEvent is one entry in the flight recorder: a timestamped,
// sequence-numbered runtime event.
type FlightEvent struct {
	// Seq is the event's position in the recorder's lifetime (monotonic;
	// gaps in a dump mean older events were overwritten).
	Seq uint64
	// At is the wall-clock time the event was recorded.
	At time.Time
	// Kind is the event taxonomy slot ("batch.flush", "credit.stall",
	// "ack.trim", "channel.break", "dedup.drop", "fault.kill",
	// "fault.sever", "repair", "churn", …).
	Kind string
	// Detail is a short free-form annotation (stream or peer id, counts).
	Detail string
}

// defaultFlightCapacity is the ring size used when none is given.
const defaultFlightCapacity = 1024

// FlightRecorder is a fixed-capacity ring buffer of recent runtime events —
// the "what just happened" complement to the metrics registry's "how much".
// Recording takes one short mutex hold and no allocation beyond the strings
// the caller already built, so it is cheap enough to call from data-path
// edges (batch flushes, credit stalls, ack trims, fault injection, repair).
// All methods are safe for concurrent use and are no-ops on a nil receiver.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next uint64 // total events ever recorded
}

// NewFlightRecorder returns a recorder retaining the most recent capacity
// events (<= 0 means the 1024-event default).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]FlightEvent, capacity)}
}

// Record appends one event, overwriting the oldest once the ring is full.
func (f *FlightRecorder) Record(kind, detail string) {
	if f == nil {
		return
	}
	now := time.Now()
	f.mu.Lock()
	f.buf[f.next%uint64(len(f.buf))] = FlightEvent{Seq: f.next, At: now, Kind: kind, Detail: detail}
	f.next++
	f.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	cap64 := uint64(len(f.buf))
	lo := uint64(0)
	if n > cap64 {
		lo = n - cap64
	}
	out := make([]FlightEvent, 0, n-lo)
	for s := lo; s < n; s++ {
		out = append(out, f.buf[s%cap64])
	}
	return out
}

// Dump writes the retained events to w, oldest first, one line per event:
//
//	flight <seq> <RFC3339Nano time> <kind> <detail>
func (f *FlightRecorder) Dump(w io.Writer) {
	if f == nil {
		return
	}
	for _, e := range f.Events() {
		fmt.Fprintf(w, "flight %d %s %s %s\n", e.Seq, e.At.Format(time.RFC3339Nano), e.Kind, e.Detail)
	}
}
