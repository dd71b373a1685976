package exec

import (
	"sync/atomic"
	"time"

	"streamshare/internal/obs"
	"streamshare/internal/xmlstream"
)

// timingSampleEvery is the per-operator call-sampling rate for the duration
// histogram: one in this many Process calls is timed, keeping the two
// clock reads off the common path.
const timingSampleEvery = 64

// counted decorates an operator with items-in/items-out counters, each
// added to once per call for the whole batch, and a sampled duration
// histogram. Name is forwarded so load accounting (bload lookup by operator
// name) and plan rendering are unaffected.
type counted struct {
	op      Operator
	in, out *obs.Counter
	// seconds observes, for one in timingSampleEvery calls (tick is
	// the call counter), the call's duration divided by its batch size:
	// seconds per input item.
	seconds *obs.Histogram
	tick    *atomic.Uint64
}

func (c counted) Name() string { return c.op.Name() }

// unwrap strips the instrumentation decorator off an operator.
func unwrap(op Operator) Operator {
	for {
		c, ok := op.(counted)
		if !ok {
			return op
		}
		op = c.op
	}
}

// instance keeps the metric handles: every instance counts into the same
// series.
func (c counted) instance() Operator {
	c.op = c.op.instance()
	return c
}

func (c counted) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	n, t0 := len(dst), c.start()
	dst = c.op.Process(dst, items)
	c.done(t0, len(items), len(dst)-n)
	return dst
}

// count is Process into a counting sink (Pipeline.Results).
func (c counted) count(items []*xmlstream.Element) int {
	t0 := c.start()
	n := c.op.(counter).count(items)
	c.done(t0, len(items), n)
	return n
}

func (c counted) Flush(dst []*xmlstream.Element) []*xmlstream.Element {
	n := len(dst)
	dst = c.op.Flush(dst)
	c.done(time.Time{}, 0, len(dst)-n)
	return dst
}

// start returns when a call starts if it is the one in timingSampleEvery
// that is timed, else the zero time.
func (c counted) start() (t0 time.Time) {
	if c.tick.Add(1)%timingSampleEvery == 0 {
		t0 = time.Now()
	}
	return t0
}

// done counts a call's items in and out and observes a timed call's
// duration per input item.
func (c counted) done(t0 time.Time, in, out int) {
	c.in.Add(float64(in))
	if out > 0 {
		c.out.Add(float64(out))
	}
	if !t0.IsZero() {
		c.seconds.Observe(time.Since(t0).Seconds() / float64(in))
	}
}

// Instrument returns a pipeline whose operators additionally count processed
// items into reg under <prefix>.<op-name>.{in,out} and observe a
// sampled duration histogram under <prefix>.<op-name>.seconds (1 in
// timingSampleEvery calls is timed, and reported per input item). Counters
// and histograms are shared between operators of the same kind, bounding
// series cardinality to the operator vocabulary. A nil registry or pipeline returns p unchanged;
// instrumenting twice is idempotent per wrapper (already counted operators
// are not re-wrapped).
func Instrument(p *Pipeline, reg *obs.Registry, prefix string) *Pipeline {
	if p == nil || reg == nil || len(p.Ops) == 0 {
		return p
	}
	ops := make([]Operator, len(p.Ops))
	for i, op := range p.Ops {
		if c, ok := op.(counted); ok {
			ops[i] = c
			continue
		}
		name := prefix + "." + op.Name()
		ops[i] = counted{
			op:      op,
			in:      reg.Counter(name + ".in"),
			out:     reg.Counter(name + ".out"),
			seconds: reg.Histogram(name+".seconds", obs.ExpBuckets(1e-8, 4, 12)),
			tick:    &atomic.Uint64{},
		}
	}
	return &Pipeline{Ops: ops}
}
