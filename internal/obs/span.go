package obs

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements sampled provenance spans: a deterministic 1-in-N
// sampler stamps selected source items with a Span that travels with the
// item (and the batch carrying it) through the runtime. Each pipeline stage
// stamps the span, turning the journey into a sequence of per-stage deltas
// that feed stage histograms, a queue-vs-compute rollup, end-to-end totals,
// and per-subscription delivery-lag and watermark series.

// Stage identifies one segment of a sampled item's journey through the
// runtime. Stages up to StageQueue measure waiting (queue delay); the rest
// measure work (compute delay).
type Stage uint8

// The span stages, in data-path order. The span is born when the source
// admits the item (its Born timestamp is the "ingest" instant); every later
// stage records the time elapsed since the previous stamp.
const (
	// StageBatch is time spent buffered in a producer's batcher until the
	// batch flushed.
	StageBatch Stage = iota
	// StageSend is channel admission (credit window, parking) plus mailbox
	// enqueue at the receiving peer.
	StageSend
	// StageQueue is residence in the receiving peer's mailbox lane until a
	// worker picked the batch up.
	StageQueue
	// StageParse is the batch decode at the receiving peer.
	StageParse
	// StageEval is tap-side operator evaluation: residual execution until
	// the first downstream batch flushed.
	StageEval
	// StageDeliver is the subscription-local pipeline and result handoff at
	// the target peer.
	StageDeliver

	numStages
)

var stageNames = [numStages]string{"batch", "send", "queue", "parse", "eval", "deliver"}

// String returns the stage's short lowercase name ("batch", "queue", …).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// queueing reports whether the stage counts toward queue delay rather than
// compute delay.
func (s Stage) queueing() bool { return s <= StageQueue }

// Span is the provenance context of one sampled source item. It is created
// at the source (Born is the admission time), rides along with the batch
// carrying the item, and accumulates per-stage latency via
// LatencyRecorder.Stamp. Identity (Stream, Index, Born) is immutable; the
// last-stamp clock is atomic so a span forked to concurrent consumers stays
// race-free.
type Span struct {
	// Stream is the originating stream name; Index is the item's zero-based
	// position within the source feed.
	Stream string
	Index  uint64
	// Born is the admission timestamp in Unix nanoseconds.
	Born int64

	last atomic.Int64
}

// SampleKey identifies a sampled source item: the originating stream and
// the item's position within its feed.
type SampleKey struct {
	Stream string
	Index  uint64
}

// DefaultSpanEvery is the default sampling rate: one span per 256 source
// items per stream.
const DefaultSpanEvery = 256

// maxSampledKeys bounds the recorder's sampled-key log (used by determinism
// tests and diagnostics); sampling itself is unaffected by the bound.
const maxSampledKeys = 8192

// spanBuckets spans one microsecond to ~17 seconds exponentially — the
// range of interest for stage deltas and end-to-end lag alike.
func spanBuckets() []float64 { return ExpBuckets(1e-6, 4, 13) }

// LatencyRecorder owns span sampling and the latency metric series derived
// from spans. All methods are safe for concurrent use and safe on a nil
// receiver (no-ops), so data-path code can stamp unconditionally.
//
// Series registered (all durations in seconds):
//
//	latency.stage.<stage>      per-stage delta histograms
//	latency.queue              rollup of the queueing stages (batch, send, queue)
//	latency.compute            rollup of the compute stages (parse, eval, deliver)
//	latency.total              end-to-end ingest→deliver lag
//	latency.spans.started      spans created at sources
//	latency.sub.lag.<id>       per-subscription delivery lag histogram
//	latency.sub.watermark.<id> per-subscription low watermark (Unix seconds)
//	latency.sub.delivered.<id> sampled deliveries per subscription
type LatencyRecorder struct {
	every atomic.Int64
	seed  uint64

	reg     *Registry
	stage   [numStages]*Histogram
	queue   *Histogram
	compute *Histogram
	total   *Histogram
	started *Counter

	mu   sync.Mutex
	keys map[SampleKey]struct{}
	subs map[string]*subSeries
}

type subSeries struct {
	lag       *Histogram
	watermark *Gauge
	delivered *Counter
}

// NewLatencyRecorder builds a recorder publishing into reg, sampling
// 1-in-DefaultSpanEvery with the given hash seed (the seed perturbs which
// items are picked; a fixed seed makes the choice fully deterministic).
func NewLatencyRecorder(reg *Registry, seed uint64) *LatencyRecorder {
	l := &LatencyRecorder{
		reg:     reg,
		seed:    seed,
		queue:   reg.Histogram("latency.queue", spanBuckets()),
		compute: reg.Histogram("latency.compute", spanBuckets()),
		total:   reg.Histogram("latency.total", spanBuckets()),
		started: reg.Counter("latency.spans.started"),
		keys:    map[SampleKey]struct{}{},
		subs:    map[string]*subSeries{},
	}
	for st := Stage(0); st < numStages; st++ {
		l.stage[st] = reg.Histogram("latency.stage."+st.String(), spanBuckets())
	}
	l.every.Store(DefaultSpanEvery)
	return l
}

// SetRate sets the sampling rate to 1-in-n; n == 1 samples everything and
// n <= 0 disables sampling entirely.
func (l *LatencyRecorder) SetRate(n int) {
	if l == nil {
		return
	}
	l.every.Store(int64(n))
}

// sampleHash is FNV-1a over (seed, stream, index) — stable across processes
// and runs, so the sim and the runtime pick identical item sets.
func sampleHash(seed uint64, stream string, idx uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * prime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (idx & 0xff)) * prime
		idx >>= 8
	}
	return h
}

// Sampled reports whether the item at the given position of the stream's
// feed is selected by the sampler. Deterministic in (seed, stream, idx).
func (l *LatencyRecorder) Sampled(stream string, idx uint64) bool {
	if l == nil {
		return false
	}
	n := l.every.Load()
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	return sampleHash(l.seed, stream, idx)%uint64(n) == 0
}

// Start creates the span for a sampled source item, logging its key for
// determinism checks. The caller decides sampling via Sampled first.
func (l *LatencyRecorder) Start(stream string, idx uint64) *Span {
	if l == nil {
		return nil
	}
	now := time.Now().UnixNano()
	sp := &Span{Stream: stream, Index: idx, Born: now}
	sp.last.Store(now)
	l.started.Inc()
	l.mu.Lock()
	if len(l.keys) < maxSampledKeys {
		l.keys[SampleKey{Stream: stream, Index: idx}] = struct{}{}
	}
	l.mu.Unlock()
	return sp
}

// Stamp records the completion of one stage on sp: the time since the
// previous stamp is observed into the stage's histogram and the
// queue/compute rollup, and the span's clock advances.
func (l *LatencyRecorder) Stamp(sp *Span, st Stage) {
	if l == nil || sp == nil {
		return
	}
	now := time.Now().UnixNano()
	d := float64(now-sp.last.Swap(now)) / 1e9
	if d < 0 {
		d = 0
	}
	l.stage[st].Observe(d)
	if st.queueing() {
		l.queue.Observe(d)
	} else {
		l.compute.Observe(d)
	}
}

// Fork derives a child span for a consumer that continues independently of
// the parent (a tap feeding a derived stream): identity and Born carry
// over, the stage clock restarts now.
func (l *LatencyRecorder) Fork(sp *Span) *Span {
	if l == nil || sp == nil {
		return nil
	}
	child := &Span{Stream: sp.Stream, Index: sp.Index, Born: sp.Born}
	child.last.Store(time.Now().UnixNano())
	return child
}

// Deliver ends a span at a subscription sink: it stamps StageDeliver,
// observes the end-to-end lag into latency.total and the subscription's lag
// histogram, raises the subscription's low watermark to the span's Born
// time, and counts the delivery.
func (l *LatencyRecorder) Deliver(sp *Span, sub string) {
	if l == nil || sp == nil {
		return
	}
	l.Stamp(sp, StageDeliver)
	lag := float64(time.Now().UnixNano()-sp.Born) / 1e9
	if lag < 0 {
		lag = 0
	}
	l.total.Observe(lag)
	s := l.subSeries(sub)
	s.lag.Observe(lag)
	s.watermark.SetMax(float64(sp.Born) / 1e9)
	s.delivered.Inc()
}

func (l *LatencyRecorder) subSeries(sub string) *subSeries {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.subs[sub]
	if s == nil {
		s = &subSeries{
			lag:       l.reg.Histogram("latency.sub.lag."+sub, spanBuckets()),
			watermark: l.reg.Gauge("latency.sub.watermark." + sub),
			delivered: l.reg.Counter("latency.sub.delivered." + sub),
		}
		l.subs[sub] = s
	}
	return s
}

// SampledKeys returns the keys of every span started so far (bounded; see
// maxSampledKeys), sorted by stream then index — the deterministic sample
// set the sim-vs-runtime agreement test compares.
func (l *LatencyRecorder) SampledKeys() []SampleKey {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]SampleKey, 0, len(l.keys))
	for k := range l.keys {
		out = append(out, k)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stream != out[j].Stream {
			return out[i].Stream < out[j].Stream
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// AppendSpanHeader appends sp's wire encoding to b and returns the extended
// slice. The encoding is designed to ride in a batch header so the TCP
// transport can propagate spans across processes: a presence byte (0 = no
// span), then uvarint stream length, the stream bytes, and uvarints for
// index, Born and the last-stamp clock.
func AppendSpanHeader(b []byte, sp *Span) []byte {
	if sp == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(len(sp.Stream)))
	b = append(b, sp.Stream...)
	b = binary.AppendUvarint(b, sp.Index)
	b = binary.AppendUvarint(b, uint64(sp.Born))
	b = binary.AppendUvarint(b, uint64(sp.last.Load()))
	return b
}

// ParseSpanHeader decodes a header written by AppendSpanHeader, returning
// the span (nil when the header marks no span) and the remaining bytes.
func ParseSpanHeader(b []byte) (*Span, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("obs: span header: empty input")
	}
	tag := b[0]
	b = b[1:]
	if tag == 0 {
		return nil, b, nil
	}
	if tag != 1 {
		return nil, nil, fmt.Errorf("obs: span header: bad tag %d", tag)
	}
	n, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < n {
		return nil, nil, fmt.Errorf("obs: span header: truncated stream name")
	}
	sp := &Span{Stream: string(b[w : w+int(n)])}
	b = b[w+int(n):]
	idx, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, fmt.Errorf("obs: span header: truncated index")
	}
	sp.Index = idx
	b = b[w:]
	born, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, fmt.Errorf("obs: span header: truncated born")
	}
	b = b[w:]
	last, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, fmt.Errorf("obs: span header: truncated clock")
	}
	b = b[w:]
	sp.Born = int64(born)
	sp.last.Store(int64(last))
	return sp, b, nil
}
