// Package obs is the observability layer of the stream-sharing system: a
// lightweight, allocation-conscious metrics registry (counters, gauges,
// histograms with snapshot and delta views) and a structured event tracer
// that records, per Subscribe call, the full sharing decision — candidate
// streams discovered during Algorithm 1's search, per-candidate property
// match outcomes with rejection reasons, cost breakdowns of the generated
// plans, and the winning plan.
//
// The package depends only on the standard library so every other package
// (core, network, runtime, exec, server, commands) can feed it. Metric names
// are flat dotted strings; per-peer and per-link series append the entity id
// as the last segment (e.g. "core.peer_use.SP4", "sim.link.bytes.SP0-SP1").
// Conventions used across the system:
//
//	core.subscribe.*        subscription registration outcomes
//	core.discovery.*        Algorithm 1 search effort (visited, candidates)
//	core.link_use.* / core.peer_use.*   analytic reserved usage gauges
//	sim.*                   in-process simulator deliveries
//	runtime.*               concurrent runtime deliveries and mailboxes
//	exec.op.<name>.*        per-operator items in/out and sampled seconds
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64, safe for concurrent use.
// The zero value is ready; Counters are cheap enough for hot paths (one
// compare-and-swap per Add).
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter by v (v must be non-negative).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a concurrently settable float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update used for mailbox depths.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates a value distribution in fixed buckets plus count,
// sum, min and max. Recording is lock-free (one atomic add per bucket plus
// compare-and-swap loops for sum/min/max), so histograms are safe on hot
// paths. The total count is derived from the bucket counters at snapshot
// time, which makes Count == ΣCounts an invariant of every snapshot: a
// snapshot taken while writers are racing can never report observations
// whose bucket attribution is missing, so Delta never loses bucket counts
// (the sum may transiently run slightly ahead of the buckets; it converges
// once writers quiesce).
type Histogram struct {
	bounds []float64       // inclusive upper bounds; one overflow bucket beyond
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits
	min    atomic.Uint64   // float64 bits; +Inf until first observation
	max    atomic.Uint64   // float64 bits; -Inf until first observation
}

// newHistogram builds a histogram over sorted bounds.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// ExpBuckets returns n exponential bucket bounds start, start·factor, … —
// the usual shape for durations and sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for {
		old := h.min.Load()
		if math.Float64frombits(old) <= v || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	// The bucket increment comes last: once an observation is visible in
	// Count (= ΣCounts) its sum/min/max updates are already published.
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count         uint64
	Sum, Min, Max float64
	Bounds        []float64
	Counts        []uint64
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket holding the target rank, clamped to the observed
// [Min, Max] range. An empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		prev := float64(cum)
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		lo := h.Min
		if i > 0 && h.Bounds[i-1] > lo {
			lo = h.Bounds[i-1]
		}
		hi := h.Max
		if i < len(h.Bounds) && h.Bounds[i] < hi {
			hi = h.Bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return h.Max
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // bounds are immutable after creation
		Counts: make([]uint64, len(h.counts)),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	s.Count = total
	s.Sum = math.Float64frombits(h.sum.Load())
	if total > 0 {
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
	}
	return s
}

// Registry is a concurrent name→metric table. Lookups take a read lock only;
// the metrics themselves are lock-free (counters, gauges) or finely locked
// (histograms). Callers on hot paths should resolve their metric once and
// hold the pointer.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = newHistogram(b)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a consistent-enough point-in-time copy of every metric
// (individual metrics are read atomically; the set is not globally frozen).
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies all current metric values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

// Delta returns the change from prev to s: counters and histogram counts are
// subtracted (metrics absent from prev count from zero), gauges keep their
// current value.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]float64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for n, v := range s.Counters {
		d.Counters[n] = v - prev.Counters[n]
	}
	for n, v := range s.Gauges {
		d.Gauges[n] = v
	}
	for n, h := range s.Histograms {
		p, ok := prev.Histograms[n]
		if !ok || len(p.Counts) != len(h.Counts) {
			d.Histograms[n] = h
			continue
		}
		dh := HistogramSnapshot{
			Count: h.Count - p.Count, Sum: h.Sum - p.Sum,
			Min: h.Min, Max: h.Max, Bounds: h.Bounds,
			Counts: make([]uint64, len(h.Counts)),
		}
		for i := range h.Counts {
			dh.Counts[i] = h.Counts[i] - p.Counts[i]
		}
		d.Histograms[n] = dh
	}
	return d
}

// fmtFloat renders metric values compactly ("3", "0.125", "1.5e+06").
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteText renders the snapshot as sorted "kind name value" lines, the
// format served by the daemon's METRICS command and /metricz endpoint.
func (s Snapshot) WriteText(w io.Writer) {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "counter %s %s\n", n, fmtFloat(s.Counters[n]))
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "gauge %s %s\n", n, fmtFloat(s.Gauges[n]))
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(w, "histogram %s count=%d sum=%s min=%s max=%s mean=%s\n",
			n, h.Count, fmtFloat(h.Sum), fmtFloat(h.Min), fmtFloat(h.Max), fmtFloat(h.Mean()))
	}
}

// Observer bundles the halves of the observability layer: the metrics
// registry, the decision tracer, the sampled-span latency recorder, and the
// flight recorder of recent runtime events. Engines always carry one;
// sharing a single Observer across engines aggregates their series. An
// Observer assembled by hand may leave Latency or Flight nil — every method
// on both types is nil-receiver safe, so consumers never need to check.
type Observer struct {
	Metrics *Registry
	Tracer  *Tracer
	Latency *LatencyRecorder
	Flight  *FlightRecorder
}

// NewObserver returns an observer with an empty registry, a tracer retaining
// the most recent 256 decision traces, a latency recorder sampling 1-in-256
// source items, and a 1024-event flight recorder.
func NewObserver() *Observer {
	reg := NewRegistry()
	return &Observer{
		Metrics: reg,
		Tracer:  NewTracer(256),
		Latency: NewLatencyRecorder(reg, 0),
		Flight:  NewFlightRecorder(0),
	}
}
