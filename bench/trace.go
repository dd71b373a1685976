package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Benchmark-side tracing: a span around every call the driver makes into
// the system — workload → phase → chunk or cycle → the FEED round trip,
// Subscribe, Unsubscribe, Run or kernel call inside it. Spans live in
// memory and are written out when the workload ends. Spans inside the
// program are the program's own (obs.Span); a later change may join them.

// spanRec is one recorded span. Times are nanoseconds since the tracer
// started; Req is shared by every span of one request (chunk or cycle).
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for the root
	Req     int    `json:"req,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// call the same code and pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes it. The zero span (from a nil tracer)
// is inert.
type span struct {
	t   *tracer
	idx int // index into t.spans
	id  int
	req int
}

// push appends a span record. newReq gives the span a fresh request id,
// which its descendants inherit; otherwise it inherits its parent's.
func (t *tracer) push(parent span, name string, start, end time.Time, newReq bool) span {
	if t == nil {
		return span{}
	}
	rec := spanRec{Parent: parent.id, Req: parent.req, Name: name, StartNs: start.Sub(t.t0).Nanoseconds()}
	if !end.IsZero() {
		rec.EndNs = end.Sub(t.t0).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if newReq {
		t.reqs++
		rec.Req = t.reqs
	}
	rec.ID = len(t.spans) + 1
	t.spans = append(t.spans, rec)
	return span{t: t, idx: rec.ID - 1, id: rec.ID, req: rec.Req}
}

// start opens a span under parent; a zero parent makes a root.
func (t *tracer) start(parent span, name string) span {
	return t.push(parent, name, time.Now(), time.Time{}, false)
}

// request opens a span that starts a new request (a chunk or a cycle).
func (t *tracer) request(parent span, name string) span {
	return t.push(parent, name, time.Now(), time.Time{}, true)
}

// add records a closed span after the fact, from times the caller took
// itself: the open-loop reader learns a chunk's span only when its reply
// arrives. requestAt is add for a span that starts a new request.
func (t *tracer) add(parent span, name string, start, end time.Time) span {
	return t.push(parent, name, start, end, false)
}

func (t *tracer) requestAt(parent span, name string, start, end time.Time) span {
	return t.push(parent, name, start, end, true)
}

func (s span) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.idx].EndNs = now
	s.t.mu.Unlock()
}

// finish computes self times — a span's duration minus the part of it its
// children cover — and returns the spans.
func (t *tracer) finish() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = s.EndNs - s.StartNs - covered(t.spans, children[s.ID], s.StartNs, s.EndNs)
	}
	return t.spans
}

// covered is the length of the union of the given spans' intervals, clipped
// to [lo, hi]; overlapping children (a writer and a reader goroutine) are
// not counted twice.
func covered(spans []spanRec, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].StartNs, lo), min(spans[i].EndNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []spanRec) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.SelfNs) / 1e9
	}
	return out
}

// writeTrace writes the spans and their per-name self-time totals.
func writeTrace(path string, workload string, spans []spanRec) error {
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		SelfS    map[string]float64 `json:"self_seconds_by_name"`
		Spans    []spanRec          `json:"spans"`
	}{workload, selfByName(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
