package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// CostBreakdown splits a plan's cost C (§3.2) into its weighted terms:
// Traffic = γ·Σ u_b(e), Load = (1−γ)·Σ u_l(v), Penalty = the weighted
// exponential overload penalties; Total is their sum.
type CostBreakdown struct {
	Traffic float64 `json:"traffic"`
	Load    float64 `json:"load"`
	Penalty float64 `json:"penalty"`
	Total   float64 `json:"total"`
}

func (c CostBreakdown) String() string {
	return fmt.Sprintf("traffic=%.6g load=%.6g penalty=%.6g total=%.6g",
		c.Traffic, c.Load, c.Penalty, c.Total)
}

// CandidateTrace records one stream considered for one subscription input:
// where the search found it, whether its properties matched (with the
// rejection reason when not), the plan generated from it, and its cost.
type CandidateTrace struct {
	// Stream is the candidate deployed stream's id.
	Stream string `json:"stream"`
	// FoundAt is the peer where the search first discovered the stream.
	FoundAt string `json:"foundAt"`
	// Match reports the Algorithm 2 property-match outcome.
	Match bool `json:"match"`
	// Reason is "match" or the first failing condition, in prose.
	Reason string `json:"reason"`
	// Tap and Route describe the generated plan (empty when Match is false
	// or no route to the target exists).
	Tap   string   `json:"tap,omitempty"`
	Route []string `json:"route,omitempty"`
	// Residual lists the operators the plan runs at the tap.
	Residual []string `json:"residual,omitempty"`
	// Cost is the plan's cost breakdown.
	Cost CostBreakdown `json:"cost"`
	// Overloaded marks plans that would exceed a peer or link capacity;
	// under admission control such plans are discarded.
	Overloaded bool `json:"overloaded,omitempty"`
	// Widened marks §6 stream-widening plans (the candidate is the stream
	// that would be altered).
	Widened bool `json:"widened,omitempty"`
	// Selected marks the winning plan of this input.
	Selected bool `json:"selected,omitempty"`
	// Err records a planning failure (e.g. no route), if any.
	Err string `json:"err,omitempty"`
}

// InputTrace records the search over one input stream of a subscription.
type InputTrace struct {
	// Stream is the original input stream's name.
	Stream string `json:"stream"`
	// Visited lists the peers the discovery traversed, in visit order.
	Visited []string `json:"visited,omitempty"`
	// Candidates lists every stream considered, in discovery order.
	Candidates []CandidateTrace `json:"candidates"`
}

// DecisionTrace is the full record of one Subscribe call.
type DecisionTrace struct {
	// SubID is the subscription id ("q3"); failed registrations record the
	// id they would have received.
	SubID string `json:"subID"`
	// Strategy names the planning strategy.
	Strategy string `json:"strategy"`
	// Target is the subscriber's super-peer.
	Target string `json:"target"`
	// Query is the subscription's WXQuery source text.
	Query string `json:"query"`
	// Event labels re-planning traces with the adaptation event that caused
	// them ("repair peer-failed SP6", "migrate after unsub q7"). Empty for
	// ordinary registrations.
	Event string `json:"event,omitempty"`
	// Inputs holds one trace per input stream, in plan order.
	Inputs []*InputTrace `json:"inputs"`
	// Err is set when the registration failed (parse error, rejection, …).
	Err string `json:"err,omitempty"`
	// Duration is the measured registration compute time.
	Duration time.Duration `json:"duration"`
	// Messages and Visited mirror the registration statistics (Table 1).
	Messages int `json:"messages"`
	// VisitedPeers is the total discovery traversal count over all inputs.
	VisitedPeers int `json:"visitedPeers"`
}

// Input returns the trace for the named input stream, appending a new one on
// first use.
func (d *DecisionTrace) Input(stream string) *InputTrace {
	for _, it := range d.Inputs {
		if it.Stream == stream {
			return it
		}
	}
	it := &InputTrace{Stream: stream}
	d.Inputs = append(d.Inputs, it)
	return it
}

// Lines renders the decision as a human-readable candidate table, one line
// per candidate, grep-friendly key=value fields. The server's TRACE command
// and the enriched EXPLAIN print these lines verbatim.
func (d *DecisionTrace) Lines() []string {
	var out []string
	status := "ok"
	if d.Err != "" {
		status = "failed: " + d.Err
	}
	event := ""
	if d.Event != "" {
		event = fmt.Sprintf(" event=%q", d.Event)
	}
	out = append(out, fmt.Sprintf("decision %s strategy=%q target=%s%s %s (%v compute, %d messages, %d peers visited)",
		d.SubID, d.Strategy, d.Target, event, status, d.Duration.Round(time.Microsecond), d.Messages, d.VisitedPeers))
	for _, in := range d.Inputs {
		out = append(out, fmt.Sprintf("input %s visited=[%s] candidates=%d",
			in.Stream, strings.Join(in.Visited, " "), len(in.Candidates)))
		for i := range in.Candidates {
			out = append(out, "  "+in.Candidates[i].line())
		}
	}
	return out
}

func (c *CandidateTrace) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "candidate %s found=%s", c.Stream, c.FoundAt)
	if !c.Match {
		fmt.Fprintf(&b, " outcome=no-match reason=%q", c.Reason)
		return b.String()
	}
	b.WriteString(" outcome=match")
	if c.Err != "" {
		fmt.Fprintf(&b, " err=%q", c.Err)
		return b.String()
	}
	if c.Widened {
		b.WriteString(" widened")
	}
	fmt.Fprintf(&b, " tap=%s route=[%s] residual=[%s] %s",
		c.Tap, strings.Join(c.Route, " "), strings.Join(c.Residual, " "), c.Cost)
	if c.Overloaded {
		b.WriteString(" overloaded")
	}
	if c.Selected {
		b.WriteString(" selected")
	}
	return b.String()
}

// Tracer retains the most recent decision traces in a bounded ring and
// indexes them by subscription id, so decisions can be replayed after the
// fact (TRACE <id>). When ids repeat — a failed registration's tentative id
// reused by a later success — the most recent trace wins.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	traces []*DecisionTrace
	byID   map[string]*DecisionTrace
}

// NewTracer returns a tracer keeping up to capacity traces (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{cap: capacity, byID: map[string]*DecisionTrace{}}
}

// Record stores a completed decision trace.
func (t *Tracer) Record(d *DecisionTrace) {
	if t == nil || d == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces = append(t.traces, d)
	t.byID[d.SubID] = d
	if len(t.traces) > t.cap {
		old := t.traces[0]
		t.traces = append(t.traces[:0], t.traces[1:]...)
		if t.byID[old.SubID] == old {
			delete(t.byID, old.SubID)
		}
	}
}

// Get returns the most recent trace recorded under the given subscription
// id, or nil.
func (t *Tracer) Get(id string) *DecisionTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// Recent returns up to n traces, most recent last.
func (t *Tracer) Recent(n int) []*DecisionTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.traces) {
		n = len(t.traces)
	}
	return append([]*DecisionTrace(nil), t.traces[len(t.traces)-n:]...)
}
