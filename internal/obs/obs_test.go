package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			for j := 0; j < 1000; j++ {
				c.Inc()
				r.Gauge("hwm").SetMax(float64(j))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != 8000 {
		t.Errorf("counter = %v, want 8000", v)
	}
	if v := r.Gauge("hwm").Value(); v != 999 {
		t.Errorf("hwm = %v, want 999", v)
	}
}

func TestGaugeSetMaxKeepsHighWater(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if v := g.Value(); v != 5 {
		t.Errorf("SetMax(3) lowered gauge to %v", v)
	}
	g.Set(1)
	if v := g.Value(); v != 1 {
		t.Errorf("Set did not overwrite: %v", v)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", ExpBuckets(1, 10, 3)) // bounds 1, 10, 100
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != 4 || s.Sum != 555.5 || s.Min != 0.5 || s.Max != 500 {
		t.Errorf("histogram snapshot = %+v", s)
	}
	want := []uint64{1, 1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if m := s.Mean(); m != 555.5/4 {
		t.Errorf("mean = %v", m)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("g").Set(7)
	r.Histogram("h", []float64{10}).Observe(4)
	prev := r.Snapshot()
	r.Counter("a").Add(2)
	r.Counter("b").Inc()
	r.Gauge("g").Set(9)
	r.Histogram("h", nil).Observe(40)
	d := r.Snapshot().Delta(prev)
	if d.Counters["a"] != 2 || d.Counters["b"] != 1 {
		t.Errorf("counter deltas = %v", d.Counters)
	}
	if d.Gauges["g"] != 9 {
		t.Errorf("gauge in delta = %v, want current value 9", d.Gauges["g"])
	}
	if h := d.Histograms["h"]; h.Count != 1 || h.Counts[1] != 1 || h.Counts[0] != 0 {
		t.Errorf("histogram delta = %+v", h)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g.depth").Set(3.5)
	r.Histogram("h.lat", []float64{1}).Observe(0.5)
	var b strings.Builder
	r.Snapshot().WriteText(&b)
	got := b.String()
	want := "counter a.count 1\ncounter z.count 2\ngauge g.depth 3.5\nhistogram h.lat count=1 sum=0.5 min=0.5 max=0.5 mean=0.5\n"
	if got != want {
		t.Errorf("WriteText =\n%q\nwant\n%q", got, want)
	}
}

func TestTracerRingAndLookup(t *testing.T) {
	tr := NewTracer(2)
	a := &DecisionTrace{SubID: "q1"}
	b := &DecisionTrace{SubID: "q2"}
	c := &DecisionTrace{SubID: "q3"}
	tr.Record(a)
	tr.Record(b)
	tr.Record(c) // evicts a
	if tr.Get("q1") != nil {
		t.Error("evicted trace still indexed")
	}
	if tr.Get("q2") != b || tr.Get("q3") != c {
		t.Error("lookup broken")
	}
	if rec := tr.Recent(10); len(rec) != 2 || rec[0] != b || rec[1] != c {
		t.Errorf("Recent = %v", rec)
	}
	// A re-used id (failed then successful registration) resolves to the
	// most recent trace, and evicting the older one keeps the index.
	d := &DecisionTrace{SubID: "q3"}
	tr.Record(d)
	if tr.Get("q3") != d {
		t.Error("latest trace should win the id")
	}
	tr.Record(&DecisionTrace{SubID: "q4"}) // evicts c (older q3)
	if tr.Get("q3") != d {
		t.Error("evicting a superseded trace must not drop the live index entry")
	}
}

func TestDecisionTraceLines(t *testing.T) {
	d := &DecisionTrace{SubID: "q1", Strategy: "Stream Sharing", Target: "SP1"}
	in := d.Input("photons")
	in.Visited = []string{"SP4", "SP5"}
	in.Candidates = append(in.Candidates,
		CandidateTrace{Stream: "orig:photons", FoundAt: "SP4", Match: true,
			Reason: "match", Tap: "SP4", Route: []string{"SP4", "SP5", "SP1"},
			Residual: []string{"select", "project"},
			Cost:     CostBreakdown{Traffic: 0.001, Load: 0.002, Total: 0.003}, Selected: true},
		CandidateTrace{Stream: "s2(q1)", FoundAt: "SP5", Match: false,
			Reason: "subscription predicates do not imply the stream's selection"},
	)
	if d.Input("photons") != in {
		t.Error("Input should be idempotent per stream")
	}
	lines := d.Lines()
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %v", len(lines), lines)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"decision q1", "input photons visited=[SP4 SP5] candidates=2",
		"outcome=match", "selected", "outcome=no-match",
		`reason="subscription predicates do not imply the stream's selection"`,
		"route=[SP4 SP5 SP1]", "residual=[select project]", "total=0.003",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace output lacks %q:\n%s", want, joined)
		}
	}
}
