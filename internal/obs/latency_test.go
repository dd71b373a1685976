package obs

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramSnapshotDeltaRace is the regression test for the snapshot
// consistency bug: under concurrent writers a snapshot's Count must equal
// the sum of its bucket counts (no observation may appear in the total
// without its bucket attribution), every delta between successive snapshots
// must be non-negative per bucket, and the final totals must be exact.
func TestHistogramSnapshotDeltaRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("race", ExpBuckets(1, 2, 8))
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := r.Snapshot().Histograms["race"]
		for {
			s := r.Snapshot().Histograms["race"]
			var sum uint64
			for _, c := range s.Counts {
				sum += c
			}
			if sum != s.Count {
				snapErr = fmt.Errorf("snapshot lost buckets: Count=%d ΣCounts=%d", s.Count, sum)
				return
			}
			d := Snapshot{Histograms: map[string]HistogramSnapshot{"race": s}}.
				Delta(Snapshot{Histograms: map[string]HistogramSnapshot{"race": prev}}).
				Histograms["race"]
			var dsum uint64
			for i, c := range d.Counts {
				if c > perWriter*writers {
					snapErr = fmt.Errorf("bucket %d delta underflowed: %d", i, c)
					return
				}
				dsum += c
			}
			if dsum != d.Count {
				snapErr = fmt.Errorf("delta lost buckets: Count=%d ΣCounts=%d", d.Count, dsum)
				return
			}
			prev = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64((w*perWriter + i) % 300))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	s := r.Snapshot().Histograms["race"]
	if s.Count != writers*perWriter {
		t.Errorf("final count = %d, want %d", s.Count, writers*perWriter)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Errorf("final ΣCounts = %d, Count = %d", sum, s.Count)
	}
	if s.Min != 0 || s.Max != 299 {
		t.Errorf("min/max = %v/%v, want 0/299", s.Min, s.Max)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{10})
	if got := r.Snapshot().Histograms["q"].Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	for _, v := range []float64{2, 4, 6, 8} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["q"]
	for _, tc := range []struct{ q, want float64 }{
		{0, 2}, {0.5, 5}, {1, 8},
	} {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Quantiles stay clamped inside [Min, Max] even in the overflow bucket.
	h.Observe(40)
	s = r.Snapshot().Histograms["q"]
	if got := s.Quantile(0.99); got < 10 || got > 40 {
		t.Errorf("Quantile(0.99) = %v, want within (10, 40]", got)
	}
	if got := s.Quantile(1); got != 40 {
		t.Errorf("Quantile(1) = %v, want 40", got)
	}
}

func TestSamplerDeterministicAndRate(t *testing.T) {
	reg := NewRegistry()
	l := NewLatencyRecorder(reg, 7)
	l.SetRate(16)
	var first []bool
	for i := uint64(0); i < 4096; i++ {
		first = append(first, l.Sampled("photons", i))
	}
	l2 := NewLatencyRecorder(NewRegistry(), 7)
	l2.SetRate(16)
	picked := 0
	for i := uint64(0); i < 4096; i++ {
		if got := l2.Sampled("photons", i); got != first[i] {
			t.Fatalf("sampler not deterministic at index %d", i)
		}
		if first[i] {
			picked++
		}
	}
	if picked < 4096/16/4 || picked > 4096/16*4 {
		t.Errorf("1-in-16 sampler picked %d of 4096", picked)
	}
	other := NewLatencyRecorder(NewRegistry(), 8)
	other.SetRate(16)
	diff := 0
	for i := uint64(0); i < 4096; i++ {
		if other.Sampled("photons", i) != first[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds picked identical sample sets")
	}
	l.SetRate(0)
	if l.Sampled("photons", 0) {
		t.Error("rate 0 must disable sampling")
	}
	l.SetRate(1)
	if !l.Sampled("photons", 3) {
		t.Error("rate 1 must sample everything")
	}
}

func TestLatencyRecorderSpanLifecycle(t *testing.T) {
	reg := NewRegistry()
	l := NewLatencyRecorder(reg, 0)
	sp := l.Start("vela", 42)
	l.Stamp(sp, StageBatch)
	l.Stamp(sp, StageSend)
	l.Stamp(sp, StageQueue)
	l.Stamp(sp, StageParse)
	child := l.Fork(sp)
	l.Stamp(child, StageEval)
	l.Deliver(child, "q1")
	l.Deliver(sp, "q1")

	s := reg.Snapshot()
	if c := s.Counters["latency.spans.started"]; c != 1 {
		t.Errorf("spans.started = %v", c)
	}
	if h := s.Histograms["latency.queue"]; h.Count != 3 {
		t.Errorf("queue rollup count = %d, want 3", h.Count)
	}
	// parse + eval + two delivers land on the compute side.
	if h := s.Histograms["latency.compute"]; h.Count != 4 {
		t.Errorf("compute rollup count = %d, want 4", h.Count)
	}
	if h := s.Histograms["latency.total"]; h.Count != 2 {
		t.Errorf("total count = %d, want 2", h.Count)
	}
	if h := s.Histograms["latency.sub.lag.q1"]; h.Count != 2 {
		t.Errorf("sub lag count = %d, want 2", h.Count)
	}
	if c := s.Counters["latency.sub.delivered.q1"]; c != 2 {
		t.Errorf("sub delivered = %v, want 2", c)
	}
	wm := s.Gauges["latency.sub.watermark.q1"]
	if want := float64(sp.Born) / 1e9; wm != want {
		t.Errorf("watermark = %v, want %v", wm, want)
	}
	keys := l.SampledKeys()
	if len(keys) != 1 || keys[0] != (SampleKey{Stream: "vela", Index: 42}) {
		t.Errorf("SampledKeys = %v", keys)
	}

	// Nil receivers and nil spans are inert.
	var nilRec *LatencyRecorder
	nilRec.Stamp(nil, StageBatch)
	nilRec.Deliver(nil, "x")
	if nilRec.Sampled("s", 0) || nilRec.Start("s", 0) != nil || nilRec.Fork(sp) != nil {
		t.Error("nil recorder must be inert")
	}
	l.Stamp(nil, StageBatch)
}

func TestSpanHeaderRoundtrip(t *testing.T) {
	l := NewLatencyRecorder(NewRegistry(), 0)
	sp := l.Start("orig:photons", 1234567)
	time.Sleep(time.Millisecond)
	l.Stamp(sp, StageBatch)
	b := AppendSpanHeader(nil, sp)
	b = append(b, 0xde, 0xad)
	got, rest, err := ParseSpanHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != sp.Stream || got.Index != sp.Index || got.Born != sp.Born || got.last.Load() != sp.last.Load() {
		t.Errorf("roundtrip mismatch: %+v vs %+v", got, sp)
	}
	if len(rest) != 2 || rest[0] != 0xde {
		t.Errorf("trailing bytes = %x", rest)
	}

	none, rest, err := ParseSpanHeader(AppendSpanHeader(nil, nil))
	if err != nil || none != nil || len(rest) != 0 {
		t.Errorf("nil-span roundtrip = %v, %x, %v", none, rest, err)
	}
	for _, bad := range [][]byte{{}, {2}, {1, 200}, {1, 3, 'a'}} {
		if _, _, err := ParseSpanHeader(bad); err == nil {
			t.Errorf("ParseSpanHeader(%x) accepted truncated input", bad)
		}
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Record("kind", strconv.Itoa(i))
	}
	ev := f.Events()
	if len(ev) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(i + 2); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
		if e.Detail != strconv.Itoa(i+2) {
			t.Errorf("event %d detail = %q", i, e.Detail)
		}
	}
	var b strings.Builder
	f.Dump(&b)
	if lines := strings.Count(b.String(), "\n"); lines != 4 {
		t.Errorf("dump lines = %d:\n%s", lines, b.String())
	}
	if !strings.Contains(b.String(), "flight 5 ") {
		t.Errorf("dump lacks newest event:\n%s", b.String())
	}
	var nilRec *FlightRecorder
	nilRec.Record("x", "y")
	nilRec.Dump(&b)
	if nilRec.Events() != nil {
		t.Error("nil recorder must be inert")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				f.Record("k", "")
				f.Events()
			}
		}()
	}
	wg.Wait()
	ev := f.Events()
	if len(ev) != 64 {
		t.Fatalf("len = %d", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs %d -> %d", ev[i-1].Seq, ev[i].Seq)
		}
	}
}

func TestStallDetector(t *testing.T) {
	s := NewStallDetector(3)
	for _, lag := range []float64{1, 2, 3} {
		s.Observe("q1", lag)
	}
	if s.Stalled("q1") {
		t.Error("stalled after only 3 samples (need window+1)")
	}
	s.Observe("q1", 4)
	if !s.Stalled("q1") {
		t.Error("monotonic growth across window not flagged")
	}
	s.Observe("q1", 2) // progress: lag dropped
	if s.Stalled("q1") {
		t.Error("lag drop must clear the stall flag")
	}
	for _, lag := range []float64{3, 3, 4, 5} {
		s.Observe("q2", lag)
	}
	if s.Stalled("q2") {
		t.Error("plateau inside the window must not flag")
	}
	s.Forget("q1")
	if s.Stalled("q1") {
		t.Error("forgotten id reported stalled")
	}
}

// TestWritePromParses feeds the exposition through a strict text-format
// parser implementing the Prometheus 0.0.4 grammar for the subset we emit:
// TYPE comments, sample lines with optional le labels, cumulative
// non-decreasing histogram buckets ending in an +Inf bucket that matches
// _count.
func TestWritePromParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("runtime.messages").Add(12)
	r.Counter("sim.link.bytes.SP0-SP1").Add(99)
	r.Gauge("runtime.mailbox.hwm.SP3").Set(7.5)
	h := r.Histogram("latency.total", ExpBuckets(1e-6, 4, 5))
	for _, v := range []float64{1e-6, 3e-5, 0.2, 9} {
		h.Observe(v)
	}
	var b strings.Builder
	r.Snapshot().WriteProm(&b)
	text := b.String()

	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]+)"\})? (\S+)$`)
	types := map[string]string{}
	buckets := map[string][]float64{} // cumulative counts per histogram
	counts := map[string]float64{}
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) != 4 || parts[1] != "TYPE" || !nameRe.MatchString(parts[2]) {
				t.Fatalf("bad comment line %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad type in %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		samples++
		name, le, val := m[1], m[3], m[4]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if le != "" {
			base := strings.TrimSuffix(name, "_bucket")
			if base == name || types[base] != "histogram" {
				t.Fatalf("le label on non-histogram line %q", line)
			}
			if le != "+Inf" {
				if _, err := strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("bad le %q: %v", le, err)
				}
			}
			prev := buckets[base]
			if len(prev) > 0 && v < prev[len(prev)-1] {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			buckets[base] = append(prev, v)
			continue
		}
		if strings.HasSuffix(name, "_count") {
			counts[strings.TrimSuffix(name, "_count")] = v
		}
		base := name
		for _, suf := range []string{"_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if types[base] == "" && types[name] == "" {
			t.Fatalf("sample %q lacks a TYPE declaration", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no samples emitted")
	}
	for base, typ := range types {
		if typ != "histogram" {
			continue
		}
		bs := buckets[base]
		if len(bs) == 0 {
			t.Fatalf("histogram %s has no buckets", base)
		}
		if bs[len(bs)-1] != counts[base] {
			t.Fatalf("histogram %s +Inf bucket %v != count %v", base, bs[len(bs)-1], counts[base])
		}
	}
	if types["latency_total"] != "histogram" {
		t.Errorf("latency.total not exposed as histogram: %v", types)
	}
	if types["sim_link_bytes_SP0_SP1"] != "counter" {
		t.Errorf("sanitized counter missing: %v", types)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"runtime.mailbox.hwm.SP3": "runtime_mailbox_hwm_SP3",
		"sim.link.bytes.SP0-SP1":  "sim_link_bytes_SP0_SP1",
		"9lives":                  "_9lives",
		"ok_name:x":               "ok_name:x",
		"":                        "_",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
