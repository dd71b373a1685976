package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func approx(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	approx(t, "median", median(vs), 3)
	approx(t, "q0", quantile(vs, 0), 1)
	approx(t, "q1", quantile(vs, 1), 5)
	approx(t, "q0.9", quantile(vs, 0.9), 4.6)
	approx(t, "q0.25 of two", quantile([]float64{10, 20}, 0.25), 12.5)
	approx(t, "empty", quantile(nil, 0.5), 0)
	if vs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
}

// The contract judges spread with Python's statistics.quantiles(v, n=4);
// these expectations come from running exactly that.
func TestIQRShareMatchesPython(t *testing.T) {
	ten := []float64{10.2, 9.8, 10.0, 10.5, 9.9, 10.1, 10.3, 9.7, 10.0, 10.4}
	// quantiles -> [9.875, 10.05, 10.325]; median 10.05
	approx(t, "ten values", iqrShare(ten), (10.325-9.875)/10.05)
	// two values extrapolate: quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
	approx(t, "two values", iqrShare([]float64{1, 2}), 1.5/1.5)
	approx(t, "one value", iqrShare([]float64{7}), 0)
	approx(t, "constant", iqrShare([]float64{3, 3, 3, 3}), 0)
}

func TestSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	approx(t, "flat", slope(xs, []float64{20, 20, 20, 20, 20}), 0)
	approx(t, "growing backlog", slope(xs, []float64{20, 22.5, 25, 27.5, 30}), 2.5)
	approx(t, "one point", slope(xs[:1], []float64{1}), 0)
	approx(t, "vertical", slope([]float64{1, 1, 1}, []float64{1, 2, 3}), 0)
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(span{}, "workload", at(0), at(100))
	req := tr.requestAt(root, "chunk", at(10), at(60))
	tr.add(req, "FEED", at(20), at(50))
	// Two children that overlap (a writer and a reader) cover 30..80 once.
	tr.add(root, "a", at(30), at(70))
	tr.add(root, "b", at(50), at(80))
	spans := tr.finish()
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] = s.SelfNs / 1e6
	}
	for name, want := range map[string]int64{"workload": 30, "chunk": 20, "FEED": 30, "a": 40, "b": 30} {
		if self[name] != want {
			t.Errorf("self time of %s = %d ms, want %d", name, self[name], want)
		}
	}
	if spans[1].Req == 0 || spans[2].Req != spans[1].Req || spans[0].Req != 0 {
		t.Errorf("request ids: workload %d chunk %d FEED %d", spans[0].Req, spans[1].Req, spans[2].Req)
	}
	var nilTr *tracer
	nilTr.start(span{}, "x").end() // a nil tracer records nothing and does not panic
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lag", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	for _, tc := range []struct {
		name string
		ms   metricSpec
		a, b []float64
		want verdict
	}{
		{"lower rose past the bound", lower, steady(100), steady(115), worse},
		{"lower rose inside the bound", lower, steady(100), steady(105), within},
		{"lower fell past the bound", lower, steady(100), steady(80), better},
		{"higher fell past the bound", higher, steady(1000), steady(850), worse},
		{"higher rose past the bound", higher, steady(1000), steady(1200), better},
		{"noisy side cannot resolve", lower, []float64{80, 100, 120, 90, 130}, steady(115), unresolved},
		{"single runs have no spread", lower, []float64{100}, []float64{120}, worse},
	} {
		if got, _ := judge(tc.ms, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestDiffFiles(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	write := func(name string, rate, setup float64, failed int) string {
		f := resultFile{Runs: []runRecord{{Workload: "w", Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"items_per_s": {rate, "1/s"}, "setup_s": {setup, "s"}}}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 1.0, 0)
	for _, tc := range []struct {
		name      string
		other     string
		wantWorse bool
		wantText  string
	}{
		{"same", write("b.json", 1010, 1.1, 0), false, "within bound"},
		{"slower", write("c.json", 800, 1.0, 0), true, "worse"},
		{"more failures", write("d.json", 1000, 1.0, 3), true, "more operations fail"},
	} {
		var out bytes.Buffer
		worse, err := diffFiles(&out, spec, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.wantWorse || !strings.Contains(out.String(), tc.wantText) {
			t.Errorf("%s: worse=%v, output:\n%s", tc.name, worse, out.String())
		}
	}
}

// smokeSizes shrinks every workload to hundreds of items and tens of
// cycles, so the smoke runs take about a second each.
func smokeSizes() sizes {
	sz := defaultSizes()
	sz.inprocItems = 400
	sz.satChunk, sz.satWarm, sz.satPerSecond = 200, 1, 8
	sz.openChunk, sz.openRate, sz.openWarm = 50, 10, 1
	sz.churnGrid, sz.churnQueries, sz.simChunk, sz.simMax, sz.checkItems = 3, 24, 50, 4, 100
	sz.setupReps, sz.cycleBlock, sz.wireBlock = 1, 10, 2
	sz.ratioItems, sz.fixedFeeds = 200, 2
	return sz
}

// TestSmoke runs every kind of workload at smoke size, untraced and
// traced, and checks that each reports every metric BENCHMARK.json
// declares for the mode, correct against the reference. The cluster run
// builds cmd/sgd and drives two real processes.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"grid-inproc", "subscribe-churn", "cluster-feed-sat"}
	if !testing.Short() {
		names = append(names, "cluster-feed-open", "cluster-durable-sat")
	}
	defer cleanupAll()
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(spec, name, 7, 0.6, traced, smokeSizes())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, rec.Failed, rec.Attempted)
			}
			want := len(spec.EndToEnd)
			if traced {
				want = len(spec.PerLayer)
			}
			if len(rec.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rec.Metrics), want)
			}
		}
	}
	cleanup.mu.Lock()
	left := len(cleanup.procs) + len(cleanup.dirs)
	cleanup.mu.Unlock()
	if left != 0 {
		t.Errorf("%d child processes or temp directories left behind", left)
	}
}
