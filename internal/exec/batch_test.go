package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"streamshare/internal/obs"
	"streamshare/internal/photons"
	"streamshare/internal/properties"
	"streamshare/internal/testutil"
	"streamshare/internal/workload"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// process1 hands an operator one item, as the tests written against single
// items expect; nil when the item produced nothing.
func process1(op Operator, item *xmlstream.Element) []*xmlstream.Element {
	return op.Process(nil, []*xmlstream.Element{item})
}

// flush1 drains an operator; nil when it held nothing.
func flush1(op Operator) []*xmlstream.Element { return op.Flush(nil) }

// testLoads gives every stage of p a stand-in base load, distinct per
// operator kind so a stage charged with another's weight shows.
func testLoads(p *Pipeline) []float64 {
	kinds := []string{"select", "project", "window-agg", "window-merge",
		"agg-filter", "window-contents", "restructure", "sort-buffer", "remap"}
	l := make([]float64, len(p.Ops))
	for i, op := range p.Ops {
		for k, name := range kinds {
			if name == op.Name() {
				l[i] = 0.1 + 0.37*float64(k)
			}
		}
		if l[i] == 0 {
			panic("no test load for " + op.Name())
		}
	}
	return l
}

// evalRun is one evaluation of a pipeline over a stream: the outputs in
// order, the charged work, and the exec.op.* counter totals.
type evalRun struct {
	out      []*xmlstream.Element
	work     float64
	counters map[string]float64
}

// evalSplit drives a fresh instrumented pipeline from build over items cut
// into batches of the given size (0: one batch holding the whole stream; a
// negative size: random sizes up to its magnitude), end of stream riding the
// last batch.
func evalSplit(build func() *Pipeline, items []*xmlstream.Element, size int, rnd *rand.Rand) evalRun {
	reg := obs.NewRegistry()
	pl := Instrument(build(), reg, "exec.op")
	loads := testLoads(pl)
	var run evalRun
	for lo := 0; ; {
		n := size
		switch {
		case size == 0:
			n = len(items)
		case size < 0:
			n = 1 + rnd.Intn(-size)
		}
		hi := min(lo+n, len(items))
		out, work := pl.Eval(0, items[lo:hi], hi == len(items), loads)
		run.out = append(run.out, out...)
		run.work += work
		if lo = hi; lo == len(items) {
			break
		}
	}
	run.counters = countersOf(reg)
	return run
}

// evalPerItem is the oracle: the one-item-at-a-time facade, Process per item
// and then Flush, with the work the per-item rule bills — bload(op) for
// every item entering op — summed from the operators' own in counters.
func evalPerItem(build func() *Pipeline, items []*xmlstream.Element) evalRun {
	reg := obs.NewRegistry()
	pl := Instrument(build(), reg, "exec.op")
	var run evalRun
	for _, it := range items {
		run.out = append(run.out, pl.Process(it)...)
	}
	run.out = append(run.out, pl.Flush()...)
	run.counters = countersOf(reg)
	// Operators of one kind share a counter, and so must share a weight.
	loads := testLoads(pl)
	seen := map[string]bool{}
	for i, op := range pl.Ops {
		if !seen[op.Name()] {
			seen[op.Name()] = true
			run.work += loads[i] * run.counters["exec.op."+op.Name()+".in"]
		}
	}
	return run
}

func countersOf(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "exec.op.") {
			out[name] = v
		}
	}
	return out
}

// sameRun fails unless got equals want element for element, counter for
// counter, and in charged work to 1e-9 relative.
func sameRun(t *testing.T, name string, got, want evalRun) {
	t.Helper()
	if len(got.out) != len(want.out) {
		t.Fatalf("%s: %d outputs, per-item evaluation gives %d", name, len(got.out), len(want.out))
	}
	for i := range want.out {
		if !got.out[i].Equal(want.out[i]) {
			t.Fatalf("%s: output %d is %s, per-item evaluation gives %s", name, i,
				xmlstream.Marshal(got.out[i]), xmlstream.Marshal(want.out[i]))
		}
	}
	if len(got.counters) != len(want.counters) {
		t.Fatalf("%s: counters %v, per-item evaluation gives %v", name, got.counters, want.counters)
	}
	for k, w := range want.counters {
		if got.counters[k] != w {
			t.Fatalf("%s: %s = %v, per-item evaluation gives %v", name, k, got.counters[k], w)
		}
	}
	if d := math.Abs(got.work - want.work); d > 1e-9*math.Abs(want.work) {
		t.Fatalf("%s: charged work %v, per-item evaluation gives %v", name, got.work, want.work)
	}
}

// TestBatchEquivalence is the property the batch-shaped Operator rests on:
// however a stream is cut into batches, a pipeline emits what it emits fed
// one item at a time — same elements in the same order, Flush included —
// counts the same items and bytes, and is charged the same work. It covers
// every operator kind, the stateful ones over time and count windows whose
// step is not their size, and the full and residual pipelines of the
// benchmark's 32 queries.
func TestBatchEquivalence(t *testing.T) {
	items := photons.NewGenerator(photons.DefaultConfig(), 7).Generate(5000)
	type pipeCase struct {
		name   string
		inputs []*xmlstream.Element
		build  func() *Pipeline
	}
	var cases []pipeCase
	seen := map[string]bool{}
	add := func(name string, inputs []*xmlstream.Element, build func() *Pipeline) {
		for _, op := range build().Ops {
			seen[op.Name()] = true
		}
		cases = append(cases, pipeCase{name, inputs, build})
	}

	// Operator kinds, one or two stages each.
	en, dt := xmlstream.ParsePath("en"), xmlstream.ParsePath("det_time")
	timeWin := wxquery.Window{Kind: wxquery.WindowDiff, Ref: dt, Size: dec("20"), Step: dec("10")}
	timeWide := wxquery.Window{Kind: wxquery.WindowDiff, Ref: dt, Size: dec("60"), Step: dec("40")}
	countWin := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("8"), Step: dec("4")}
	countWide := wxquery.Window{Kind: wxquery.WindowCount, Size: dec("24"), Step: dec("12")}
	aggs := []AggSpec{{Op: wxquery.AggAvg, Elem: en}, {Op: wxquery.AggMax, Elem: en}}
	fineOps := []wxquery.AggOp{wxquery.AggAvg, wxquery.AggMax}
	fuzzy := append([]*xmlstream.Element(nil), items...)
	for i, r := 0, rand.New(rand.NewSource(1)); i+4 < len(fuzzy); i += 5 {
		j := i + 1 + r.Intn(3)
		fuzzy[i], fuzzy[j] = fuzzy[j], fuzzy[i]
	}
	add("select, project", items, func() *Pipeline {
		return NewPipeline(NewSelect(velaGraph()),
			NewProject([]xmlstream.Path{xmlstream.ParsePath("coord/cel"), en}))
	})
	for _, w := range []struct {
		name         string
		fine, coarse wxquery.Window
	}{{"time", timeWin, timeWide}, {"count", countWin, countWide}} {
		add("window-agg "+w.name, items, func() *Pipeline {
			return NewPipeline(NewWindowAgg(w.fine, aggs, nil))
		})
		add("window-merge "+w.name, items, func() *Pipeline {
			return NewPipeline(NewWindowAgg(w.fine, aggs, nil),
				NewWindowMerge(w.fine, w.coarse, aggs, []int{0, 1}, fineOps))
		})
		add("window-contents "+w.name, items, func() *Pipeline {
			return NewPipeline(NewWindowContents(w.fine))
		})
		add("sort-buffer, window-agg "+w.name, fuzzy, func() *Pipeline {
			return NewPipeline(NewSortBuffer(dt, 16), NewWindowAgg(w.fine, aggs, nil))
		})
	}
	add("remap", items, func() *Pipeline {
		return NewPipeline(NewWindowAgg(timeWin, aggs, nil),
			NewRemap([]AggSpec{{Op: wxquery.AggSum, Elem: en}}, []int{0}, []wxquery.AggOp{wxquery.AggAvg}))
	})

	// The benchmark's query set: every full pipeline and, for every query
	// another's stream can serve through a residual with work to do, the
	// first such residual, followed by the subscriber's restructuring.
	served := map[int]bool{}
	qs := buildQueries(t, append(workload.NewGenerator("photons", workload.DefaultSets(), 43).Generate(32), q4src))
	for i := range qs {
		a := &qs[i]
		add(fmt.Sprintf("full %d <%s>", i, tagOf(a.q)), items, func() *Pipeline {
			pl, err := FullPipeline(a.q, a.in, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pl
		})
		var canon []*xmlstream.Element
		for j := range qs {
			b := &qs[j]
			if i == j || served[j] || !properties.MatchInput(a.out, b.in) {
				continue
			}
			if pl, err := ResidualPipeline(a.out, b.in, nil); err != nil || len(pl.Ops) == 0 {
				continue
			}
			served[j] = true
			if canon == nil {
				canon = CanonicalPipeline(a.out, nil).Run(items)
			}
			add(fmt.Sprintf("residual %d → %d", i, j), canon, func() *Pipeline {
				residual, _ := ResidualPipeline(a.out, b.in, nil)
				rs, err := RestructureFor(b.q, b.in)
				if err != nil {
					t.Fatal(err)
				}
				return NewPipeline(append(residual.Ops, rs)...)
			})
		}
	}
	for _, kind := range []string{
		"select", "project", "window-agg", "agg-filter", "window-contents", "window-merge",
		"remap", "restructure", "sort-buffer",
	} {
		if !seen[kind] {
			t.Errorf("no pipeline in the test contains a %s operator", kind)
		}
	}

	// The property is about values, not interleavings: under the race
	// detector, which slows it tenfold, two random splits stand for twenty.
	seeds := int64(20)
	if testutil.Race {
		seeds = 2
	}
	for _, c := range cases {
		want := evalPerItem(c.build, c.inputs)
		for _, size := range []int{1, 2, 11, 64, 0} {
			sameRun(t, fmt.Sprintf("%s, batches of %d", c.name, size), evalSplit(c.build, c.inputs, size, nil), want)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			sameRun(t, fmt.Sprintf("%s, random batches, seed %d", c.name, seed),
				evalSplit(c.build, c.inputs, -64, rand.New(rand.NewSource(seed))), want)
		}
	}
	t.Logf("%d pipelines, %d batch splits each", len(cases), 5+seeds)
}
