package exec

import (
	"strings"
	"sync"
	"testing"

	"streamshare/internal/photons"
	"streamshare/internal/properties"
	"streamshare/internal/testutil"
	"streamshare/internal/workload"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// builtQuery is one parsed query of a test's plan set.
type builtQuery struct {
	src string
	q   *wxquery.Query
	in  *properties.Input // what the query reads
	out *properties.Input // what its canonical stream offers to others
}

func buildQueries(t *testing.T, srcs []string) []builtQuery {
	t.Helper()
	qs := make([]builtQuery, len(srcs))
	for i, src := range srcs {
		q, p := mustProps(t, src)
		in, _ := p.SingleInput()
		out, _ := p.Result().SingleInput()
		qs[i] = builtQuery{src: src, q: q, in: in, out: out}
	}
	return qs
}

// clones deep-copies items.
func clones(items []*xmlstream.Element) []*xmlstream.Element {
	out := make([]*xmlstream.Element, len(items))
	for i, it := range items {
		out[i] = it.Clone()
	}
	return out
}

// TestOperatorsLeaveInputsUntouched is the invariant that makes sharing
// subtrees between an operator's input and output safe: no operator writes
// to an element it was handed. Two instances of every pipeline run over the
// same input trees on two goroutines — so under -race a write is a reported
// race — and the inputs are compared with a deep snapshot taken before.
func TestOperatorsLeaveInputsUntouched(t *testing.T) {
	srcs := append(workload.NewGenerator("photons", workload.DefaultSets(), 31).Generate(30),
		q4src, // an aggregate filter
		`<r>{ for $w in stream("photons")/photons/photon |count 4 step 2| return <batch>{ $w }{ $w/en }</batch> }</r>`,
		`<r>{ for $p in stream("photons")/photons/photon return ($p, <o>{ $p/coord }</o>) }</r>`,
	)
	qs := buildQueries(t, srcs)
	items := append(randomPhotons(700, 17), oddPhotons()...)
	seen := map[string]bool{}

	// twice runs two pipelines from build over the same inputs at once.
	twice := func(name string, inputs []*xmlstream.Element, build func() *Pipeline) {
		t.Helper()
		snapshot := clones(inputs)
		var outs [2][]*xmlstream.Element
		var wg sync.WaitGroup
		for g := range outs {
			pl := build()
			for _, op := range pl.Ops {
				seen[op.Name()] = true
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[g] = pl.Run(inputs)
			}()
		}
		wg.Wait()
		for i := range inputs {
			if !inputs[i].Equal(snapshot[i]) {
				t.Fatalf("%s: input %d changed:\n before %s\n after  %s", name, i, xmlstream.Marshal(snapshot[i]), xmlstream.Marshal(inputs[i]))
			}
		}
		if len(outs[0]) != len(outs[1]) {
			t.Fatalf("%s: the two runs emitted %d and %d items", name, len(outs[0]), len(outs[1]))
		}
		for i := range outs[0] {
			if !outs[0][i].Equal(outs[1][i]) {
				t.Fatalf("%s: output %d differs between the two runs", name, i)
			}
		}
	}

	for i := range qs {
		a := &qs[i]
		twice(a.src, items, func() *Pipeline {
			pl, err := FullPipeline(a.q, a.in, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pl
		})
		// Everything that can be derived from a's canonical stream reads the
		// very trees a's pipeline emitted, which in turn share with items.
		var canon []*xmlstream.Element
		for j := range qs {
			b := &qs[j]
			if i == j || !properties.MatchInput(a.out, b.in) {
				continue
			}
			if canon == nil {
				canon = CanonicalPipeline(a.out, nil).Run(items)
			}
			twice(a.src+" → "+b.src, canon, func() *Pipeline {
				residual, err := ResidualPipeline(a.out, b.in, nil)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := RestructureFor(b.q, b.in)
				if err != nil {
					t.Fatal(err)
				}
				return NewPipeline(append(residual.Ops, rs)...)
			})
		}
	}
	twice("sort-buffer", items, func() *Pipeline {
		return NewPipeline(NewSortBuffer(xmlstream.ParsePath("det_time"), 8))
	})
	for _, kind := range []string{
		"select", "project", "window-agg", "agg-filter", "window-contents", "window-merge",
		"remap", "restructure", "sort-buffer",
	} {
		if !seen[kind] {
			t.Errorf("no pipeline in the test contains a %s operator", kind)
		}
	}
}

// TestPaddedNumericLeaves: an item built through the API can carry
// whitespace around a number, and every operator must read it the same way.
// The selection always trimmed it; the aggregate used to skip the value.
func TestPaddedNumericLeaves(t *testing.T) {
	var plain, padded []*xmlstream.Element
	for _, p := range randomPhotons(200, 3) {
		plain = append(plain, p)
		q := p.Clone()
		for _, path := range []string{"coord/cel/ra", "coord/cel/dec", "en", "det_time"} {
			leaf := q.First(xmlstream.ParsePath(path))
			leaf.Text = " " + leaf.Text + "\n"
		}
		padded = append(padded, q)
	}
	unpad := strings.NewReplacer(" ", "", "\n", "")
	agg := `<r>{ for $w in stream("photons")/photons/photon [coord/cel/ra >= 120.0] |det_time diff 20 step 10|
	  let $a := avg($w/en) let $m := max($w/en) let $c := count($w/en) return <o>{ $a }<m>{ $m }</m><c>{ $c }</c></o> }</r>`
	for _, src := range []string{q2src, agg} {
		want, got := runFull(t, src, plain), runFull(t, src, padded)
		if len(want) == 0 {
			t.Fatalf("no output to compare for %s", src)
		}
		if len(got) != len(want) {
			t.Fatalf("%d results over padded leaves, %d over plain ones\n%s", len(got), len(want), src)
		}
		for i := range want {
			// A selection's output carries the leaves as they are; compare
			// what they mean.
			if w, g := xmlstream.Marshal(want[i]), xmlstream.Marshal(got[i]); unpad.Replace(g) != w {
				t.Fatalf("result %d over padded leaves is %s, over plain ones %s", i, g, w)
			}
		}
	}
}

// TestAllocBudget pins what the hot pipelines allocate per item, on the
// workload and the three query templates the benchmark's ledger times, so a
// change that brings per-item tree copying or query re-interpretation back
// fails tier-1 instead of waiting for a benchmark run. Operators append to
// the caller's buffer, so no stage allocates a result slice. Budgets are
// the measured values plus a fifth.
func TestAllocBudget(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	qs := buildQueries(t, workload.NewGenerator("photons", workload.DefaultSets(), 43).Generate(32))
	items := photons.NewGenerator(photons.DefaultConfig(), 1).Generate(5000)
	first := func(tag string) *builtQuery {
		for i := range qs {
			if tagOf(qs[i].q) == tag {
				return &qs[i]
			}
		}
		t.Fatalf("no <%s> query in the set", tag)
		return nil
	}
	// perItem is the mean allocation count of a whole run — pipeline
	// construction, every item, Flush — per input item.
	perItem := func(inputs []*xmlstream.Element, build func() *Pipeline) float64 {
		return testing.AllocsPerRun(5, func() { build().Run(inputs) }) / float64(len(inputs))
	}
	for _, c := range []struct {
		tag    string
		budget float64
	}{
		{"sel", 0.32},    // measured 0.26: most items fail the predicate and cost nothing
		{"proj", 7.3},    // measured 6.01: two new nodes and child slices in Project, one in Restructure
		{"agg_en", 0.99}, // measured 0.82
	} {
		q := first(c.tag)
		got := perItem(items, func() *Pipeline {
			pl, err := FullPipeline(q.q, q.in, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pl
		})
		t.Logf("FullPipeline <%s>: %.2f allocations per item", c.tag, got)
		if got > c.budget {
			t.Errorf("FullPipeline <%s> allocates %.2f objects per item, budget %.2f", c.tag, got, c.budget)
		}
	}
	// The first query pair where one's stream serves the other through a
	// residual that has work to do.
	for i := range qs {
		for j := range qs {
			a, b := &qs[i], &qs[j]
			if i == j || !properties.MatchInput(a.out, b.in) {
				continue
			}
			if pl, err := ResidualPipeline(a.out, b.in, nil); err != nil || len(pl.Ops) == 0 {
				continue
			}
			shared := CanonicalPipeline(a.out, nil).Run(items)
			got := perItem(shared, func() *Pipeline {
				pl, _ := ResidualPipeline(a.out, b.in, nil)
				return pl
			})
			t.Logf("ResidualPipeline <%s> → <%s> over %d items: %.2f allocations per item", tagOf(a.q), tagOf(b.q), len(shared), got)
			const budget = 2.6 // measured 2.12
			if got > budget {
				t.Errorf("ResidualPipeline allocates %.2f objects per item, budget %.2f", got, budget)
			}
			return
		}
	}
	t.Fatal("no query in the set can be derived from another")
}

// tagOf returns the tag of the element a query's return clause constructs.
func tagOf(q *wxquery.Query) string {
	if f := findFLWR(q.Root, "photons"); f != nil {
		if c, ok := f.Return.(*wxquery.ElemCtor); ok {
			return c.Tag
		}
	}
	return ""
}
