package exec

import (
	"testing"

	"streamshare/internal/decimal"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// TestWindowPoolReuse drives a window aggregation long enough to close many
// windows and checks (a) results are unaffected by accumulator recycling and
// (b) the pool registers activity.
func TestWindowPoolReuse(t *testing.T) {
	h0, m0 := PoolStats()
	win := wxquery.Window{Kind: wxquery.WindowDiff, Ref: xmlstream.Path{"t"},
		Size: decimal.New(20, 0), Step: decimal.New(10, 0)}
	mk := func() *WindowAgg {
		return NewWindowAgg(win, []AggSpec{{Op: wxquery.AggSum, Elem: xmlstream.Path{"v"}}}, nil)
	}
	run := func(w *WindowAgg) []string {
		var out []string
		for i := 0; i < 200; i++ {
			it := xmlstream.E("p",
				xmlstream.T("t", decimal.New(int64(i*3), 0).String()),
				xmlstream.T("v", "1.5"))
			for _, o := range process1(w, it) {
				out = append(out, xmlstream.Marshal(o))
			}
		}
		flush1(w)
		return out
	}
	a := run(mk())
	b := run(mk()) // second run reuses pooled accumulators
	if len(a) == 0 {
		t.Fatal("no windows emitted")
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs across pooled runs:\n%s\n%s", i, a[i], b[i])
		}
	}
	h1, m1 := PoolStats()
	if h1 == h0 && m1 == m0 {
		t.Error("window pool saw no activity")
	}
}

// TestPipelineScratchContract exercises the documented buffer-reuse
// contract: the slice returned by Process is invalidated by the next call,
// but the elements stay valid.
func TestPipelineScratchContract(t *testing.T) {
	p := NewPipeline(Duplicate{})
	first := p.Process(xmlstream.T("a", "1"))
	if len(first) != 1 || first[0].Name != "a" {
		t.Fatalf("unexpected output %v", first)
	}
	kept := first[0] // element ownership transfers to the caller
	second := p.Process(xmlstream.T("b", "2"))
	if len(second) != 1 || second[0].Name != "b" {
		t.Fatalf("unexpected output %v", second)
	}
	if kept.Name != "a" || kept.Text != "1" {
		t.Error("retained element was clobbered; only the slice may be reused")
	}
}
