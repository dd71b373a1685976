package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

func refItem(dt string) *xmlstream.Element {
	return xmlstream.E("i", xmlstream.T("t", dt))
}

func refsOf(items []*xmlstream.Element) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.First(xmlstream.ParsePath("t")).Value()
	}
	return out
}

func TestSortBufferReorders(t *testing.T) {
	sb := NewSortBuffer(xmlstream.ParsePath("t"), 3)
	var out []*xmlstream.Element
	for _, dt := range []string{"3", "1", "2", "5", "4", "7", "6", "8"} {
		out = append(out, process1(sb, refItem(dt))...)
	}
	out = append(out, flush1(sb)...)
	got := refsOf(out)
	want := []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	if len(got) != len(want) {
		t.Fatalf("out = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out = %v", got)
		}
	}
	if sb.Dropped != 0 {
		t.Errorf("dropped = %d", sb.Dropped)
	}
}

func TestSortBufferDropsBeyondReach(t *testing.T) {
	sb := NewSortBuffer(xmlstream.ParsePath("t"), 1)
	var out []*xmlstream.Element
	// With buffer 1, the displacement of "1" behind 3 and 4 exceeds reach.
	for _, dt := range []string{"3", "4", "1", "5"} {
		out = append(out, process1(sb, refItem(dt))...)
	}
	out = append(out, flush1(sb)...)
	got := refsOf(out)
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("output not ordered: %v", got)
		}
	}
	if sb.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", sb.Dropped)
	}
	// Items without the reference element are dropped too.
	if res := process1(sb, xmlstream.E("i")); res != nil {
		t.Error("reference-less item should be dropped")
	}
	if sb.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", sb.Dropped)
	}
}

func TestSortBufferStableForEqualRefs(t *testing.T) {
	sb := NewSortBuffer(xmlstream.ParsePath("t"), 2)
	a := xmlstream.E("i", xmlstream.T("t", "1"), xmlstream.T("tag", "a"))
	b := xmlstream.E("i", xmlstream.T("t", "1"), xmlstream.T("tag", "b"))
	var out []*xmlstream.Element
	out = append(out, process1(sb, a)...)
	out = append(out, process1(sb, b)...)
	out = append(out, flush1(sb)...)
	if len(out) != 2 || out[0].First(xmlstream.ParsePath("tag")).Value() != "a" {
		t.Error("equal references should keep arrival order")
	}
}

// TestSortBufferRepairsWindows: a fuzzily ordered stream fed through
// SortBuffer + time-window aggregation equals the sorted stream fed
// directly (the §2 relaxation).
func TestSortBufferRepairsWindows(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 300
	sorted := make([]*xmlstream.Element, n)
	for i := range sorted {
		sorted[i] = xmlstream.E("i",
			xmlstream.T("t", itoa(i)),
			xmlstream.T("x", itoa(r.Intn(50))),
		)
	}
	// Perturb within distance 3.
	fuzzy := append([]*xmlstream.Element(nil), sorted...)
	for i := 0; i+3 < len(fuzzy); i += 4 {
		fuzzy[i], fuzzy[i+3] = fuzzy[i+3], fuzzy[i]
	}
	w := wxquery.Window{Kind: wxquery.WindowDiff, Ref: xmlstream.ParsePath("t"), Size: dec("20"), Step: dec("10")}
	specs := []AggSpec{{Op: wxquery.AggSum, Elem: xmlstream.ParsePath("x")}}
	direct := NewPipeline(NewWindowAgg(w, specs, nil)).Run(sorted)
	repaired := NewPipeline(NewSortBuffer(xmlstream.ParsePath("t"), 8), NewWindowAgg(w, specs, nil)).Run(fuzzy)
	if len(direct) != len(repaired) {
		t.Fatalf("windows: direct %d, repaired %d", len(direct), len(repaired))
	}
	for i := range direct {
		if !direct[i].Equal(repaired[i]) {
			t.Fatalf("window %d differs:\n%s\n%s", i,
				xmlstream.Marshal(direct[i]), xmlstream.Marshal(repaired[i]))
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// Property: output of SortBuffer is always sorted, and with a sufficiently
// large buffer nothing is dropped.
func TestQuickSortBufferOrdered(t *testing.T) {
	f := func(vals []uint16, size uint8) bool {
		sb := NewSortBuffer(xmlstream.ParsePath("t"), int(size%16)+1)
		var out []*xmlstream.Element
		for _, v := range vals {
			out = append(out, process1(sb, refItem(itoa(int(v))))...)
		}
		out = append(out, flush1(sb)...)
		prev := -1
		for _, it := range out {
			d, _ := it.Decimal(xmlstream.ParsePath("t"))
			v := int(d.Float())
			if v < prev {
				return false
			}
			prev = v
		}
		return len(out)+sb.Dropped == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
