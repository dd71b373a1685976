package xmlstream

import (
	"bytes"
	"io"
	"strconv"
	"testing"

	"streamshare/internal/testutil"
)

// photonDoc returns n distinct photons and the stream document holding them.
func photonDoc(t testing.TB, n int) ([]*Element, []byte) {
	items, doc := make([]*Element, n), []byte("<photons>")
	for i := range items {
		s := strconv.Itoa(i)
		items[i] = photon("130."+s, "-46."+s, s, "12", "77", "1."+s, "100"+s)
		doc = AppendMarshal(doc, items[i])
	}
	return items, append(doc, "</photons>"...)
}

// cyclingReader delivers its source in reads of 1, 2, …, 7, 1, … bytes, so
// items straddle many window refills.
type cyclingReader struct {
	r io.Reader
	n int
}

func (c *cyclingReader) Read(p []byte) (int, error) {
	c.n = c.n%7 + 1
	return c.r.Read(p[:min(len(p), c.n)])
}

// TestAllocBudgetDecode pins what the document decoder's fast lane
// allocates per item of a 64-photon document: one slab per read window,
// not three objects per node.
func TestAllocBudgetDecode(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	_, doc := photonDoc(t, 64)
	got := testing.AllocsPerRun(50, func() {
		items, err := decodeAll(NewDecoder(bytes.NewReader(doc)))
		if err != nil || len(items) != 64 {
			t.Fatalf("decoded %d items: %v", len(items), err)
		}
	}) / 64
	t.Logf("Decoder: %.3f allocations per item", got)
	if got > 1 {
		t.Errorf("Decoder allocates %.2f objects per item, budget 1", got)
	}
}

// TestDecodedTreesOwnTheirBytes holds both fast-lane entries to the rule
// that a tree aliases no buffer: the Decoder's window is compacted and
// refilled under the items it already returned, and UnmarshalBytes' input
// is overwritten after the call.
func TestDecodedTreesOwnTheirBytes(t *testing.T) {
	want, doc := photonDoc(t, 64)
	d := NewDecoder(&cyclingReader{r: bytes.NewReader(doc)})
	got, err := decodeAll(d)
	if err != nil || d.FellBack() {
		t.Fatalf("decode: %v, fell back %v", err, d.FellBack())
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("item %d after later refills: %s, want %s", i, Marshal(got[i]), Marshal(want[i]))
		}
	}

	b := AppendMarshal(nil, want[0])
	e, err := UnmarshalBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = '#'
	}
	if !e.Equal(want[0]) {
		t.Fatalf("UnmarshalBytes after overwriting its input: %s", Marshal(e))
	}
}

// TestDecodedWindowAppendIsolated appends to every interior node of a
// decoded document in turn: one window's nodes share backing arrays, so
// each child slice must be capped at its length or the append would write
// into a neighbour's.
func TestDecodedWindowAppendIsolated(t *testing.T) {
	_, doc := photonDoc(t, 16)
	items, err := decodeAll(NewDecoder(bytes.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]*Element, len(items))
	for i, e := range items {
		snapshot[i] = e.Clone()
	}
	var nodes []*Element
	var walk func(*Element)
	walk = func(e *Element) {
		nodes = append(nodes, e)
		for _, c := range e.Children {
			walk(c)
		}
	}
	for _, e := range items {
		walk(e)
	}
	extra := T("extra", "x")
	for _, n := range nodes {
		if len(n.Children) == 0 {
			continue
		}
		_ = append(n.Children, extra)
		for i := range items {
			if !items[i].Equal(snapshot[i]) {
				t.Fatalf("appending to <%s>'s children changed item %d: %s", n.Name, i, Marshal(items[i]))
			}
		}
	}
}

// TestSlabPastItsBounds asks a slab for more than it was sized for: the
// extra nodes, child slices and texts are allocated on their own, and the
// texts cut before a new chunk stay as they were.
func TestSlabPastItsBounds(t *testing.T) {
	s := NewSlab(1, 1, 2)
	src := []byte("abcdefgh")
	texts := []string{s.Text(src[:2]), s.Text(src[2:5]), s.Text(src[5:])}
	a := s.Node("a", texts[0], nil)
	b := s.Node("b", texts[1], nil)
	k1, k2 := s.Children(1), s.Children(2)
	if cap(k1) != 1 || cap(k2) != 2 || len(k1)+len(k2) != 0 {
		t.Fatalf("child slices len %d/%d cap %d/%d, want empty with cap 1 and 2", len(k1), len(k2), cap(k1), cap(k2))
	}
	for i := range src {
		src[i] = '#'
	}
	if a.Text != "ab" || b.Text != "cde" || texts[2] != "fgh" || a == b {
		t.Fatalf("texts %q %q %q", a.Text, b.Text, texts[2])
	}
}
