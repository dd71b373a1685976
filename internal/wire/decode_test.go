package wire

import (
	"encoding/binary"
	goruntime "runtime"
	"testing"

	"streamshare/internal/testutil"
	"streamshare/internal/xmlstream"
)

// photonPayloads encodes n photons in 64-item batches, the runtime's batch
// size, on one encoder; the first payload carries the dictionary.
func photonPayloads(n int) (items []*xmlstream.Element, payloads [][]byte) {
	items = photonElems(n)
	enc := NewBinaryEncoder()
	for lo := 0; lo < n; lo += 64 {
		payloads = append(payloads, enc.EncodeElems(nil, items[lo:min(lo+64, n)]))
	}
	return items, payloads
}

// BenchmarkDecodeElems decodes 1 024 photons in 64-item batches through
// one conn's decoder, the work a node's reader does per link batch.
func BenchmarkDecodeElems(b *testing.B) {
	const n = 1024
	_, payloads := photonPayloads(n)
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewBinaryDecoder()
		for _, p := range payloads {
			if _, err := dec.DecodeElems(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*n), "allocs/item")
}

// TestAllocBudgetDecode pins what decoding a 64-photon batch allocates per
// item: the batch's slab, its text and the item slice, not three objects
// per node.
func TestAllocBudgetDecode(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	_, payloads := photonPayloads(128)
	dec := NewBinaryDecoder()
	if _, err := dec.DecodeElems(payloads[0]); err != nil { // the dictionary
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := dec.DecodeElems(payloads[1]); err != nil {
			t.Fatal(err)
		}
	}) / 64
	t.Logf("DecodeElems: %.3f allocations per item", got)
	if got > 1 {
		t.Errorf("DecodeElems allocates %.2f objects per item, budget 1", got)
	}
}

// TestDecodedTreesOwnTheirBytes overwrites the payload after decoding it:
// the trees must alias none of it, since a link's frame outlives its conn's
// read buffer.
func TestDecodedTreesOwnTheirBytes(t *testing.T) {
	items, payloads := photonPayloads(128)
	dec := NewBinaryDecoder()
	var got []*xmlstream.Element
	for _, p := range payloads {
		batch, err := dec.DecodeElems(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
		for i := range p {
			p[i] = '#'
		}
	}
	requireSame(t, "after overwriting the payloads", got, items)
}

// TestDecodedBatchAppendIsolated appends to every node of a decoded batch
// in turn: the nodes share backing arrays, so each child slice must be
// capped at its length or the append would write into a neighbour's.
func TestDecodedBatchAppendIsolated(t *testing.T) {
	_, payloads := photonPayloads(64)
	batch, err := NewBinaryDecoder().DecodeElems(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*xmlstream.Element
	var walk func(*xmlstream.Element)
	walk = func(e *xmlstream.Element) {
		nodes = append(nodes, e)
		for _, c := range e.Children {
			walk(c)
		}
	}
	for _, e := range batch {
		walk(e)
	}
	snapshot := make([]*xmlstream.Element, len(batch))
	for i, e := range batch {
		snapshot[i] = e.Clone()
	}
	extra := xmlstream.T("extra", "x")
	for _, n := range nodes {
		if len(n.Children) == 0 {
			continue
		}
		_ = append(n.Children, extra)
		for i := range batch {
			if !batch[i].Equal(snapshot[i]) {
				t.Fatalf("appending to <%s>'s children changed item %d: %s", n.Name, i, xmlstream.Marshal(batch[i]))
			}
		}
	}
}

// TestCorruptPayloadAllocationBound is docs/WIRE.md §4.4's bound on the
// allocations a corrupt payload can cause: a short payload claiming a
// million children, or a text longer than itself, is refused before the
// batch's slab is sized from it.
func TestCorruptPayloadAllocationBound(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	header := func() []byte {
		var p []byte
		p = binary.AppendUvarint(p, 1) // one delta: "a"
		p = binary.AppendUvarint(p, 1)
		p = append(p, 'a')
		return binary.AppendUvarint(p, 1) // one item
	}
	manyKids := binary.AppendUvarint(header(), 0<<2|kindTree)
	manyKids = binary.AppendUvarint(manyKids, 1_000_000)
	// A count the bytes could hold whose last child is corrupt: only the
	// counting pass sees that before the tree's first 39 nodes are built.
	shortKids := binary.AppendUvarint(header(), 0<<2|kindTree)
	shortKids = binary.AppendUvarint(shortKids, 40)
	for i := 0; i < 39; i++ {
		shortKids = binary.AppendUvarint(shortKids, 0<<2|kindEmpty)
	}
	shortKids = binary.AppendUvarint(shortKids, 7<<2|kindEmpty)
	longText := binary.AppendUvarint(header(), 0<<2|kindText)
	longText = binary.AppendUvarint(longText, 1<<40)
	longText = append(longText, "short"...)

	for name, p := range map[string][]byte{"a million children": manyKids, "40 children, the last corrupt": shortKids, "a 1 TiB text": longText} {
		dec := NewBinaryDecoder()
		const runs = 100
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if _, err := dec.DecodeElems(p); err == nil {
				t.Fatalf("%s: decoded without error", name)
			}
		}
		goruntime.ReadMemStats(&m1)
		perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		// The error value and the dictionary's one name are all a refused
		// payload may cost beyond its own size: no tree is built before
		// the counting pass accepts the whole payload.
		if bound := float64(256 + len(p)); perRun > bound {
			t.Errorf("%s (%d B): %.0f B allocated per refusal, bound %.0f", name, len(p), perRun, bound)
		}
	}
}
