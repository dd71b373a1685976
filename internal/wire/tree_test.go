package wire

import (
	"strconv"
	"testing"

	"streamshare/internal/xmlstream"
)

// These tests pin the codec's contract: EncodeElems/DecodeElems round-trip
// element trees without ever materializing canonical XML, and SeedShared
// pre-interns the handshake-agreed vocabulary identically on both halves.

// fuzzName maps one fuzz byte to an element name: even bytes draw from a
// small schema-like pool (exercising dictionary reuse), odd bytes mint one
// of 128 distinct names (exercising delta emission).
func fuzzName(v byte) string {
	pool := []string{"photon", "en", "src", "coord", "ra", "dec", "cel", "t"}
	if v&1 == 0 {
		return pool[int(v/2)%len(pool)]
	}
	return "x" + strconv.Itoa(int(v))
}

// fuzzCursor walks the fuzz input, yielding zero once exhausted so tree
// generation always terminates.
type fuzzCursor struct {
	b []byte
	i int
}

func (c *fuzzCursor) next() byte {
	if c.i >= len(c.b) {
		return 0
	}
	v := c.b[c.i]
	c.i++
	return v
}

// fuzzTree derives one element tree from the cursor: interior fan-out and
// leaf text are data-driven, depth is bounded, and leaf text stays in the
// canonical alphabet (no markup), matching what the runtime's serializer
// ever produces.
func fuzzTree(c *fuzzCursor, depth int) *xmlstream.Element {
	name := fuzzName(c.next())
	k := int(c.next()) % 4
	if depth >= 3 || k == 0 {
		if tv := c.next(); tv%3 != 0 {
			return xmlstream.T(name, "v"+strconv.Itoa(int(tv)))
		}
		return xmlstream.E(name) // empty leaf: <name/>
	}
	kids := make([]*xmlstream.Element, k)
	for i := range kids {
		kids[i] = fuzzTree(c, depth+1)
	}
	return xmlstream.E(name, kids...)
}

// collectNames walks trees in document order, returning each distinct name
// once — the seed list a deployment would infer from a schema.
func collectNames(trees []*xmlstream.Element) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(e *xmlstream.Element)
	walk = func(e *xmlstream.Element) {
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e.Name)
		}
		for _, ch := range e.Children {
			walk(ch)
		}
	}
	for _, e := range trees {
		walk(e)
	}
	return out
}

// FuzzWireElems is the codec's acceptance fuzz target: for ANY generated
// forest — shared and novel names, empty leaves, text leaves, nested
// interiors, optionally with both halves seeded — EncodeElems followed by
// DecodeElems must reproduce every tree exactly (Equal, and so
// marshal-identical), across two batches on one dictionary and then, as
// after a reconnect mid-stream, a third on a fresh encoder/decoder pair
// that never saw the first two.
func FuzzWireElems(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Add([]byte("photon batches with enough bytes to fan out a few levels"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzCursor{b: data}
		seedBoth := c.next()&1 == 1
		nTrees := 1 + int(c.next())%5
		trees := make([]*xmlstream.Element, nTrees)
		for i := range trees {
			trees[i] = fuzzTree(c, 0)
		}
		var enc *BinaryEncoder
		var dec *BinaryDecoder
		for round := 0; round < 3; round++ {
			if round != 1 { // round 1 reuses every id round 0 assigned
				enc, dec = NewBinaryEncoder(), NewBinaryDecoder()
				if seedBoth {
					seed := collectNames(trees)
					enc.SeedShared(seed)
					dec.SeedShared(seed)
				}
			}
			got, err := dec.DecodeElems(enc.EncodeElems(nil, trees))
			if err != nil {
				t.Fatalf("round %d: decode of own encoding failed: %v", round, err)
			}
			requireSame(t, "round "+strconv.Itoa(round), got, trees)
		}
	})
}

// TestSeedSharedNoDeltas pins the point of seeding: a batch whose
// vocabulary both halves pre-interned carries no in-band dictionary
// deltas — strictly smaller than the unseeded encoding — while an
// unseeded decoder, missing the agreement, must reject the payload rather
// than misread it.
func TestSeedSharedNoDeltas(t *testing.T) {
	seed := []string{"photon", "src", "en"}
	trees := []*xmlstream.Element{
		xmlstream.E("photon", xmlstream.T("src", "vela"), xmlstream.T("en", "1.25")),
		xmlstream.E("photon", xmlstream.T("src", "crab"), xmlstream.T("en", "2.5")),
	}
	enc, dec := NewBinaryEncoder(), NewBinaryDecoder()
	enc.SeedShared(seed)
	dec.SeedShared(seed)
	seeded := enc.EncodeElems(nil, trees)
	unseeded := NewBinaryEncoder().EncodeElems(nil, trees)
	if len(seeded) >= len(unseeded) {
		t.Fatalf("seeded payload %dB, unseeded %dB: deltas still in-band", len(seeded), len(unseeded))
	}
	got, err := dec.DecodeElems(seeded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trees {
		if !trees[i].Equal(got[i]) {
			t.Fatalf("tree %d differs after seeded round-trip", i)
		}
	}
	// Seeding is a protocol agreement, not an optimization hint: a decoder
	// that never seeded must fail the payload's dictionary references.
	if _, err := NewBinaryDecoder().DecodeElems(seeded); err == nil {
		t.Fatal("unseeded decoder accepted a seeded payload")
	}
}

// TestSeedSharedFiltering: empty and duplicate names are skipped with
// mirrored logic on both halves, so a sloppy seed list still leaves the
// tables identical.
func TestSeedSharedFiltering(t *testing.T) {
	dirty := []string{"photon", "", "src", "photon", "en", "", "src"}
	clean := []string{"photon", "src", "en"}
	encDirty, decClean := NewBinaryEncoder(), NewBinaryDecoder()
	encDirty.SeedShared(dirty)
	decClean.SeedShared(clean)
	trees := []*xmlstream.Element{
		xmlstream.E("photon", xmlstream.T("src", "vela"), xmlstream.T("en", "1.25")),
	}
	payload := encDirty.EncodeElems(nil, trees)
	got, err := decClean.DecodeElems(payload)
	if err != nil {
		t.Fatalf("dirty-seeded encoder vs clean-seeded decoder: %v", err)
	}
	if !trees[0].Equal(got[0]) {
		t.Fatal("tree differs across asymmetric seed-list filtering")
	}
}
