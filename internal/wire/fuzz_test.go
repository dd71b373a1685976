package wire

import (
	"testing"

	"streamshare/internal/xmlstream"
)

// FuzzWireRoundTrip feeds the codec items as they enter the system — XML
// text, through the parser: whatever tree a byte string parses to crosses
// the wire unchanged, twice on one dictionary (the second encounter reuses
// the ids the first assigned). FuzzWireElems covers generated trees; this
// covers the trees real documents produce (entities, trimmed text,
// attribute-free fallbacks of the standard decoder).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte(`<photon><coord><cel><ra>120.3</ra><dec>-12.5</dec></cel></coord><en>1.32</en></photon>`))
	f.Add([]byte(`<a/>`))
	f.Add([]byte(`<a></a>`))
	f.Add([]byte(`<a>text</a>`))
	f.Add([]byte(`<a><b/><c>t</c></a>`))
	f.Add([]byte(`<a b="c">mixed<d/></a>`))
	f.Add([]byte(`not xml`))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xff, 0x80})
	f.Add([]byte(`<en>a&lt;b &amp; c</en>`))
	f.Fuzz(func(t *testing.T, item []byte) {
		el, err := xmlstream.UnmarshalBytes(item)
		if err != nil {
			return
		}
		enc := NewBinaryEncoder()
		dec := NewBinaryDecoder()
		for bi, batch := range [][]*xmlstream.Element{{el}, {el, el}} {
			got, err := dec.DecodeElems(enc.EncodeElems(nil, batch))
			if err != nil {
				t.Fatalf("batch %d: decode of own encoding failed: %v", bi, err)
			}
			requireSame(t, "batch", got, batch)
		}
	})
}

// FuzzWireDecode hammers the decoder with arbitrary payloads: it must never
// panic, never allocate past the decode bound, leave the dictionary as it
// found it on error, and hand back only trees that survive a second trip.
func FuzzWireDecode(f *testing.F) {
	f.Add(NewBinaryEncoder().EncodeElems(nil, []*xmlstream.Element{xmlstream.E("a", xmlstream.T("b", "t"))}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x01, 'a', 0x01, 0x00})
	f.Add([]byte{0x00, 0x01, 0x03, 0x04, '<', 'a', '/', '>'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		dec := NewBinaryDecoder()
		items, err := dec.DecodeElems(payload)
		if err != nil {
			// The rollback invariant: a failed decode must leave the
			// dictionary exactly as it was (here: empty), so a transport
			// replay of the journaled payload starts clean.
			if len(dec.names) != 0 {
				t.Fatalf("failed decode left %d dictionary entries", len(dec.names))
			}
			return
		}
		for _, it := range items {
			if it == nil {
				t.Fatal("decode yielded a nil tree")
			}
		}
		// Whatever decoded is a batch like any other: it crosses a fresh
		// connection unchanged. (Canonical size is not bounded by the
		// payload's — text may need escaping — so no size assertion.)
		got, err := NewBinaryDecoder().DecodeElems(NewBinaryEncoder().EncodeElems(nil, items))
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		requireSame(t, "second trip", got, items)
	})
}
