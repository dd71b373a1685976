package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"streamshare/internal/photons"
	"streamshare/internal/xmlstream"
)

// photonElems generates a deterministic corpus of photon items — the shape
// real runtime traffic has.
func photonElems(n int) []*xmlstream.Element {
	return photons.NewGenerator(photons.DefaultConfig(), 42).Generate(n)
}

// requireSame fails unless got is, tree for tree, Equal to want and
// marshal-identical to it.
func requireSame(t *testing.T, what string, got, want []*xmlstream.Element) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := xmlstream.AppendMarshal(nil, got[i]), xmlstream.AppendMarshal(nil, want[i])
		if !want[i].Equal(got[i]) || !bytes.Equal(g, w) {
			t.Fatalf("%s tree %d: decoded %q, want %q", what, i, g, w)
		}
	}
}

// roundTrip encodes the batches in order on one encoder, decodes them in
// order on one decoder, and requires every tree back unchanged.
func roundTrip(t *testing.T, batches [][]*xmlstream.Element) {
	t.Helper()
	enc := NewBinaryEncoder()
	dec := NewBinaryDecoder()
	for bi, batch := range batches {
		got, err := dec.DecodeElems(enc.EncodeElems(nil, batch))
		if err != nil {
			t.Fatalf("batch %d: decode: %v", bi, err)
		}
		requireSame(t, fmt.Sprintf("batch %d", bi), got, batch)
	}
}

func TestBinaryRoundTripPhotons(t *testing.T) {
	els := photonElems(100)
	roundTrip(t, [][]*xmlstream.Element{els[:30], els[30:60], els[60:], {}})
}

// TestBinaryRoundTripOddInputs covers what photons never exercise: text the
// node grammar carries verbatim though XML would have to escape or reject
// it, and nesting past the depth bound, which takes the raw fallback and so
// depends on canonical XML round-tripping markup characters in text.
func TestBinaryRoundTripOddInputs(t *testing.T) {
	deep := xmlstream.T("leaf", "a<b & c>d")
	for i := 0; i < maxNodeDepth+10; i++ {
		deep = xmlstream.E("a", deep)
	}
	odd := []*xmlstream.Element{
		xmlstream.E("a"),
		xmlstream.T("a", "a<b"),
		xmlstream.T("a", "&amp;"),
		xmlstream.T("a", `q"'>`),
		xmlstream.T("a", "\x00\xff"),
		xmlstream.T("a", " padded "),
		xmlstream.E("a", xmlstream.E("a", xmlstream.E("a"))),
		deep,
	}
	roundTrip(t, [][]*xmlstream.Element{odd})
	if p := NewBinaryEncoder().EncodeElems(nil, []*xmlstream.Element{deep}); !bytes.Contains(p, []byte("<leaf>a&lt;b &amp; c&gt;d</leaf>")) {
		t.Fatal("an item nested past the depth bound did not ship as raw canonical XML")
	}
	// And interleaved with photons, which exercises the mixed
	// dictionary/raw item stream.
	roundTrip(t, [][]*xmlstream.Element{append(append([]*xmlstream.Element{}, odd...), photonElems(10)...)})
}

// TestBinaryDeltasShipOnce pins the dictionary protocol: names travel as
// deltas exactly once, so a second batch of the same shape is pure data.
func TestBinaryDeltasShipOnce(t *testing.T) {
	els := photonElems(20)
	enc := NewBinaryEncoder()
	first := enc.EncodeElems(nil, els[:10])
	second := enc.EncodeElems(nil, els[10:])
	d0, _ := binary.Uvarint(first)
	d1, _ := binary.Uvarint(second)
	if d0 == 0 {
		t.Fatal("first batch shipped no dictionary deltas")
	}
	if d1 != 0 {
		t.Fatalf("second batch re-shipped %d deltas", d1)
	}
	if len(second) >= len(first) {
		t.Fatalf("delta-free batch (%dB) not smaller than first (%dB)", len(second), len(first))
	}
	xml := 0
	for _, el := range els[10:] {
		xml += xmlstream.MarshalSize(el)
	}
	if len(second) >= xml {
		t.Fatalf("binary batch %dB not smaller than xml %dB", len(second), xml)
	}
}

// TestBinaryDecodeRejectsCorrupt drives the decoder with every truncation
// of a valid payload and with byte corruptions: no panic, and any accepted
// variant must still be a self-consistent batch (the transport tears the
// conn down on error and replays, so rejection is the safe outcome).
func TestBinaryDecodeRejectsCorrupt(t *testing.T) {
	els := photonElems(8)
	payload := NewBinaryEncoder().EncodeElems(nil, els)
	for cut := 0; cut < len(payload); cut++ {
		dec := NewBinaryDecoder()
		if _, err := dec.DecodeElems(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(payload))
		}
		// A failed decode must roll the dictionary back for replay.
		got, err := dec.DecodeElems(payload)
		if err != nil {
			t.Fatalf("replay after truncation at %d failed: %v", cut, err)
		}
		requireSame(t, fmt.Sprintf("replay after truncation at %d", cut), got, els)
	}
	for i := 0; i < len(payload); i++ {
		corrupt := append([]byte{}, payload...)
		corrupt[i] ^= 0xff
		// Must not panic and must stay within the decode-size bound; a
		// clean error (the usual outcome) lets the transport replay.
		NewBinaryDecoder().DecodeElems(corrupt) //nolint:errcheck // either outcome is fine
	}
}

// TestBinaryDecodeBounds pins the anti-amplification guards: oversized
// dictionaries, out-of-range ids, raw blobs below top level or holding
// something that is not XML, and payloads expanding past MaxDecodedBytes are
// all rejected.
func TestBinaryDecodeBounds(t *testing.T) {
	// A payload whose dictionary holds one long name and whose items
	// reference it many times would amplify far beyond the input size.
	name := bytes.Repeat([]byte("n"), 64<<10)
	var p []byte
	p = binary.AppendUvarint(p, 1) // one delta
	p = binary.AppendUvarint(p, uint64(len(name)))
	p = append(p, name...)
	const refs = 1 << 17 // ~16 GiB of <name/> if unchecked
	p = binary.AppendUvarint(p, refs)
	for i := 0; i < refs; i++ {
		p = binary.AppendUvarint(p, 0<<2|kindEmpty)
	}
	if _, err := NewBinaryDecoder().DecodeElems(p); err == nil {
		t.Fatal("amplification payload decoded without error")
	}

	// Name id past the dictionary.
	var q []byte
	q = binary.AppendUvarint(q, 0) // no deltas
	q = binary.AppendUvarint(q, 1) // one item
	q = binary.AppendUvarint(q, 7<<2|kindEmpty)
	if _, err := NewBinaryDecoder().DecodeElems(q); err == nil {
		t.Fatal("out-of-range name id decoded without error")
	}

	// Raw blob below item top level.
	var r []byte
	r = binary.AppendUvarint(r, 1)
	r = binary.AppendUvarint(r, 1)
	r = append(r, 'a')
	r = binary.AppendUvarint(r, 1)             // one item
	r = binary.AppendUvarint(r, 0<<2|kindTree) // <a> …
	r = binary.AppendUvarint(r, 1)             // one child
	r = binary.AppendUvarint(r, kindRaw)       // raw child: illegal
	r = binary.AppendUvarint(r, 0)
	if _, err := NewBinaryDecoder().DecodeElems(r); err == nil {
		t.Fatal("nested raw blob decoded without error")
	}

	// Raw blob that is not one XML element.
	for _, blob := range []string{"", "hi!", "<a>"} {
		var w []byte
		w = binary.AppendUvarint(w, 0)
		w = binary.AppendUvarint(w, 1)
		w = binary.AppendUvarint(w, kindRaw)
		w = binary.AppendUvarint(w, uint64(len(blob)))
		w = append(w, blob...)
		if _, err := NewBinaryDecoder().DecodeElems(w); err == nil {
			t.Fatalf("raw blob %q decoded without error", blob)
		}
	}
}

// TestBinaryDictFullFallsBackToRaw forces dictionary exhaustion and checks
// the encoder degrades to raw items while staying lossless.
func TestBinaryDictFullFallsBackToRaw(t *testing.T) {
	enc := NewBinaryEncoder()
	names := make([]string, 0, MaxDictNames)
	for i := 0; i < MaxDictNames; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	enc.SeedShared(names)
	if _, ok := enc.assign("overflow"); ok {
		t.Fatal("assign succeeded past MaxDictNames")
	}
	item := xmlstream.E("overflow", xmlstream.T("x", "a<b"))
	payload := enc.EncodeElems(nil, []*xmlstream.Element{item})
	if !strings.Contains(string(payload), "<overflow><x>a&lt;b</x></overflow>") {
		t.Fatalf("dict-full item did not ship raw: %q", payload)
	}
	// A raw item references no dictionary entry, so any decoder takes it.
	got, err := NewBinaryDecoder().DecodeElems(payload)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "dict-full round trip", got, []*xmlstream.Element{item})
}
