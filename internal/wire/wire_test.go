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

// photonItems renders a deterministic corpus of canonical photon items —
// the shape real runtime traffic has.
func photonItems(t testing.TB, n int) ([][]byte, []*xmlstream.Element) {
	t.Helper()
	gen := photons.NewGenerator(photons.DefaultConfig(), 42)
	els := gen.Generate(n)
	items := make([][]byte, len(els))
	for i, el := range els {
		items[i] = xmlstream.AppendMarshal(nil, el)
	}
	return items, els
}

// roundTrip encodes the batches in order on one encoder, decodes them in
// order on one decoder, and requires byte identity per item.
func roundTrip(t *testing.T, batches [][][]byte) {
	t.Helper()
	enc := NewBinaryEncoder()
	dec := NewBinaryDecoder()
	for bi, batch := range batches {
		payload := enc.EncodeBatch(nil, batch)
		got, err := dec.DecodeBatch(payload)
		if err != nil {
			t.Fatalf("batch %d: decode: %v", bi, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("batch %d: %d items, want %d", bi, len(got), len(batch))
		}
		for i := range batch {
			if !bytes.Equal(got[i], batch[i]) {
				t.Fatalf("batch %d item %d: decoded %q, want %q", bi, i, got[i], batch[i])
			}
		}
	}
}

func TestBinaryRoundTripPhotons(t *testing.T) {
	items, _ := photonItems(t, 100)
	roundTrip(t, [][][]byte{items[:30], items[30:60], items[60:], {}})
}

// TestBinaryRoundTripOddInputs drives the raw fallback: inputs outside the
// strict canonical grammar must still round-trip byte-identically.
func TestBinaryRoundTripOddInputs(t *testing.T) {
	odd := [][]byte{
		[]byte(``),
		[]byte(`plain text`),
		[]byte(`<a></a>`),
		[]byte(`<a b="c"/>`),
		[]byte(`<a b="/x"/>`),
		[]byte(`<a>t1<b/></a>`),
		[]byte(`<a><b/>tail</a>`),
		[]byte(`<a> <b/></a>`),
		[]byte(`<a/><b/>`),
		[]byte(` <a/>`),
		[]byte(`<a>text</b>`),
		[]byte(`<a>&amp;</a>`),
		[]byte(`<`),
		[]byte(`<>`),
		[]byte(`<a`),
		[]byte(`<a/`),
		[]byte(`<a><a><a></a></a></a>`),
		[]byte(strings.Repeat("<a>", 5000) + strings.Repeat("</a>", 5000)),
		[]byte("<a>\x00\xff</a>"),
	}
	roundTrip(t, [][][]byte{odd})
	// And interleaved with canonical items, which exercises the mixed
	// dictionary/raw item stream.
	items, _ := photonItems(t, 10)
	roundTrip(t, [][][]byte{append(append([][]byte{}, odd[:5]...), items...)})
}

// TestBinaryDeltasShipOnce pins the dictionary protocol: names travel as
// deltas exactly once, so a second batch of the same shape is pure data.
func TestBinaryDeltasShipOnce(t *testing.T) {
	items, _ := photonItems(t, 20)
	enc := NewBinaryEncoder()
	first := enc.EncodeBatch(nil, items[:10])
	second := enc.EncodeBatch(nil, items[10:])
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
	for _, it := range items[10:] {
		xml += len(it)
	}
	if len(second) >= xml {
		t.Fatalf("binary batch %dB not smaller than xml %dB", len(second), xml)
	}
}

// TestBinarySeed pins the warm-start contract: seeded names are assigned
// ids up front but still ship as deltas in the first payload, so a fresh
// decoder needs no out-of-band schema.
func TestBinarySeed(t *testing.T) {
	items, els := photonItems(t, 5)
	sch := xmlstream.InferSchema(els)
	var names []string
	for _, p := range sch.LeafPaths() {
		names = append(names, p...)
	}
	enc := NewBinaryEncoder()
	enc.Seed(names)
	payload := enc.EncodeBatch(nil, items)
	dec := NewBinaryDecoder()
	got, err := dec.DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if !bytes.Equal(got[i], items[i]) {
			t.Fatalf("item %d: decoded %q, want %q", i, got[i], items[i])
		}
	}
}

// TestBinaryElemPathsAgree pins the two encoder entry points to one wire
// image: encoding parsed elements directly must produce the same payload as
// encoding their canonical XML, and both element decode paths must agree.
func TestBinaryElemPathsAgree(t *testing.T) {
	items, els := photonItems(t, 50)
	encA, encB := NewBinaryEncoder(), NewBinaryEncoder()
	fromBytes := encA.EncodeBatch(nil, items)
	fromElems := encB.EncodeElems(nil, els)
	if !bytes.Equal(fromBytes, fromElems) {
		t.Fatal("EncodeElems and EncodeBatch disagree on canonical input")
	}
	dec := NewBinaryDecoder()
	got, err := dec.DecodeElems(fromElems)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(els) {
		t.Fatalf("%d elements, want %d", len(got), len(els))
	}
	for i := range els {
		if !got[i].Equal(els[i]) {
			t.Fatalf("element %d differs after element-path round trip", i)
		}
	}
}

// TestBinaryDecodeRejectsCorrupt drives the decoder with every truncation
// of a valid payload and with byte corruptions: no panic, and any accepted
// variant must still be a self-consistent batch (the transport tears the
// conn down on error and replays, so rejection is the safe outcome).
func TestBinaryDecodeRejectsCorrupt(t *testing.T) {
	items, _ := photonItems(t, 8)
	payload := NewBinaryEncoder().EncodeBatch(nil, items)
	if len(payload) > 16<<20 {
		t.Fatal("test payload exceeds MaxFrameSize")
	}
	for cut := 0; cut < len(payload); cut++ {
		dec := NewBinaryDecoder()
		if _, err := dec.DecodeBatch(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(payload))
		}
		// A failed decode must roll the dictionary back for replay.
		if got, err := dec.DecodeBatch(payload); err != nil {
			t.Fatalf("replay after truncation at %d failed: %v", cut, err)
		} else if len(got) != len(items) {
			t.Fatalf("replay after truncation at %d: %d items, want %d", cut, len(got), len(items))
		}
	}
	for i := 0; i < len(payload); i++ {
		corrupt := append([]byte{}, payload...)
		corrupt[i] ^= 0xff
		// Must not panic and must stay within the decode-size bound; a
		// clean error (the usual outcome) lets the transport replay.
		NewBinaryDecoder().DecodeBatch(corrupt)
	}
}

// TestBinaryDecodeBounds pins the anti-amplification guards: oversized
// dictionaries, out-of-range ids, raw blobs below top level, and payloads
// expanding past MaxDecodedBytes are all rejected.
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
	if _, err := NewBinaryDecoder().DecodeBatch(p); err == nil {
		t.Fatal("amplification payload decoded without error")
	}

	// Name id past the dictionary.
	var q []byte
	q = binary.AppendUvarint(q, 0) // no deltas
	q = binary.AppendUvarint(q, 1) // one item
	q = binary.AppendUvarint(q, 7<<2|kindEmpty)
	if _, err := NewBinaryDecoder().DecodeBatch(q); err == nil {
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
	if _, err := NewBinaryDecoder().DecodeBatch(r); err == nil {
		t.Fatal("nested raw blob decoded without error")
	}
}

// TestXMLCodecRoundTrip covers the baseline codec's framing.
func TestXMLCodecRoundTrip(t *testing.T) {
	items, _ := photonItems(t, 10)
	items = append(items, []byte{}, []byte("not xml at all"))
	enc := Lookup(CodecXML).NewEncoder()
	dec := Lookup(CodecXML).NewDecoder()
	payload := enc.EncodeBatch(nil, items)
	got, err := dec.DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("%d items, want %d", len(got), len(items))
	}
	for i := range items {
		if !bytes.Equal(got[i], items[i]) {
			t.Fatalf("item %d differs", i)
		}
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := dec.DecodeBatch(payload[:cut]); err == nil && cut > 0 {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		ours, theirs []string
		want         string
	}{
		{[]string{"binary", "xml"}, []string{"binary", "xml"}, "binary"},
		{[]string{"xml"}, []string{"binary", "xml"}, "xml"},
		{[]string{"binary", "xml"}, []string{"xml"}, "xml"},
		{[]string{"binary", "xml"}, nil, "xml"},
		{nil, []string{"binary"}, "xml"},
		{[]string{"zstd"}, []string{"binary"}, "xml"},
		{[]string{"zstd", "binary"}, []string{"binary", "zstd"}, "zstd"},
		// A build that only knows the retired link-scoped "binary" identifier
		// shares nothing but xml with this one, in either role.
		{DefaultCodecs(), []string{"binary", "xml"}, "xml"},
		{[]string{"binary", "xml"}, DefaultCodecs(), "xml"},
	}
	for i, c := range cases {
		if got := Negotiate(c.ours, c.theirs); got != c.want {
			t.Errorf("case %d: Negotiate(%v, %v) = %q, want %q", i, c.ours, c.theirs, got, c.want)
		}
	}
	if got := ParseList(" binary , xml ,"); len(got) != 2 || got[0] != "binary" || got[1] != "xml" {
		t.Errorf("ParseList = %v", got)
	}
	if got := FormatList([]string{"binary", "xml"}); got != "binary,xml" {
		t.Errorf("FormatList = %q", got)
	}
	if err := Supported([]string{CodecBinary, CodecXML}); err != nil {
		t.Errorf("Supported(registered) = %v", err)
	}
	if err := Supported([]string{"gob"}); err == nil {
		t.Error("Supported(unregistered) = nil")
	}
}

// TestRegistry pins the registry contents and the duplicate guard.
func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{CodecBinary, CodecXML}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("registered codecs %v, want %v", names, want)
	}
	for _, n := range want {
		c := Lookup(n)
		if c == nil || c.Name() != n {
			t.Fatalf("Lookup(%q) = %v", n, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(xmlCodec{})
}

// TestBinaryDictFullFallsBackToRaw forces dictionary exhaustion and checks
// the encoder degrades to raw items while staying lossless.
func TestBinaryDictFullFallsBackToRaw(t *testing.T) {
	enc := NewBinaryEncoder()
	// Fill the dictionary to the cap through Seed.
	names := make([]string, 0, MaxDictNames)
	for i := 0; i < MaxDictNames; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	enc.Seed(names)
	if _, ok := enc.assign([]byte("overflow")); ok {
		t.Fatal("assign succeeded past MaxDictNames")
	}
	item := []byte("<overflow>x</overflow>")
	payload := enc.EncodeBatch(nil, [][]byte{item})
	dec := NewBinaryDecoder()
	got, err := dec.DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], item) {
		t.Fatalf("dict-full round trip: %q, want %q", got[0], item)
	}
}
