package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"streamshare/internal/xmlstream"
)

// sampleFrames covers every frame type with representative field loads.
func sampleFrames() []*Frame {
	return []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, Node: "n0", Resume: 17},
		{Type: FrameWelcome, Version: ProtocolVersion, Node: "n1", Resume: 1},
		{Type: FrameBatch, Seq: 42, Stream: "photons", Hop: 2, Epoch: 3, SeqLo: 99, EOS: true,
			Span:  []byte{1, 2, 3},
			Elems: []*xmlstream.Element{xmlstream.E("a"), xmlstream.T("b", "x<y"), xmlstream.E("c", xmlstream.T("d", "1.5"))}},
		{Type: FrameBatch, Seq: 1, Stream: "s", Elems: nil},
		{Type: FrameAck, Seq: 7, Stream: "photons", Consumer: "q1/photons", Ack: 1234},
		{Type: FrameLinkAck, Ack: 55},
		{Type: FrameControl, Seq: 9, Data: []byte("RUN 100 42")},
		{Type: FrameBatchBin, Seq: 43, Stream: "photons", Hop: 1, Epoch: 2, SeqLo: 100, EOS: false,
			Span: []byte{4, 5}, Data: []byte{0x01, 0x01, 'a', 0x01, 0x00}},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		payload := EncodeFrame(f)
		got, err := DecodeFrame(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Type, err)
		}
		if !sameFrame(f, got) {
			t.Fatalf("%s: round trip\n in: %+v\nout: %+v", f.Type, f, got)
		}
		// Re-encoding the decoded frame must be byte-identical: the codec
		// is canonical, which the replay journal relies on.
		if again := EncodeFrame(got); !bytes.Equal(payload, again) {
			t.Fatalf("%s: re-encode differs", f.Type)
		}
	}
}

// sameFrame reports whether two frames carry the same content: the items
// compared as trees (an element that has been sized remembers it, which
// DeepEqual would tell from one that has not), empty slices equal to nil.
func sameFrame(a, b *Frame) bool {
	if len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		if !a.Elems[i].Equal(b.Elems[i]) {
			return false
		}
	}
	return reflect.DeepEqual(normalize(a), normalize(b))
}

// normalize maps empty slices to nil, and drops the items sameFrame has
// compared, so DeepEqual compares the rest's logical content.
func normalize(f *Frame) *Frame {
	c := *f
	c.Elems = nil
	if len(c.Span) == 0 {
		c.Span = nil
	}
	if len(c.Data) == 0 {
		c.Data = nil
	}
	return &c
}

// goldenBatch is a fixed Batch frame and the bytes AppendFrame produced for
// it at the last commit whose Frame carried the items as bytes (cfbebd2):
// the layout every journal on disk holds.
func goldenBatch() (*Frame, []byte) {
	E, T := xmlstream.E, xmlstream.T
	f := &Frame{Type: FrameBatch, Seq: 7, Stream: "q1/photons", Hop: 2, Epoch: 3, SeqLo: 41, EOS: true,
		Span: []byte{1, 2, 3},
		Elems: []*xmlstream.Element{
			E("photon", E("coord", E("cel", T("ra", "120.3"), T("dec", "-12.5"))), T("en", "1.32"), E("det")),
			E("hot", T("en", "2.5")),
		}}
	b, err := hex.DecodeString("03070a71312f70686f746f6e730203290103010203025c3c70686f746f6e3e3c636f6f72643e3c63656c3e" +
		"3c72613e3132302e333c2f72613e3c6465633e2d31322e353c2f6465633e3c2f63656c3e3c2f636f6f72643e3c656e3e312e33323c2f656e3e" +
		"3c6465742f3e3c2f70686f746f6e3e173c686f743e3c656e3e322e353c2f656e3e3c2f686f743e")
	if err != nil {
		panic(err)
	}
	return f, b
}

// TestFrameBatchGolden pins the Batch layout to the parent commit's bytes,
// both ways: a journal written before the frame held trees stays readable,
// and one written now is what that build would have written.
func TestFrameBatchGolden(t *testing.T) {
	f, golden := goldenBatch()
	if got := AppendFrame(nil, f); !bytes.Equal(got, golden) {
		t.Fatalf("AppendFrame:\n %x\nparent wrote\n %x", got, golden)
	}
	got, err := DecodeFrame(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFrame(got, f) {
		t.Fatalf("parent's bytes decode to %+v, want %+v", got, f)
	}
}

// v3Heartbeat is a heartbeat frame as protocol version 3 encoded it: type 6
// (reserved since), seq 0, live peers SP0 and SP1 and the links SP0-SP1 and
// SP1-SP2 as endpoint pairs.
func v3Heartbeat() []byte {
	b := []byte{6, 0, 2}
	for _, s := range []string{"SP0", "SP1"} {
		b = appendString(b, s)
	}
	b = append(b, 4)
	for _, s := range []string{"SP0", "SP1", "SP1", "SP2"} {
		b = appendString(b, s)
	}
	return b
}

// malformedItemBatch is a well-formed Batch frame whose one item is not XML.
func malformedItemBatch() []byte {
	b := appendBatchHead([]byte{byte(FrameBatch), 1}, &Frame{Stream: "s"})
	b = append(b, 1) // one item
	return appendString(b, "<photon><en>1.5</photon>")
}

func TestFrameDecodeRejectsCorrupt(t *testing.T) {
	valid := EncodeFrame(sampleFrames()[2])
	cases := map[string][]byte{
		"malformed item":  malformedItemBatch(),
		"empty":           {},
		"unknown type":    {0xEE, 0},
		"zero type":       {0, 0},
		"truncated":       valid[:len(valid)-3],
		"trailing":        append(append([]byte{}, valid...), 0xFF),
		"bad eos":         {byte(FrameBatch), 1, 1, 's', 0, 0, 0, 7},
		"length overrun":  {byte(FrameControl), 0, 200, 'x'},
		"reserved type 6": v3Heartbeat(),
	}
	for name, in := range cases {
		if _, err := DecodeFrame(in); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		} else if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: error %v does not wrap ErrFrame", name, err)
		}
	}
}

func TestFramePayloadIO(t *testing.T) {
	var buf bytes.Buffer
	p1 := EncodeFrame(&Frame{Type: FrameLinkAck, Ack: 9})
	p2 := EncodeFrame(&Frame{Type: FrameControl, Data: []byte("x")})
	if err := WriteFramePayload(&buf, p1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFramePayload(&buf, p2); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]byte{p1, p2} {
		got, err := ReadFramePayload(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	// An oversized length prefix errors before allocating.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFramePayload(&buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized prefix: %v", err)
	}
}
