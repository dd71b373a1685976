package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"streamshare/internal/obs"
	"streamshare/internal/xmlstream"
)

// These tests pin the handshake and the codec lifecycle it opens: a batch
// crosses a conn as one BatchBin payload and reaches the handler as trees,
// the handshake negotiates nothing, a peer speaking another protocol version
// is refused with the reason recorded on both sides, and reconnect replays
// decode correctly through each new conn's fresh, empty dictionaries.

// batchItems builds distinct items for batch payload checks.
func batchItems(tag string, n int) []*xmlstream.Element {
	items := make([]*xmlstream.Element, n)
	for i := range items {
		items[i] = xmlstream.E("photon", xmlstream.T("src", tag), xmlstream.T("en", fmt.Sprintf("%d.25", i)))
	}
	return items
}

// frameXML renders a dispatched batch's items as canonical XML.
func frameXML(f *Frame) []string {
	out := make([]string, len(f.Elems))
	for i, e := range f.Elems {
		out[i] = xmlstream.Marshal(e)
	}
	return out
}

// requireItems fails unless the dispatched batch holds exactly want.
func requireItems(t *testing.T, f *Frame, want []*xmlstream.Element) {
	t.Helper()
	if len(f.Elems) != len(want) {
		t.Fatalf("batch has %d items, want %d", len(f.Elems), len(want))
	}
	for i := range want {
		if !want[i].Equal(f.Elems[i]) {
			t.Fatalf("item %d: %s, want %s", i, xmlstream.Marshal(f.Elems[i]), xmlstream.Marshal(want[i]))
		}
	}
}

// refusals returns the details of the recorded handshake.refuse events.
func refusals(fr *obs.FlightRecorder) []string {
	var out []string
	for _, e := range fr.Events() {
		if e.Kind == "handshake.refuse" {
			out = append(out, e.Detail)
		}
	}
	return out
}

// wantBatches waits until the collector holds n Batch frames and returns
// them; non-batch frames are filtered out.
func wantBatches(t *testing.T, c *collector, n int) []*Frame {
	t.Helper()
	var batches []*Frame
	waitFor(t, 5*time.Second, func() bool {
		batches = batches[:0]
		for _, f := range c.snapshot() {
			if f.Type == FrameBatch {
				batches = append(batches, f)
			}
		}
		return len(batches) >= n
	}, fmt.Sprintf("%d batches dispatched", n))
	if len(batches) != n {
		t.Fatalf("dispatched %d batches, want %d", len(batches), n)
	}
	return batches
}

// oldHandshake encodes a Hello or Welcome as builds before protocol version
// 5 did, with its capability map filled in.
func oldHandshake(f *Frame, caps map[string]string) []byte {
	b := EncodeFrame(f)
	b = b[:len(b)-1] // this build's empty capability map
	keys := make([]string, 0, len(caps))
	for k := range caps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(appendString(b, k), caps[k])
	}
	return b
}

// TestBatchCrossesBinary: batches cross as BatchBin on the wire, and the
// handler sees plain Batch frames holding trees Equal to the sender's.
func TestBatchCrossesBinary(t *testing.T) {
	ma, mb, _, cb := meshPair(t, NewMem())
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	items := batchItems("neg", 20)
	for i := 0; i < 3; i++ {
		if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", Elems: items}); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range wantBatches(t, cb, 3) {
		requireItems(t, f, items)
		if len(f.Data) != 0 {
			t.Fatalf("dispatched batch still carries a %d-byte wire payload", len(f.Data))
		}
	}
	sa, sb := ma.Link("b").Stats(), mb.Link("a").Stats()
	if sa.EncodedItems != 60 || sb.DecodedItems != 60 {
		t.Fatalf("codec counters: encoded %d, decoded %d, want 60/60", sa.EncodedItems, sb.DecodedItems)
	}
	if sa.EncodedWireBytes >= sa.EncodedXMLBytes {
		t.Fatalf("binary batches not smaller: wire %d >= xml %d", sa.EncodedWireBytes, sa.EncodedXMLBytes)
	}
}

// TestHandshakeOldHello: a dialer speaking protocol version 1 — with or
// without the capabilities map that version's later builds sent — version 2,
// whose builds place super-peers on nodes by another rule, version 3, whose
// builds may send the reserved frame type 6, or version 4, whose builds seed
// a conn's dictionaries from the list the handshake carries, is refused: no
// Welcome, no attach, and the acceptor's flight recorder says who asked and
// which versions disagreed.
func TestHandshakeOldHello(t *testing.T) {
	tr := NewMem()
	var cb collector
	flight := obs.NewFlightRecorder(0)
	mb, err := NewMesh(MeshConfig{Transport: tr, Node: "b", Listen: "", Handler: cb.handle, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	mb.Connect("a", "") // "a" < "b": b accepts

	olds := []struct {
		version uint32
		opts    map[string]string
	}{
		{1, nil},
		{1, map[string]string{"caps.v": "1", "codec": "binary2,xml", "dictseed": ""}},
		{2, map[string]string{"caps.v": "1", "dictseed": ""}},
		{3, map[string]string{"caps.v": "1", "dictseed": ""}},
		{4, map[string]string{"caps.v": "1", "dictseed": "en,photon,src"}},
		{4, map[string]string{"caps.v": "1", "dictseed": ""}},
	}
	for i, old := range olds {
		conn, err := tr.Dial(mb.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := &Frame{Type: FrameHello, Version: old.version, Node: "a", Resume: 1}
		if err := conn.WriteFrame(oldHandshake(hello, old.opts)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.ReadFrame(); err == nil {
			t.Fatalf("hello %d: a version-%d hello was answered", i, old.version)
		}
		got := refusals(flight)
		if len(got) != i+1 {
			t.Fatalf("hello %d: %d refusals recorded, want %d: %q", i, len(got), i+1, got)
		}
		for _, want := range []string{`node "a"`, fmt.Sprintf("version %d,", old.version), fmt.Sprintf("this build %d", ProtocolVersion)} {
			if !strings.Contains(got[i], want) {
				t.Fatalf("hello %d: refusal %q does not name %s", i, got[i], want)
			}
		}
	}
	if st := mb.Link("a").Stats(); st.Phase == "connected" || st.FramesRecv != 0 {
		t.Fatalf("a refused dialer was attached: %+v", st)
	}
	// An unknown node is refused with its reason too.
	conn, err := tr.Dial(mb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &Frame{Type: FrameHello, Version: ProtocolVersion, Node: "stranger", Resume: 1}
	if err := conn.WriteFrame(EncodeFrame(hello)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadFrame(); err == nil {
		t.Fatal("handshake from an unknown node was answered")
	}
	if got := refusals(flight); len(got) != len(olds)+1 || !strings.Contains(got[len(olds)], `"stranger"`) || !strings.Contains(got[len(olds)], "unknown node") {
		t.Fatalf("unknown-node refusal not recorded: %q", got)
	}
}

// TestHandshakeOldWelcome: a current dialer facing an acceptor that answers
// with protocol version 1, then 2, 3 and 4 — the last carrying the seed list
// it agreed on — refuses each Welcome: it never attaches, it says why — an
// error naming both versions, left in its flight recorder — and it keeps
// redialing. Its own Hellos negotiate nothing: their capability map is empty.
func TestHandshakeOldWelcome(t *testing.T) {
	tr := NewMem()
	ln, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var ca collector
	flight := obs.NewFlightRecorder(0)
	ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Listen: "", Handler: ca.handle, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	ma.Connect("b", ln.Addr()) // "a" < "b": a dials our fake old peer

	olds := []struct {
		version uint32
		opts    map[string]string
	}{
		{1, map[string]string{"caps.v": "1", "codec": "xml"}},
		{2, map[string]string{"caps.v": "1", "dictseed": ""}},
		{3, map[string]string{"caps.v": "1", "dictseed": ""}},
		{4, map[string]string{"caps.v": "1", "dictseed": "en,photon,src"}},
	}
	for _, old := range olds { // every Hello after the first shows a redial
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		payload, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		hello, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if hello.Type != FrameHello || hello.Node != "a" || hello.Version != ProtocolVersion {
			t.Fatalf("hello = %+v", hello)
		}
		if !bytes.Equal(payload, EncodeFrame(hello)) || payload[len(payload)-1] != 0 {
			t.Fatalf("hello carries capabilities: %x", payload)
		}
		welcome := &Frame{Type: FrameWelcome, Version: old.version, Node: "b", Resume: 1}
		if err := conn.WriteFrame(oldHandshake(welcome, old.opts)); err != nil {
			t.Fatal(err)
		}
		// The dialer hangs up on the Welcome it refuses.
		if _, err := conn.ReadFrame(); err == nil {
			t.Fatalf("dialer sent a frame after a version-%d welcome", old.version)
		}
	}
	got := refusals(flight)
	if len(got) < len(olds) {
		t.Fatalf("%d refusals recorded over %d handshakes: %q", len(got), len(olds), got)
	}
	for i, old := range olds {
		for _, want := range []string{`node "b"`, fmt.Sprintf("version %d,", old.version), fmt.Sprintf("this build %d", ProtocolVersion)} {
			if !strings.Contains(got[i], want) {
				t.Fatalf("refusal %q does not name %s", got[i], want)
			}
		}
	}
	if st := ma.Link("b").Stats(); st.Phase == "connected" || st.Reconnects != 0 {
		t.Fatalf("dialer attached to an older acceptor: %+v", st)
	}
}

// TestCodecBinaryReconnectReplay hammers the binary codec's dictionary
// across forced disconnects: every conn starts both directions from an
// empty dictionary, the journaled frames are encoded again for the conn
// that replays them, and the reader decodes whatever its conn delivers
// before deduping, so every batch decodes to the sender's items in order.
func TestCodecBinaryReconnectReplay(t *testing.T) {
	// Distinct element names per stride keep dictionary deltas flowing
	// mid-stream, interleaved with reused names.
	replayItems := func(i int) []*xmlstream.Element {
		return []*xmlstream.Element{
			xmlstream.E("photon", xmlstream.T(fmt.Sprintf("n%d", i%37), "v")),
			xmlstream.E("photon", xmlstream.T("en", fmt.Sprint(i))),
		}
	}
	ma, mb, _, cb := meshPair(t, NewMem())
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 400
	done := make(chan error, 1)
	// The sender parks halfway so the forced mid-stream disconnect below is
	// deterministic even though the Mem transport can outrun the chaos loop.
	resume := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			if i == n/2 {
				<-resume
			}
			if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", SeqLo: uint64(i), Elems: replayItems(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	count := func() int {
		got := 0
		for _, f := range cb.snapshot() {
			if f.Type == FrameBatch {
				got++
			}
		}
		return got
	}
	waitFor(t, 5*time.Second, func() bool { return count() == n/2 }, "first half delivered")
	drops := ma.DropConns()
	if drops == 0 {
		t.Fatal("no conn to drop mid-stream")
	}
	// The second half must travel on a fresh conn — whose dictionary knows
	// none of the first half's names — so wait for the redial to complete
	// before releasing the sender.
	waitFor(t, 5*time.Second, func() bool { return ma.Link("b").Stats().Reconnects > 0 }, "reconnect after drop")
	close(resume)
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; count() < n; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("stalled at %d/%d batches after %d drops", count(), n, drops)
		}
		time.Sleep(time.Millisecond)
		if i%8 == 7 {
			drops += ma.DropConns()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, f := range cb.snapshot() {
		if f.Type != FrameBatch {
			continue
		}
		if f.SeqLo != uint64(i) {
			t.Fatalf("batch %d out of order: SeqLo %d", i, f.SeqLo)
		}
		requireItems(t, f, replayItems(i))
		i++
	}
	st := ma.Link("b").Stats()
	if st.Reconnects == 0 {
		t.Fatalf("stats after chaos: %+v", st)
	}
	if got := mb.Link("a").Stats().DecodedItems; got != 2*n {
		t.Fatalf("decoded %d accepted items, want %d (a batch lost, or a replayed duplicate counted)", got, 2*n)
	}
}
