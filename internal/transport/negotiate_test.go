package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"streamshare/internal/wire"
)

// These tests pin the handshake's versioned capabilities map and the codec
// lifecycle it negotiates: new↔new links settle on binary, either side can
// force xml, old-hello and old-welcome peers (builds that predate the
// capabilities map) interoperate over xml in both directions, and reconnect
// replays decode correctly through each new conn's fresh dictionaries.

// batchItems renders distinct canonical items for batch payload checks.
func batchItems(tag string, n int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("<photon><src>%s</src><en>%d.25</en></photon>", tag, i))
	}
	return items
}

// frameXML renders a dispatched batch's items as canonical XML regardless
// of how they arrived: verbatim Items on xml links, parsed Elems on
// tree-capable links.
func frameXML(f *Frame) [][]byte {
	if len(f.Elems) > 0 {
		return marshalElems(f.Elems)
	}
	return f.Items
}

// wantBatches waits until the collector holds n Batch frames and returns
// them; non-batch frames (heartbeats) are filtered out.
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

// TestCodecNegotiationDefault: two current builds settle on the binary
// codec, batches cross as BatchBin on the wire, and the handler still sees
// plain Batch frames with byte-identical items.
func TestCodecNegotiationDefault(t *testing.T) {
	ma, mb, _, cb := meshPair(t, NewMem())
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c := ma.Link("b").Stats().Codec; c != wire.CodecBinary {
		t.Fatalf("dialer negotiated %q, want %q", c, wire.CodecBinary)
	}
	if c := mb.Link("a").Stats().Codec; c != wire.CodecBinary {
		t.Fatalf("acceptor negotiated %q, want %q", c, wire.CodecBinary)
	}
	items := batchItems("neg", 20)
	for i := 0; i < 3; i++ {
		if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range wantBatches(t, cb, 3) {
		// A binary link hands the handler parsed trees, never item bytes:
		// the zero-XML contract.
		if len(f.Items) != 0 {
			t.Fatalf("binary link dispatched %d raw items alongside elems", len(f.Items))
		}
		got := frameXML(f)
		if len(got) != len(items) {
			t.Fatalf("batch has %d items, want %d", len(got), len(items))
		}
		for i := range items {
			if !bytes.Equal(got[i], items[i]) {
				t.Fatalf("item %d: %q, want %q", i, got[i], items[i])
			}
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

// TestCodecNegotiationForcedXML: one side advertising only xml forces the
// whole link onto the verbatim baseline — the -codec=xml debug path.
func TestCodecNegotiationForcedXML(t *testing.T) {
	tr := NewMem()
	var ca, cb collector
	ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Listen: "", Handler: ca.handle,
		Codecs: []string{wire.CodecXML}})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMesh(MeshConfig{Transport: tr, Node: "b", Listen: "", Handler: cb.handle})
	if err != nil {
		ma.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { ma.Close(); mb.Close() })
	ma.Connect("b", mb.Addr())
	mb.Connect("a", ma.Addr())
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range []LinkStats{ma.Link("b").Stats(), mb.Link("a").Stats()} {
		if st.Codec != wire.CodecXML {
			t.Fatalf("negotiated %q, want %q", st.Codec, wire.CodecXML)
		}
	}
	items := batchItems("xml", 5)
	if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", Items: items}); err != nil {
		t.Fatal(err)
	}
	got := wantBatches(t, &cb, 1)[0]
	for i := range items {
		if !bytes.Equal(got.Items[i], items[i]) {
			t.Fatalf("item %d differs on xml link", i)
		}
	}
	if st := ma.Link("b").Stats(); st.EncodedItems != 0 {
		t.Fatalf("xml link ran the codec: %d items encoded", st.EncodedItems)
	}
	// An unregistered codec preference is refused at construction.
	if _, err := NewMesh(MeshConfig{Transport: tr, Node: "z", Listen: "", Handler: ca.handle,
		Codecs: []string{"gob"}}); err == nil {
		t.Fatal("mesh accepted an unregistered codec")
	}
}

// TestHandshakeOldHello: a dialer that predates capabilities (Hello with no
// Options) must be answered, fall back to xml, and exchange batches in both
// directions — the old-hello/new-welcome compatibility guarantee.
func TestHandshakeOldHello(t *testing.T) {
	tr := NewMem()
	var cb collector
	mb, err := NewMesh(MeshConfig{Transport: tr, Node: "b", Listen: "", Handler: cb.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	mb.Connect("a", "") // "a" < "b": b accepts

	conn, err := tr.Dial(mb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The exact Hello a PR 7 build sends: version, node, resume, no Options.
	hello := &Frame{Type: FrameHello, Version: ProtocolVersion, Node: "a", Resume: 1}
	if err := conn.WriteFrame(EncodeFrame(hello)); err != nil {
		t.Fatal(err)
	}
	payload, err := conn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	welcome, err := DecodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if welcome.Type != FrameWelcome || welcome.Node != "b" {
		t.Fatalf("welcome = %+v", welcome)
	}
	if got := welcome.Options["codec"]; got != wire.CodecXML {
		t.Fatalf("acceptor chose %q against an old hello, want %q", got, wire.CodecXML)
	}
	if c := mb.Link("a").Stats().Codec; c != wire.CodecXML {
		t.Fatalf("link negotiated %q, want %q", c, wire.CodecXML)
	}

	// Old peer → new peer.
	items := batchItems("old", 4)
	batch := &Frame{Type: FrameBatch, Seq: 1, Stream: "s", Items: items}
	if err := conn.WriteFrame(EncodeFrame(batch)); err != nil {
		t.Fatal(err)
	}
	got := wantBatches(t, &cb, 1)[0]
	for i := range items {
		if !bytes.Equal(got.Items[i], items[i]) {
			t.Fatalf("item %d differs old→new", i)
		}
	}

	// New peer → old peer: must arrive as plain Batch, never BatchBin.
	if err := mb.Link("a").Send(&Frame{Type: FrameBatch, Stream: "s", Items: items}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("old peer never received the batch")
		}
		payload, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == FrameBatchBin {
			t.Fatal("new peer sent BatchBin to an old peer")
		}
		if f.Type != FrameBatch {
			continue // link acks, heartbeats
		}
		for i := range items {
			if !bytes.Equal(f.Items[i], items[i]) {
				t.Fatalf("item %d differs new→old", i)
			}
		}
		return
	}
}

// TestHandshakeOldWelcome: a current dialer facing an acceptor that answers
// without capabilities (a PR 7 build) must advertise its codecs in Hello,
// settle on xml, and exchange batches both ways — the new-hello/old-welcome
// direction.
func TestHandshakeOldWelcome(t *testing.T) {
	tr := NewMem()
	ln, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var ca collector
	ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Listen: "", Handler: ca.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	ma.Connect("b", ln.Addr()) // "a" < "b": a dials our fake old peer

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
	if hello.Type != FrameHello || hello.Node != "a" {
		t.Fatalf("hello = %+v", hello)
	}
	// The new build must advertise its capabilities to anyone...
	if hello.Options["caps.v"] != "1" || hello.Options["codec"] == "" {
		t.Fatalf("hello capabilities missing: %v", hello.Options)
	}
	// ...and an old build answers without any.
	welcome := &Frame{Type: FrameWelcome, Version: ProtocolVersion, Node: "b", Resume: 1}
	if err := conn.WriteFrame(EncodeFrame(welcome)); err != nil {
		t.Fatal(err)
	}
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c := ma.Link("b").Stats().Codec; c != wire.CodecXML {
		t.Fatalf("dialer negotiated %q against an old welcome, want %q", c, wire.CodecXML)
	}

	// New → old: plain Batch on the wire.
	items := batchItems("ow", 4)
	if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", Items: items}); err != nil {
		t.Fatal(err)
	}
	for {
		payload, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == FrameBatchBin {
			t.Fatal("new dialer sent BatchBin to an old acceptor")
		}
		if f.Type != FrameBatch {
			continue
		}
		for i := range items {
			if !bytes.Equal(f.Items[i], items[i]) {
				t.Fatalf("item %d differs new→old", i)
			}
		}
		break
	}

	// Old → new.
	batch := &Frame{Type: FrameBatch, Seq: 1, Stream: "s", Items: items}
	if err := conn.WriteFrame(EncodeFrame(batch)); err != nil {
		t.Fatal(err)
	}
	got := wantBatches(t, &ca, 1)[0]
	for i := range items {
		if !bytes.Equal(got.Items[i], items[i]) {
			t.Fatalf("item %d differs old→new", i)
		}
	}
}

// TestDictionarySeeding pins the schema-seeded dictionary handshake: both
// halves of a binary link pre-intern the agreed name list (so steady-state
// batches ship no dictionary deltas), the acceptor adopts the dialer's list
// when it has none of its own, and an xml link ignores seeding entirely.
func TestDictionarySeeding(t *testing.T) {
	seed := []string{"en", "photon", "src"}
	items := batchItems("seed", 8) // uses exactly the seeded vocabulary
	send := func(t *testing.T, cfgA, cfgB MeshConfig) (LinkStats, LinkStats, *Frame) {
		t.Helper()
		tr := NewMem()
		var ca, cb collector
		cfgA.Transport, cfgA.Node, cfgA.Handler = tr, "a", ca.handle
		cfgB.Transport, cfgB.Node, cfgB.Handler = tr, "b", cb.handle
		ma, err := NewMesh(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := NewMesh(cfgB)
		if err != nil {
			ma.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { ma.Close(); mb.Close() })
		ma.Connect("b", mb.Addr())
		mb.Connect("a", ma.Addr())
		if err := ma.WaitConnected(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", Items: items}); err != nil {
			t.Fatal(err)
		}
		f := wantBatches(t, &cb, 1)[0]
		return ma.Link("b").Stats(), mb.Link("a").Stats(), f
	}

	// Both sides configured: both halves seed the full list.
	sa, sb, f := send(t, MeshConfig{SeedNames: seed}, MeshConfig{SeedNames: seed})
	if sa.SeededNames != len(seed) || sb.SeededNames != len(seed) {
		t.Fatalf("seeded %d/%d names, want %d on both sides", sa.SeededNames, sb.SeededNames, len(seed))
	}
	got := frameXML(f)
	for i := range items {
		if !bytes.Equal(got[i], items[i]) {
			t.Fatalf("seeded item %d: %q, want %q", i, got[i], items[i])
		}
	}

	// The same batch on an unseeded link pays for its dictionary deltas:
	// the seeded payload must be strictly smaller.
	ua, _, _ := send(t, MeshConfig{}, MeshConfig{})
	if sa.EncodedWireBytes >= ua.EncodedWireBytes {
		t.Fatalf("seeded batch not smaller: %d >= %d wire bytes (deltas still in-band)",
			sa.EncodedWireBytes, ua.EncodedWireBytes)
	}

	// Dialer-only configuration: the acceptor adopts the dialer's list from
	// the handshake, so both halves still seed identically.
	da, db, _ := send(t, MeshConfig{SeedNames: seed}, MeshConfig{})
	if da.SeededNames != len(seed) || db.SeededNames != len(seed) {
		t.Fatalf("dialer-only seeding: %d/%d names, want %d on both sides", da.SeededNames, db.SeededNames, len(seed))
	}

	// An xml link never seeds (nothing to seed: no dictionary).
	xa, xb, xf := send(t, MeshConfig{SeedNames: seed, Codecs: []string{wire.CodecXML}}, MeshConfig{SeedNames: seed})
	if xa.SeededNames != 0 || xb.SeededNames != 0 {
		t.Fatalf("xml link seeded %d/%d names, want 0", xa.SeededNames, xb.SeededNames)
	}
	if len(xf.Items) != len(items) {
		t.Fatalf("xml link delivered %d items, want %d", len(xf.Items), len(items))
	}
}

// TestCodecBinaryReconnectReplay hammers the binary codec's dictionary
// across forced disconnects: every conn starts both directions from an
// empty dictionary, the journaled frames are encoded again for the conn
// that replays them, and the reader decodes whatever its conn delivers
// before deduping, so every batch decodes to the sender's items in order.
func TestCodecBinaryReconnectReplay(t *testing.T) {
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
			// Distinct element names per stride keep dictionary deltas
			// flowing mid-stream, interleaved with reused names.
			items := [][]byte{
				[]byte(fmt.Sprintf("<photon><n%d>v</n%d></photon>", i%37, i%37)),
				[]byte(fmt.Sprintf("<photon><en>%d</en></photon>", i)),
			}
			if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", SeqLo: uint64(i), Items: items}); err != nil {
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
		want := [][]byte{
			[]byte(fmt.Sprintf("<photon><n%d>v</n%d></photon>", i%37, i%37)),
			[]byte(fmt.Sprintf("<photon><en>%d</en></photon>", i)),
		}
		if f.SeqLo != uint64(i) {
			t.Fatalf("batch %d out of order: SeqLo %d", i, f.SeqLo)
		}
		got := frameXML(f)
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("batch %d item %d: %q, want %q", i, j, got[j], want[j])
			}
		}
		i++
	}
	st := ma.Link("b").Stats()
	if st.Reconnects == 0 || st.Codec != wire.CodecBinary {
		t.Fatalf("stats after chaos: %+v", st)
	}
	if got := mb.Link("a").Stats().DecodedItems; got != 2*n {
		t.Fatalf("decoded %d accepted items, want %d (a batch lost, or a replayed duplicate counted)", got, 2*n)
	}
}
