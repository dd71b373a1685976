package transport

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"streamshare/internal/durable"
	"streamshare/internal/obs"
	"streamshare/internal/xmlstream"
)

// ctlPlain builds the plain encoding of a sequenced control frame, the way
// the link journals it.
func ctlPlain(seq uint64, data string) []byte {
	return AppendFrame(nil, &Frame{Type: FrameControl, Seq: seq, Data: []byte(data)})
}

// restored loads a recovery into a Channel the way Mesh.Connect does.
func restored(rec linkRecovery) *Channel {
	c := NewChannel(0, DefaultLinkWindow)
	c.Restore(rec.cumAck, rec.nextSeq, rec.unacked)
	c.AddConsumer("peer")
	return c
}

// wantUnacked checks a recovered Channel's replay buffer: the given
// sequences, in order, each a control frame stamped with its sequence and
// carrying the given payload.
func wantUnacked(t *testing.T, c *Channel, seqs []uint64, data []string) {
	t.Helper()
	got := c.UnackedAfter(c.CumAck())
	if len(got) != len(seqs) {
		t.Fatalf("recovered %d unacked frames, want seqs %v", len(got), seqs)
	}
	for i, e := range got {
		if e.Seq != seqs[i] || e.Frame == nil || e.Frame.Seq != seqs[i] || string(e.Frame.Data) != data[i] {
			t.Fatalf("unacked[%d] = seq %d frame %+v, want seq %d %q", i, e.Seq, e.Frame, seqs[i], data[i])
		}
	}
}

// TestLinkDurRecoveryScan drives the journal record sequence a link life
// writes and checks the recovery scan reconstructs exactly the state the
// next life resumes from: the Channel's ack cursor, unacked frames and next
// sequence, the receive cursor, the control watermark, and an inbound
// replay set that skips acks and completed controls.
func TestLinkDurRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	d, rec, err := openLinkDur(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c := restored(rec); c.NextSeq() != 1 || c.CumAck() != 0 || c.Depth() != 0 || rec.recvNext != 1 || len(rec.replay) != 0 {
		t.Fatalf("fresh journal recovered %+v, want an empty link", rec)
	}
	// One link life: three sends (first one acked), four receives (control
	// 1 completed, a full-payload ack frame as an older build journaled
	// them, control 3 interrupted mid-handler, and a cursor-marked ack at 4
	// as the live path records them).
	for seq := uint64(1); seq <= 3; seq++ {
		d.journalSend(seq, ctlPlain(seq, fmt.Sprintf("s%d", seq)))
	}
	d.journalAckOut(1)
	d.journalRecv(1, ctlPlain(1, "r1"))
	d.journalRecv(2, AppendFrame(nil, &Frame{Type: FrameAck, Seq: 2, Stream: "S", Consumer: "c", Ack: 9}))
	d.journalRecv(3, ctlPlain(3, "r3"))
	d.journalRecvMark(4)
	d.journalCtl(1)
	if err := d.wal.Close(); err != nil {
		t.Fatal(err)
	}

	d2, rec2, err := openLinkDur(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.wal.Close()
	if d2.ctlMark != 1 || rec2.recvNext != 5 {
		t.Fatalf("recovered ctlMark=%d recvNext=%d, want 1/5", d2.ctlMark, rec2.recvNext)
	}
	c := restored(rec2)
	if c.CumAck() != 1 || c.NextSeq() != 4 || c.Cursor("peer") != 1 {
		t.Fatalf("recovered channel cumAck=%d next=%d cursor=%d, want 1/4/1", c.CumAck(), c.NextSeq(), c.Cursor("peer"))
	}
	wantUnacked(t, c, []uint64{2, 3}, []string{"s2", "s3"})
	// The sequence space continues: the next emission is 4, and the peer's
	// ack of it trims everything.
	if seq := c.EmitFrame(&Frame{Type: FrameControl}); seq != 4 {
		t.Fatalf("first emission after recovery got seq %d, want 4", seq)
	}
	if freed := c.Ack("peer", 4); freed != 3 || c.Depth() != 0 {
		t.Fatalf("ack 4 freed %d units leaving depth %d, want 3/0", freed, c.Depth())
	}
	// Replay: control 1 completed (<= ctlMark), the stream ack is never
	// replayed, control 3 was interrupted and must re-dispatch.
	if len(rec2.replay) != 1 || rec2.replay[0].Type != FrameControl || string(rec2.replay[0].Data) != "r3" {
		t.Fatalf("replay = %+v, want the one interrupted control", rec2.replay)
	}
}

// TestLinkDurRecoversParentJournal: a journal holding the Batch bytes the
// parent commit wrote (goldenBatch), as an unacked send and as an
// undispatched receive, recovers into frames that carry the items as trees.
func TestLinkDurRecoversParentJournal(t *testing.T) {
	want, golden := goldenBatch()
	dir := t.TempDir()
	d, _, err := openLinkDur(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.journalSend(want.Seq, golden)
	d.journalRecv(want.Seq, golden)
	if err := d.wal.Close(); err != nil {
		t.Fatal(err)
	}
	d2, rec, err := openLinkDur(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.wal.Close()
	if len(rec.unacked) != 1 || len(rec.replay) != 1 || rec.nextSeq != want.Seq+1 || rec.recvNext != want.Seq+1 {
		t.Fatalf("recovered %d unacked, %d to replay, next %d/%d", len(rec.unacked), len(rec.replay), rec.nextSeq, rec.recvNext)
	}
	for what, f := range map[string]*Frame{"unacked send": rec.unacked[0].Frame, "replayed receive": rec.replay[0]} {
		if !sameFrame(f, want) {
			t.Fatalf("%s recovered as %+v, want %+v", what, f, want)
		}
	}
}

// TestLinkDurCarriesPendingAcrossDoubleRestart: a life that never
// reconnects (no handshake, so no replay) must not strand the previous
// life's unacked sends when it is itself recovered — and its own sends
// continue the one sequence space instead of restarting it.
func TestLinkDurCarriesPendingAcrossDoubleRestart(t *testing.T) {
	dir := t.TempDir()
	d, _, err := openLinkDur(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.journalSend(1, ctlPlain(1, "old"))
	if err := d.wal.Close(); err != nil {
		t.Fatal(err)
	}
	// Second life: journals one send of its own, dies without a handshake.
	d2, rec2, err := openLinkDur(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c2 := restored(rec2)
	wantUnacked(t, c2, []uint64{1}, []string{"old"})
	seq := c2.NextSeq()
	if seq != 2 {
		t.Fatalf("second life continues at seq %d, want 2", seq)
	}
	d2.journalSend(seq, ctlPlain(seq, "new"))
	if err := d2.wal.Close(); err != nil {
		t.Fatal(err)
	}
	d3, rec3, err := openLinkDur(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.wal.Close()
	c3 := restored(rec3)
	wantUnacked(t, c3, []uint64{1, 2}, []string{"old", "new"})
	if c3.NextSeq() != 3 {
		t.Fatalf("third life continues at seq %d, want 3", c3.NextSeq())
	}
}

// durableMesh builds one mesh node over tr with a durable journal in dir.
func durableMesh(t *testing.T, tr Transport, node, listen, dir string, h func(string, *Frame), reg *obs.Registry) *Mesh {
	t.Helper()
	m, err := NewMesh(MeshConfig{
		Transport: tr, Node: node, Listen: listen, Handler: h,
		DataDir: dir, DurableSync: durable.SyncAlways, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDurableMeshRestartReplaysUnacked is the end-to-end crash-restart
// story at the link layer: frames sent while the peer is down survive a
// full process "restart" (mesh closed, reopened over the same journal
// directory) and are replayed to the peer's next life exactly once, in
// order, without re-delivering anything the first life already handled.
func TestDurableMeshRestartReplaysUnacked(t *testing.T) {
	tr := NewMem()
	dirA, dirB := t.TempDir(), t.TempDir()
	nop := func(string, *Frame) {}

	// Phase 1: both nodes up, 50 frames delivered and fully acked.
	var cb1 collector
	mb := durableMesh(t, tr, "b", "mem:b", dirB, cb1.handle, nil)
	ma := durableMesh(t, tr, "a", "mem:a", dirA, nop, nil)
	if _, err := mb.Connect("a", "mem:a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Connect("b", "mem:b"); err != nil {
		t.Fatal(err)
	}
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := ma.Link("b").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("f%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return cb1.len() == 50 }, "phase-1 delivery")
	if err := ma.WaitDrained(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Let the tail link-ack land in a's journal and the last control's
	// completion mark land in b's before "crashing" both.
	time.Sleep(100 * time.Millisecond)
	ma.Close()
	mb.Close()

	// Phase 2: a restarts alone and sends 50 more into the void — they can
	// only reach its journal.
	ma2 := durableMesh(t, tr, "a", "mem:a", dirA, nop, nil)
	if _, err := ma2.Connect("b", "mem:b"); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		if err := ma2.Link("b").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("f%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// And one batch whose item needs escaping on disk: fed as
	// <en>a&lt;b</en>, it must come out of the journal the same tree.
	escaped := []*xmlstream.Element{xmlstream.E("photon", xmlstream.T("en", "a<b"), xmlstream.T("src", "x&y"))}
	if err := ma2.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", Elems: escaped}); err != nil {
		t.Fatal(err)
	}
	ma2.Close()

	// Phase 3: both restart over their journals. a must replay exactly the
	// phase-2 frames to b's next life; nothing from phase 1 may reappear
	// (a's recovered ack cursor and b's recovered receive cursor fence them
	// out).
	var cb3 collector
	mb3 := durableMesh(t, tr, "b", "mem:b", dirB, cb3.handle, nil)
	ma3 := durableMesh(t, tr, "a", "mem:a", dirA, nop, nil)
	defer ma3.Close()
	defer mb3.Close()
	if _, err := mb3.Connect("a", "mem:a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ma3.Connect("b", "mem:b"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return cb3.len() >= 51 }, "phase-3 replay")
	time.Sleep(50 * time.Millisecond) // catch any late duplicate
	got := cb3.snapshot()
	if len(got) != 51 {
		t.Fatalf("delivered %d frames after restart, want exactly the 51 unacked", len(got))
	}
	if got[50].Type != FrameBatch || got[50].Seq != 101 {
		t.Fatalf("last replayed frame = %+v, want the batch at link seq 101", got[50])
	}
	requireItems(t, got[50], escaped)
	for i, f := range got[:50] {
		if want := fmt.Sprintf("f%d", 50+i); string(f.Data) != want {
			t.Fatalf("frame %d = %q, want %q", i, f.Data, want)
		}
		// a's second life continued the sequence space its first life left
		// at 50, and its third replays those frames under the same numbers.
		if want := uint64(51 + i); f.Seq != want {
			t.Fatalf("frame %d replayed as link seq %d, want %d", i, f.Seq, want)
		}
	}
	st := ma3.Link("b").Stats()
	if st.Replayed < 50 {
		t.Fatalf("replayed = %d, want >= 50", st.Replayed)
	}
}

// TestDurableMeshCheckpointCompacts: after a quiescent checkpoint the
// journal recovers from a handful of snapshot records instead of the whole
// history, and the link keeps working exactly-once across the restart.
func TestDurableMeshCheckpointCompacts(t *testing.T) {
	tr := NewMem()
	dirA, dirB := t.TempDir(), t.TempDir()
	nop := func(string, *Frame) {}

	var cb collector
	mb := durableMesh(t, tr, "b", "mem:b", dirB, cb.handle, nil)
	ma := durableMesh(t, tr, "a", "mem:a", dirA, nop, nil)
	if _, err := mb.Connect("a", "mem:a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Connect("b", "mem:b"); err != nil {
		t.Fatal(err)
	}
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := ma.Link("b").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("f%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return cb.len() == 100 }, "delivery")
	if err := ma.WaitDrained(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	ma.Checkpoint()
	mb.Checkpoint()
	ma.Close()
	mb.Close()

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	var cb2 collector
	mb2 := durableMesh(t, tr, "b", "mem:b", dirB, cb2.handle, regB)
	ma2 := durableMesh(t, tr, "a", "mem:a", dirA, nop, regA)
	defer ma2.Close()
	defer mb2.Close()
	if _, err := mb2.Connect("a", "mem:a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ma2.Connect("b", "mem:b"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		side string
		reg  *obs.Registry
	}{{"a", regA}, {"b", regB}} {
		if n := c.reg.Counter("durable.recover.records").Value(); n > 10 {
			t.Fatalf("side %s recovered %v records after checkpoint, want a snapshot-sized handful", c.side, n)
		}
	}
	if err := ma2.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 110; i++ {
		if err := ma2.Link("b").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("f%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return cb2.len() >= 10 }, "post-restart delivery")
	time.Sleep(50 * time.Millisecond)
	got := cb2.snapshot()
	if len(got) != 10 {
		t.Fatalf("delivered %d frames after checkpointed restart, want exactly 10 new ones", len(got))
	}
	for i, f := range got {
		if want := fmt.Sprintf("f%d", 100+i); string(f.Data) != want {
			t.Fatalf("frame %d = %q, want %q", i, f.Data, want)
		}
	}
}

// TestDurablePeerRestartFreshDictionary: a surviving sender must reach a
// restarted peer through the binary codec. The peer's new conn starts from
// an empty dictionary in both directions, so a batch that reuses an element
// name interned before the crash has to carry that name's delta again —
// with a link-scoped encoder it does not, the peer's fresh decoder rejects
// the batch, and teardown-and-replay of the same bytes spins forever.
func TestDurablePeerRestartFreshDictionary(t *testing.T) {
	tr := NewMem()
	dirA, dirB := t.TempDir(), t.TempDir()
	nop := func(string, *Frame) {}
	tree := func(doc string) []*xmlstream.Element {
		e, err := xmlstream.UnmarshalBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		return []*xmlstream.Element{e}
	}

	var cb1 collector
	mb := durableMesh(t, tr, "b", "mem:b", dirB, cb1.handle, nil)
	ma := durableMesh(t, tr, "a", "mem:a", dirA, nop, nil)
	defer ma.Close()
	if _, err := mb.Connect("a", "mem:a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Connect("b", "mem:b"); err != nil {
		t.Fatal(err)
	}
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	const before = "<photon><en>1.5</en></photon>"
	if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", Elems: tree(before)}); err != nil {
		t.Fatal(err)
	}
	if got := frameXML(wantBatches(t, &cb1, 1)[0]); string(got[0]) != before {
		t.Fatalf("pre-crash batch = %q, want %q", got[0], before)
	}
	if err := ma.WaitDrained(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the tail link-ack reach a's journal

	// b crashes and restarts over its journal; a survives.
	mb.Close()
	var cb2 collector
	mb2 := durableMesh(t, tr, "b", "mem:b", dirB, cb2.handle, nil)
	defer mb2.Close()
	if _, err := mb2.Connect("a", "mem:a"); err != nil {
		t.Fatal(err)
	}
	after := []string{
		"<photon><en>2.5</en></photon>", // only names interned before the crash
		"<photon><det>7</det></photon>", // and a new one
	}
	for _, doc := range after {
		if err := ma.Link("b").Send(&Frame{Type: FrameBatch, Stream: "s", Elems: tree(doc)}); err != nil {
			t.Fatal(err)
		}
	}
	// b's journal holds no checkpoint boundary, so its recovery re-dispatches
	// the pre-crash batch ahead of anything the new conn delivers.
	want := append([]string{before}, after...)
	for i, f := range wantBatches(t, &cb2, len(want)) {
		if got := frameXML(f); len(got) != 1 || string(got[0]) != want[i] {
			t.Fatalf("batch %d after b's restart = %q, want %q", i, got, want[i])
		}
	}
	if st := ma.Link("b").Stats(); st.Reconnects == 0 || st.Reconnects > 9 {
		t.Fatalf("survivor reconnected %d times (replayed %d frames), want a handful", st.Reconnects, st.Replayed)
	}
}

// TestDurableLostTailFastForwards: a journal that lost its unsynced tail
// recovers a next-sequence below what the peer already consumed. The
// handshake must move the link's sequence space up to the peer's cursor —
// frames queued before the reconnect included — or the peer would dedup
// new frames as replays of the lost ones.
func TestDurableLostTailFastForwards(t *testing.T) {
	tr := NewMem()
	dirA, dirB := t.TempDir(), t.TempDir()
	nop := func(string, *Frame) {}
	var cb collector
	mb := durableMesh(t, tr, "b", "mem:b", dirB, cb.handle, nil)
	defer mb.Close()
	ma := durableMesh(t, tr, "a", "mem:a", dirA, nop, nil)
	if _, err := mb.Connect("a", "mem:a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Connect("b", "mem:b"); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := ma.Link("b").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("f%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return cb.len() == n }, "first-life delivery")
	ma.Close()

	// Cut a's journal mid-file, the way a crash under a lax sync policy
	// loses the records after the last fsync (recovery drops the torn one).
	segs, err := filepath.Glob(filepath.Join(dirA, "b", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments = %v (%v), want one", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}

	// a restarts believing it sent far fewer than n frames, queues one frame
	// before it reconnects and one after.
	ma2 := durableMesh(t, tr, "a", "mem:a", dirA, nop, nil)
	defer ma2.Close()
	l, err := ma2.Connect("b", "mem:b")
	if err != nil {
		t.Fatal(err)
	}
	if next := l.out.NextSeq(); next > n {
		t.Fatalf("truncated journal still recovered next seq %d, want a lost tail (<= %d)", next, n)
	}
	if err := l.Send(&Frame{Type: FrameControl, Data: []byte("queued")}); err != nil {
		t.Fatal(err)
	}
	if err := ma2.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(&Frame{Type: FrameControl, Data: []byte("live")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return cb.len() >= n+2 }, "post-restart frames delivered, not deduped")
	time.Sleep(50 * time.Millisecond) // catch any late duplicate
	got := cb.snapshot()
	if len(got) != n+2 {
		t.Fatalf("delivered %d frames, want %d", len(got), n+2)
	}
	for i, want := range []string{"queued", "live"} {
		f := got[n+i]
		if string(f.Data) != want || f.Seq != uint64(n+1+i) {
			t.Fatalf("post-restart frame %d = %q seq %d, want %q seq %d", i, f.Data, f.Seq, want, n+1+i)
		}
	}
	if err := ma2.WaitDrained(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestConnectRefusesRetiredJournalLayout: a data directory written by the
// build that kept boot incarnations must fail Connect with an error naming
// it, not be misread as this build's records.
func TestConnectRefusesRetiredJournalLayout(t *testing.T) {
	dir := t.TempDir()
	linkDir := filepath.Join(dir, "b")
	w, _, err := durable.Open(durable.Options{Dir: linkDir})
	if err != nil {
		t.Fatal(err)
	}
	// What that build's first life wrote: its boot record (kind 1), then a
	// send under it (kind 3: boot | seq | plain frame).
	if err := w.Append(1, beU64(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPair(3, append(beU64(1), beU64(1)...), ctlPlain(1, "old")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m := durableMesh(t, NewMem(), "a", "mem:a", dir, func(string, *Frame) {}, nil)
	defer m.Close()
	if _, err := m.Connect("b", "mem:b"); err == nil || !strings.Contains(err.Error(), linkDir) {
		t.Fatalf("Connect over a retired-layout journal: err = %v, want one naming %s", err, linkDir)
	}
	if m.Link("b") != nil {
		t.Fatal("refused journal still registered a link")
	}
}

// corruptTransport wraps a Transport and replaces one frame payload on one
// accepted conn with the given bytes — the wire-corruption chaos hook. The
// reader must refuse them, tear the conn down, and journal replay must
// re-deliver the frame on the next conn.
type corruptTransport struct {
	Transport
	with []byte
	mu   sync.Mutex
	done bool
}

func (t *corruptTransport) Listen(addr string) (Listener, error) {
	ln, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &corruptListener{Listener: ln, t: t}, nil
}

type corruptListener struct {
	Listener
	t *corruptTransport
}

func (l *corruptListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &corruptConn{Conn: c, t: l.t}, nil
}

type corruptConn struct {
	Conn
	t     *corruptTransport
	reads int
}

func (c *corruptConn) ReadFrame() ([]byte, error) {
	p, err := c.Conn.ReadFrame()
	if err != nil {
		return p, err
	}
	c.t.mu.Lock()
	c.reads++
	// Read 1 is the handshake Hello; replace the third frame of the first
	// attached conn, once, past the handshake — an established-link data
	// frame, link sequence 2.
	if !c.t.done && c.reads == 3 {
		c.t.done = true
		p = c.t.with
	}
	c.t.mu.Unlock()
	return p, err
}

// TestCorruptFrameTearsDownAndReplays is the wire-side twin of the WAL
// torn-tail tests: a frame the reader cannot take — bytes that do not
// decode (an invalid frame type guarantees that, rather than a silently
// altered payload), or a well-formed plain Batch, which is the journal's
// form of a batch and never a conn's — must tear the conn down cleanly (no
// cursor advance, nothing dispatched, no dictionary damage) and the journal
// replay on the fresh conn must recover every frame exactly once, in order.
func TestCorruptFrameTearsDownAndReplays(t *testing.T) {
	plain := EncodeFrame(&Frame{Type: FrameBatch, Seq: 2, Stream: "s", Elems: batchItems("plain", 2)})
	for name, with := range map[string][]byte{"undecodable": {0xff}, "plain batch": plain} {
		t.Run(name, func(t *testing.T) {
			tr := &corruptTransport{Transport: NewMem(), with: with}
			dirA, dirB := t.TempDir(), t.TempDir()
			nop := func(string, *Frame) {}
			var cb collector
			mb := durableMesh(t, tr, "b", "mem:b", dirB, cb.handle, nil)
			ma := durableMesh(t, tr, "a", "mem:a", dirA, nop, nil)
			defer ma.Close()
			defer mb.Close()
			if _, err := mb.Connect("a", "mem:a"); err != nil {
				t.Fatal(err)
			}
			if _, err := ma.Connect("b", "mem:b"); err != nil {
				t.Fatal(err)
			}
			if err := ma.WaitConnected(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			const n = 100
			for i := 0; i < n; i++ {
				if err := ma.Link("b").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("f%d", i))}); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, 10*time.Second, func() bool { return cb.len() == n }, "delivery through corruption")
			time.Sleep(50 * time.Millisecond)
			got := cb.snapshot()
			if len(got) != n {
				t.Fatalf("delivered %d frames, want %d", len(got), n)
			}
			for i, f := range got {
				if want := fmt.Sprintf("f%d", i); f.Type != FrameControl || string(f.Data) != want {
					t.Fatalf("frame %d = %s %q, want control %q", i, f.Type, f.Data, want)
				}
			}
			tr.mu.Lock()
			fired := tr.done
			tr.mu.Unlock()
			if !fired {
				t.Fatal("corruption hook never fired")
			}
			if st := ma.Link("b").Stats(); st.Reconnects == 0 {
				t.Fatalf("corrupted frame did not force a reconnect: %+v", st)
			}
		})
	}
}

// TestHandshakeReadTimeout: a conn that dials the mesh and goes silent
// must be torn down by the handshake deadline instead of pinning an accept
// goroutine forever, and the mesh keeps serving real peers afterwards.
func TestHandshakeReadTimeout(t *testing.T) {
	tr := NewMem()
	var ca, cb collector
	ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Listen: "mem:a", Handler: ca.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	// The accept loop reads the bound only once a conn arrives, after this.
	ma.hsTimeout = 30 * time.Millisecond
	conn, err := tr.Dial("mem:a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dead := make(chan error, 1)
	go func() {
		_, err := conn.ReadFrame()
		dead <- err
	}()
	select {
	case err := <-dead:
		if err == nil {
			t.Fatal("silent handshake conn read succeeded, want teardown error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent handshake conn was not torn down")
	}
	// A real peer still connects.
	mb, err := NewMesh(MeshConfig{Transport: tr, Node: "b", Listen: "mem:b", Handler: cb.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if _, err := ma.Connect("b", "mem:b"); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Connect("a", "mem:a"); err != nil {
		t.Fatal(err)
	}
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
