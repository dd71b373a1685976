package transport

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"streamshare/internal/obs"
	"streamshare/internal/wire"
	"streamshare/internal/xmlstream"
)

// This file is the managed connection between two nodes. A Link owns one
// bidirectional Conn to a remote node and makes it loss-free across
// disconnects by riding the Channel state machine: every sequenced frame
// a node sends is journaled in the link's replay Channel before it goes
// out, the receiver dedups by link sequence through a RecvCursor and
// returns cumulative LinkAcks that trim the journal, and the handshake
// exchanges each side's next-expected sequence so a reconnect replays
// exactly the unacknowledged suffix. The journal is bounded by the link
// credit window: a sender that outruns a dead or slow connection blocks
// in Send until acks (or reconnection) free credits.
//
// Two scopes, deliberately different: the sequence space belongs to the
// link for life — it never restarts, across reconnects or (on durable
// links, whose WAL backs the same Channel) across process restarts — while
// the wire codec's dictionaries belong to the one conn that handshake
// opened, and start empty. The journal therefore holds frames, not
// encodings, and a reconnect is nothing more than fresh dictionaries plus a
// replay from the peer's resume cursor.
//
// One goroutine writes an attached conn: the link's writer. The reader
// never writes — it marks a LinkAck due and wakes the writer, which sends it
// ahead of its next journal frames — so a reader always drains, and a conn
// whose two directions both fill cannot deadlock on itself.
//
// Reconnect state machine (Link.phase):
//
//	idle → dialing → handshake → connected ⇄ reconnecting → closed
//
// The side with the lexicographically smaller node name dials; the other
// side waits in its mesh accept loop. Either side detects a broken conn
// through a read or write error, detaches it, and returns to
// dialing/waiting until a fresh conn completes the Hello/Welcome
// exchange.

// linkAckEvery is how many sequenced frames a receiver accepts before its
// reader marks a cumulative LinkAck due — the rule under load; requestAck
// covers the tail. It also caps the journal frames the writer sends between
// two looks for a due ack.
const linkAckEvery = 16

// DefaultLinkWindow bounds each link's replay journal, in frames.
const DefaultLinkWindow = 1024

// LinkStats is one link's cumulative transfer and reconnect counters.
type LinkStats struct {
	// Remote is the link's remote node name.
	Remote string
	// Phase is the connection phase at snapshot time.
	Phase string
	// BytesSent and BytesRecv count frame payload bytes plus length
	// prefixes.
	BytesSent, BytesRecv uint64
	// FramesSent and FramesRecv count frames written to and read from
	// conns (replays recount).
	FramesSent, FramesRecv uint64
	// Reconnects counts conn attachments beyond the first.
	Reconnects uint64
	// Replayed counts journal frames re-sent after a reconnect.
	Replayed uint64
	// SendWaits counts Send calls that blocked on the replay window.
	SendWaits uint64
	// Depth is the replay journal depth at snapshot time.
	Depth int
	// EncodedItems and DecodedItems count items through the wire codec.
	// Replayed frames are encoded again and recount, like FramesSent; a
	// replay's duplicates are decoded, to keep the conn's dictionary in
	// step, but only accepted batches count as decoded.
	EncodedItems, DecodedItems uint64
	// EncodedXMLBytes/EncodedWireBytes are outbound batch sizes before and
	// after the codec. Their ratio is the measured outbound compression.
	EncodedXMLBytes, EncodedWireBytes uint64
	// DecodedXMLBytes/DecodedWireBytes are the inbound mirror: batch sizes
	// after and before the inverse transform.
	DecodedXMLBytes, DecodedWireBytes uint64
}

// Link is one managed connection to a remote node; create links through
// Mesh.Connect. A link outlives any individual conn: sequenced outbound
// frames are journaled before they are written, and each handshake carries
// both sides' resume cursors — the next link sequence each expects to
// receive. A peer's resume cursor doubles as a cumulative ack (everything
// below it was delivered, so the journal trims to it) and as the replay
// start (the journal suffix from the cursor on is re-sent on the fresh
// conn, in order). The receive cursor dedups whatever a replay
// re-delivers, which together makes delivery exactly-once and in-order per
// link for the mesh handler, across any number of disconnects.
type Link struct {
	mesh   *Mesh
	remote string
	// addr is the remote's listen address; empty on the accepting side.
	addr   string
	dialer bool

	mu    chanLock
	conn  Conn
	gen   int // bumped per attach; stale readers/writers see it and stand down
	phase string
	// out journals sequenced outbound frames (consumer: the remote node).
	out *Channel
	// sent is the highest journal sequence written to the current conn;
	// before the first attach, the highest a previous life journaled.
	sent uint64
	// in dedups inbound sequenced frames across reconnect replays.
	in RecvCursor
	// ackOwed is the highest accepted sequence a LinkAck was asked for, and
	// ackSent the highest the writer has written; an ack is due while
	// ackOwed > ackSent.
	ackOwed, ackSent uint64
	closed           bool

	// enc is the current conn's encoder half (nil while detached), used by
	// the writer alone. The matching decoder belongs to the conn's reader;
	// neither survives the conn.
	enc *wire.BinaryEncoder
	// encBuf is the writer goroutine's reused codec scratch (not under mu).
	encBuf []byte

	// dur is the WAL behind out and in; nil on in-memory links. Set once
	// at Connect, its fields guarded by mu.
	dur *linkDur

	stats   LinkStats
	q       *frameQueue
	attachN int
}

// Remote returns the remote node's name.
func (l *Link) Remote() string { return l.remote }

// Send journals one sequenced frame and wakes the writer; it blocks while
// the replay window is exhausted and returns ErrClosed after Close. The
// journal keeps the link's own shallow copy, stamped with the link
// sequence — the caller's frame is left untouched, so one frame may be sent
// on several links — and retains whatever the frame references (element
// trees, span header) until the peer acks it: callers must not modify those
// afterwards. Trees stay trees in the journal; the writer encodes them for
// whichever conn carries the frame.
func (l *Link) Send(f *Frame) error {
	own := *f
	l.mu.Lock()
	waited := false
	for !l.closed && !l.out.Admit(1) {
		if !waited {
			waited = true
			l.stats.SendWaits++
		}
		l.mu.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	own.Seq = l.out.NextSeq() // the WAL record carries it, ahead of EmitFrame
	l.journalSendLocked(&own)
	l.out.EmitFrame(&own)
	l.mu.Broadcast()
	l.mu.Unlock()
	return nil
}

// journalSendLocked appends an outbound frame to a durable link's WAL
// before it enters the Channel. Stream-level acks are cumulative snapshots
// of live channel state: replaying one after a recovery is stale at best,
// so they skip the WAL — the peer just retains buffer until live acks catch
// up (the receive side filters them symmetrically). Callers hold l.mu.
func (l *Link) journalSendLocked(f *Frame) {
	if l.dur != nil && f.Type != FrameAck {
		l.dur.journalSend(f.Seq, AppendFrame(nil, f))
	}
}

// appendWire appends a journaled frame's wire image for the conn whose
// handshake minted enc, adding what the codec transformed to sum's Encoded*
// counters. A batch crosses as BatchBin, its trees encoded straight into the
// payload and priced with xmlstream.MarshalSize instead of materialized. Only
// the link's writer calls it, in journal order, which is what keeps the
// conn's dictionary deltas in sequence.
func (l *Link) appendWire(dst []byte, f *Frame, enc *wire.BinaryEncoder, sum *LinkStats) []byte {
	if f.Type != FrameBatch {
		return AppendFrame(dst, f)
	}
	start := time.Now()
	l.encBuf = enc.EncodeElems(l.encBuf[:0], f.Elems)
	xmlBytes := 0
	for _, e := range f.Elems {
		xmlBytes += xmlstream.MarshalSize(e)
	}
	bin := *f
	bin.Type = FrameBatchBin
	bin.Elems = nil
	bin.Data = l.encBuf
	sum.EncodedItems += uint64(len(f.Elems))
	sum.EncodedXMLBytes += uint64(xmlBytes)
	sum.EncodedWireBytes += uint64(len(bin.Data))
	l.mesh.enc.record(start, len(f.Elems), xmlBytes, len(bin.Data))
	return AppendFrame(dst, &bin)
}

// decodeBatch rewrites an inbound BatchBin frame into a plain Batch of
// element trees in place, through the reading conn's own decoder; canonical
// bytes are priced (MarshalSize) but never built. The trees are freshly
// allocated, so the frame may outlive the conn's read buffer. It runs on
// the conn's reader for every BatchBin in arrival order, duplicates
// included, because each payload may extend the conn's dictionary.
func (l *Link) decodeBatch(f *Frame, dec *wire.BinaryDecoder) (xmlBytes int, err error) {
	start := time.Now()
	wireBytes := len(f.Data)
	elems, err := dec.DecodeElems(f.Data)
	if err != nil {
		return 0, err
	}
	f.Type = FrameBatch
	f.Elems = elems
	f.Data = nil
	for _, e := range elems {
		xmlBytes += xmlstream.MarshalSize(e)
	}
	l.mesh.dec.record(start, len(elems), xmlBytes, wireBytes)
	return xmlBytes, nil
}

// wireMetrics are one codec direction's instruments, resolved from the
// mesh's registry once: every link's writer (encode) and every conn's
// reader (decode) records into them per batch, concurrently, off the
// registry's map lock.
type wireMetrics struct {
	seconds            *obs.Histogram
	items, xmlB, wireB *obs.Counter
}

// newWireMetrics resolves wire.<op>.seconds, .items, .bytes.xml and
// .bytes.wire in reg; nil without a registry.
func newWireMetrics(reg *obs.Registry, op string) *wireMetrics {
	if reg == nil {
		return nil
	}
	return &wireMetrics{
		seconds: reg.Histogram("wire."+op+".seconds", obs.ExpBuckets(1e-6, 4, 10)), // 1µs .. ~260ms
		items:   reg.Counter("wire." + op + ".items"),
		xmlB:    reg.Counter("wire." + op + ".bytes.xml"),
		wireB:   reg.Counter("wire." + op + ".bytes.wire"),
	}
}

// record adds one batch transform begun at start; a nil w records nothing.
func (w *wireMetrics) record(start time.Time, items, xmlBytes, wireBytes int) {
	if w == nil {
		return
	}
	w.seconds.Observe(time.Since(start).Seconds())
	w.items.Add(float64(items))
	w.xmlB.Add(float64(xmlBytes))
	w.wireB.Add(float64(wireBytes))
}

// checkpoint compacts a durable link's journal to a snapshot of its live
// state, with a boundary so recovered processes never re-dispatch frames
// drained before it.
func (l *Link) checkpoint() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dur != nil {
		l.dur.wal.Compact(l.dur.snapshot(l.out, l.in.Next())) //nolint:errcheck // sticky WAL error resurfaces on Close
	}
}

// Stats snapshots the link's counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Remote = l.remote
	s.Phase = l.phase
	s.Depth = l.out.Depth()
	return s
}

// dumpState writes the link's protocol state for watchdog hang reports.
func (l *Link) dumpState(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	conn := "detached"
	if l.conn != nil {
		conn = "attached"
	}
	fmt.Fprintf(w, "  link %s: phase=%s conn=%s gen=%d out[next=%d cumack=%d depth=%d] in[next=%d] "+
		"sent=%d frames[tx=%d rx=%d] reconnects=%d replayed=%d waits=%d queue=%d\n",
		l.remote, l.phase, conn, l.gen, l.out.NextSeq(), l.out.CumAck(), l.out.Depth(),
		l.in.Next(), l.sent, l.stats.FramesSent, l.stats.FramesRecv,
		l.stats.Reconnects, l.stats.Replayed, l.stats.SendWaits, l.q.len())
}

// attachLocked installs a fresh conn after a completed handshake, with fresh
// codec halves: the peer's resume cursor acts as an implicit cumulative ack
// (everything below it was delivered), the write cursor rewinds so the
// journal suffix replays through the fresh encoder, and a reader owning the
// fresh decoder starts. From here on the link's writer is the only goroutine
// that writes the conn. Callers hold l.mu.
func (l *Link) attachLocked(conn Conn, peerResume uint64) {
	if l.closed {
		conn.Close()
		return
	}
	if l.conn != nil {
		// A replacement conn won the race (e.g. the dialer re-dialed while
		// our reader had not yet noticed the break): drop the old one; its
		// reader sees a stale gen and stands down.
		l.conn.Close()
	}
	l.gen++
	l.conn = conn
	l.enc = wire.NewBinaryEncoder()
	l.phase = "connected"
	if peerResume > 0 {
		if l.attachN == 0 && peerResume > l.sent+1 {
			l.fastForwardLocked(peerResume)
		}
		if l.sent >= peerResume {
			// Written before (or journaled by a previous life) and never
			// delivered: this conn sends those again.
			l.stats.Replayed += uint64(len(l.out.UnackedAfter(peerResume-1)) - len(l.out.UnackedAfter(l.sent)))
		}
		l.out.Ack(l.remote, peerResume-1)
		l.sent = peerResume - 1
	}
	if l.attachN++; l.attachN > 1 {
		l.stats.Reconnects++
	}
	l.mu.Broadcast()
	l.mesh.wg.Add(1)
	go l.reader(conn, l.gen, wire.NewBinaryDecoder())
}

// fastForwardLocked reconciles this process life's first handshake with a
// peer whose resume cursor is past everything the link remembers sending:
// a previous life sent frames up to there and the record of it is gone (an
// unsynced WAL tail, or an in-memory link's process restarted). Whatever
// this life queued since it started, beginning at l.sent+1, reuses numbers
// the peer already consumed and would be deduped unseen, so those frames
// move up to start at the peer's cursor and the sequence space continues
// from there; everything older is below the cursor, hence delivered. No
// conn has carried this life's frames yet, so renumbering them is safe.
// Callers hold l.mu.
func (l *Link) fastForwardLocked(peerResume uint64) {
	shift := peerResume - (l.sent + 1)
	queued := append([]Entry(nil), l.out.UnackedAfter(l.sent)...)
	for i := range queued {
		queued[i].Seq += shift
		queued[i].Frame.Seq = queued[i].Seq
	}
	l.out.Restore(peerResume-1, l.out.NextSeq()+shift, queued)
	if l.dur != nil {
		l.dur.journalAckOut(peerResume - 1)
	}
	for _, e := range queued {
		l.journalSendLocked(e.Frame)
	}
}

// detachLocked drops the current conn after an error; the writer pauses
// and the dial loop (or the next inbound handshake) reconnects. Callers
// hold l.mu.
func (l *Link) detachLocked() {
	if l.conn != nil {
		l.conn.Close()
		l.conn, l.enc = nil, nil
	}
	if !l.closed {
		l.phase = "reconnecting"
	}
	l.mu.Broadcast()
}

// closeLocked finishes the link: conn down, senders woken with ErrClosed,
// dispatch queue released. Callers hold l.mu.
func (l *Link) closeLocked() {
	if l.closed {
		return
	}
	l.closed = true
	l.phase = "closed"
	if l.conn != nil {
		l.conn.Close()
		l.conn, l.enc = nil, nil
	}
	l.mu.Broadcast()
	l.q.close()
}

// writer is the link's single outbound pump and the only goroutine that
// writes an attached conn: whenever a conn is attached and a LinkAck is due
// or the journal holds frames past the write cursor, it writes the ack,
// then up to linkAckEvery journal frames rendered through the conn's
// encoder, in order, and looks again. Keeping one writer per link preserves
// sequence order across replays — and, because only it encodes, the order
// of each conn's dictionary deltas.
func (l *Link) writer() {
	defer l.mesh.wg.Done()
	var buf []byte // wire image of the frame being written; conns do not retain it
	l.mu.Lock()
	for {
		for !l.closed && (l.conn == nil || (l.sent+1 >= l.out.NextSeq() && l.ackOwed <= l.ackSent)) {
			l.mu.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		conn, gen, enc := l.conn, l.gen, l.enc
		var batch []Entry
		var ack uint64
		if l.ackOwed > l.ackSent {
			ack = l.in.Next() - 1
			batch = append(batch, Entry{Frame: &Frame{Type: FrameLinkAck, Ack: ack}})
		}
		pending := l.out.UnackedAfter(l.sent)
		batch = append(batch, pending[:min(len(pending), linkAckEvery)]...)
		l.mu.Unlock()

		wrote, bytes := 0, 0
		var sum LinkStats
		var last uint64
		var err error
		for _, e := range batch {
			buf = l.appendWire(buf[:0], e.Frame, enc, &sum)
			if err = conn.WriteFrame(buf); err != nil {
				break
			}
			wrote++
			bytes += len(buf) + 4
			last = e.Seq
		}

		l.mu.Lock()
		l.stats.FramesSent += uint64(wrote)
		l.stats.BytesSent += uint64(bytes)
		l.stats.EncodedItems += sum.EncodedItems
		l.stats.EncodedXMLBytes += sum.EncodedXMLBytes
		l.stats.EncodedWireBytes += sum.EncodedWireBytes
		if l.gen == gen {
			if last > l.sent {
				l.sent = last
			}
			if ack > l.ackSent && wrote > 0 {
				l.ackSent = ack
				l.mu.Broadcast() // WaitDrained waits for owed acks
			}
			if err != nil {
				l.detachLocked()
			}
		}
	}
}

// reader drains one conn: BatchBin frames are decoded through the conn's
// own decoder, sequenced frames are deduped against the receive cursor,
// marked for a cumulative ack, and handed to the dispatch queue; LinkAcks
// trim the journal and wake blocked senders. It never writes, so nothing
// the peer does stops it draining. A read or decode error detaches the conn
// (if it is still the current one) and ends the reader.
func (l *Link) reader(conn Conn, gen int, dec *wire.BinaryDecoder) {
	defer l.mesh.wg.Done()
	for {
		payload, err := conn.ReadFrame()
		if err != nil {
			l.teardown(conn, gen)
			return
		}
		f, err := DecodeFrame(payload)
		if err != nil || f.Type == FrameBatch {
			// Protocol corruption — a plain Batch is the journal's form of a
			// batch, never a conn's: drop the conn, let replay re-deliver.
			l.teardown(conn, gen)
			return
		}
		var xmlBytes, wireBytes int
		if f.Type == FrameBatchBin {
			wireBytes = len(f.Data)
			// Decoded before the dedup cursor sees the frame and outside
			// l.mu: the dictionary is this conn's alone, so it advances once
			// per frame the conn carries whatever the cursor then decides. A
			// decode error drops the conn before the cursor moves, and the
			// peer's journal replays the frame through a fresh dictionary.
			if xmlBytes, err = l.decodeBatch(f, dec); err != nil {
				l.teardown(conn, gen)
				return
			}
		}
		l.mu.Lock()
		if l.gen != gen {
			// A newer conn replaced this one mid-read: applying this frame
			// could ack or advance state the fresh attachment already
			// rewound. Stand down without touching anything.
			l.mu.Unlock()
			l.teardown(conn, gen)
			return
		}
		l.stats.FramesRecv++
		l.stats.BytesRecv += uint64(len(payload) + 4)
		if f.Seq == 0 {
			if f.Type == FrameLinkAck {
				if l.out.Ack(l.remote, f.Ack) > 0 {
					l.mu.Broadcast()
				}
				if l.dur != nil {
					l.dur.journalAckOut(f.Ack)
				}
			}
			l.mu.Unlock()
			continue
		}
		if _, ok := l.in.Accept(0, f.Seq, f.Seq); !ok {
			l.mu.Unlock() // duplicate from a reconnect replay
			continue
		}
		if wireBytes > 0 {
			l.stats.DecodedItems += uint64(len(f.Elems))
			l.stats.DecodedXMLBytes += uint64(xmlBytes)
			l.stats.DecodedWireBytes += uint64(wireBytes)
		}
		if l.dur != nil {
			if f.Type == FrameAck {
				// Recovery never re-dispatches stream-level acks (they
				// refer to pre-crash channel state), so only the cursor
				// advance needs to survive — not the payload.
				l.dur.journalRecvMark(f.Seq)
			} else {
				// Journal before dispatch: once we ack this sequence the
				// peer trims it, so our own journal must be able to
				// re-deliver it after a crash.
				l.dur.journalRecv(f.Seq, AppendFrame(nil, f))
			}
		}
		if f.Seq-l.ackSent >= linkAckEvery {
			l.requestAckLocked()
		}
		// Enqueued under the lock that accepted it: a replaced conn's reader
		// descheduled between the two would otherwise let its successor
		// dispatch the next sequence first.
		l.q.push(f)
		l.mu.Unlock()
	}
}

// teardown detaches a conn after a reader error unless a newer conn
// already replaced it.
func (l *Link) teardown(conn Conn, gen int) {
	conn.Close()
	l.mu.Lock()
	if l.gen == gen && l.conn == conn {
		l.detachLocked()
	}
	l.mu.Unlock()
}

// requestAck marks a cumulative LinkAck due for every frame accepted so far
// and wakes the writer, which sends it ahead of its next journal frames: the
// dispatcher asks whenever its queue runs dry, the mesh acker on its tick,
// and WaitDrained before it waits. A lost ack is covered by the next one, or
// by the resume cursor of the next handshake.
func (l *Link) requestAck() {
	l.mu.Lock()
	l.requestAckLocked()
	l.mu.Unlock()
}

// requestAckLocked is requestAck for callers that hold l.mu (the reader,
// every linkAckEvery frames).
func (l *Link) requestAckLocked() {
	if n := l.in.Next() - 1; n > l.ackOwed {
		l.ackOwed = n
		l.mu.Broadcast()
	}
}

// dialLoop runs on the dialing side: whenever the link has no conn, dial
// the remote, run the Hello/Welcome handshake, and attach. Failures back
// off exponentially with jitter (capped at the mesh's MaxBackoff) until
// Close.
func (l *Link) dialLoop() {
	defer l.mesh.wg.Done()
	backoff := 2 * time.Millisecond
	maxBackoff := l.mesh.maxBackoff
	for {
		l.mu.Lock()
		for !l.closed && l.conn != nil {
			l.mu.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		l.phase = "dialing"
		resume := l.in.Next()
		l.mu.Unlock()

		conn, err := l.mesh.tr.Dial(l.addr)
		if err == nil {
			l.mu.Lock()
			l.phase = "handshake"
			l.mu.Unlock()
			l.mesh.trackPending(conn, true)
			var peerResume uint64
			peerResume, err = l.handshakeDial(conn, resume)
			l.mesh.trackPending(conn, false)
			if err == nil {
				l.mu.Lock()
				l.attachLocked(conn, peerResume)
				l.mu.Unlock()
				backoff = 2 * time.Millisecond
				continue
			}
			conn.Close()
		}
		// Jittered sleep in [backoff/2, backoff]: dialers racing a healed
		// partition (or a restarted peer) spread out instead of stampeding
		// in lockstep.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-l.mesh.done:
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// handshakeDial runs the dialer's half of the handshake: send Hello with
// our identity and resume cursor, require a version- and name-matching
// Welcome — anything else is refused, with the reason left in the flight
// recorder — and return the acceptor's resume cursor. Nothing else is
// negotiated: the conn's dictionaries start empty on both sides.
//
// The mesh's handshake timeout bounds the Welcome read so a half-open
// acceptor cannot wedge the dial loop.
func (l *Link) handshakeDial(conn Conn, resume uint64) (uint64, error) {
	hello := &Frame{Type: FrameHello, Version: ProtocolVersion, Node: l.mesh.node, Resume: resume}
	if hs := l.mesh.hsTimeout; hs > 0 {
		conn.SetReadDeadline(time.Now().Add(hs)) //nolint:errcheck // a failed deadline surfaces as a read error
		defer conn.SetReadDeadline(time.Time{})  //nolint:errcheck // cleared best-effort; reads own their deadlines
	}
	if err := conn.WriteFrame(EncodeFrame(hello)); err != nil {
		return 0, err
	}
	payload, err := conn.ReadFrame()
	if err != nil {
		return 0, err
	}
	f, err := DecodeFrame(payload)
	if err != nil {
		return 0, err
	}
	if f.Type != FrameWelcome {
		return 0, fmt.Errorf("transport: handshake: expected welcome, got %s", f.Type)
	}
	if f.Version != ProtocolVersion {
		return 0, l.mesh.refuse(f, "version mismatch")
	}
	if f.Node != l.remote {
		return 0, l.mesh.refuse(f, fmt.Sprintf("dialed %q", l.remote))
	}
	return f.Resume, nil
}

// frameQueue decouples the conn reader from frame handling: the reader
// must always drain the conn (link acks travel in-band), so handler
// work — which may itself block sending on other links — runs on a
// dedicated dispatcher goroutine fed by this unbounded FIFO.
type frameQueue struct {
	mu     chanLock
	q      []*Frame
	closed bool
}

func newFrameQueue() *frameQueue { return &frameQueue{} }

func (q *frameQueue) push(f *Frame) {
	q.mu.Lock()
	if !q.closed {
		q.q = append(q.q, f)
		q.mu.Broadcast()
	}
	q.mu.Unlock()
}

func (q *frameQueue) pop() (*Frame, bool) {
	q.mu.Lock()
	for len(q.q) == 0 && !q.closed {
		q.mu.Wait()
	}
	if len(q.q) == 0 {
		q.mu.Unlock()
		return nil, false
	}
	f := q.q[0]
	q.q[0] = nil
	q.q = q.q[1:]
	q.mu.Unlock()
	return f, true
}

func (q *frameQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Broadcast()
	q.mu.Unlock()
}

func (q *frameQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q)
}

// dispatcher feeds queued frames to the mesh handler in arrival order.
// On durable links a control frame's completion is journaled after its
// handler returns: recovery then re-dispatches only the controls the
// crash interrupted, which under SyncAlways makes control application
// exactly-once across process death. A dispatcher that finds its queue empty
// asks for an ack of everything accepted so far, so a sender's journal
// drains one round trip after its last frame is handled, not at the next
// acker tick.
func (l *Link) dispatcher() {
	defer l.mesh.wg.Done()
	for {
		f, ok := l.q.pop()
		if !ok {
			return
		}
		l.mesh.handler(l.remote, f)
		if l.dur != nil && f.Type == FrameControl && f.Seq > 0 {
			l.mu.Lock()
			l.dur.journalCtl(f.Seq)
			l.mu.Unlock()
		}
		if l.q.len() == 0 {
			l.requestAck()
		}
	}
}
