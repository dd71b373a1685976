package transport

import (
	"encoding/binary"
	"fmt"

	"streamshare/internal/durable"
)

// Link journal record kinds (see DESIGN.md "Durability" for the grammar).
// Every multi-byte field is a big-endian fixed-width u64, and a frame is its
// AppendFrame encoding — a batch as a plain Batch, each item its canonical
// XML, the one place outside the wire codec's raw fallback where that is
// materialized: a journal must outlive the process, dictionaries and all.
// Kinds 1–8 belonged to the retired boot-incarnation layout and are never
// reused, so a journal written by that build is refused at recovery instead
// of misread.
const (
	durSend     uint8 = 9  // u64 seq | frame: journaled before emit
	durAckOut   uint8 = 10 // u64 cum: peer link-acked our seqs <= cum
	durRecv     uint8 = 11 // u64 seq | frame: journaled before dispatch
	durCtl      uint8 = 12 // u64 seq: control-frame handler completed
	durRecvMark uint8 = 13 // u64 next: receive cursor advance without a payload
	durBoundary uint8 = 14 // checkpoint: inbound frames before it are never re-dispatched
)

// linkDur is the WAL behind a durable link's Channel and RecvCursor: every
// outbound frame, link ack and accepted inbound frame is appended before
// the in-memory state moves, so a recovery scan rebuilds exactly that state
// and the link's one sequence space continues where the crashed process
// left it. Fields are guarded by the owning Link's mu (the WAL itself has
// its own lock).
type linkDur struct {
	wal     *durable.WAL
	ctlMark uint64 // highest peer control seq whose handler completed
}

// linkRecovery is what a journal scan hands Mesh.Connect: the outbound
// Channel's state and the inbound cursor with the frames to re-dispatch.
type linkRecovery struct {
	cumAck, nextSeq uint64
	unacked         []Entry  // journaled sends above cumAck
	recvNext        uint64   // next inbound sequence expected
	replay          []*Frame // inbound frames the crash left undispatched
}

// openLinkDur opens a link's journal and replays its records into the
// state the link resumes from.
func openLinkDur(opts durable.Options) (*linkDur, linkRecovery, error) {
	wal, recs, err := durable.Open(opts)
	if err != nil {
		return nil, linkRecovery{}, err
	}
	d := &linkDur{wal: wal}
	rec := linkRecovery{nextSeq: 1, recvNext: 1}
	var (
		sends []Entry
		tail  []*Frame // inbound frames since the last boundary
	)
	for _, r := range recs {
		var v uint64 // every kind but the boundary leads with one u64
		if len(r.Data) >= 8 {
			v = binary.BigEndian.Uint64(r.Data)
		} else if r.Kind != durBoundary {
			continue // checksummed on disk; defensive only
		}
		switch r.Kind {
		case durSend, durRecv:
			f, err := DecodeFrame(r.Data[8:])
			if err != nil {
				continue // checksummed on disk; defensive only
			}
			if r.Kind == durSend {
				sends = append(sends, Entry{Seq: v, Frame: f})
				rec.nextSeq = max(rec.nextSeq, v+1)
			} else {
				tail = append(tail, f)
				rec.recvNext = max(rec.recvNext, v+1)
			}
		case durAckOut:
			rec.cumAck = max(rec.cumAck, v)
		case durCtl:
			d.ctlMark = max(d.ctlMark, v)
		case durRecvMark:
			rec.recvNext = max(rec.recvNext, v)
		case durBoundary:
			tail = nil
		default:
			wal.Close() //nolint:errcheck // the layout error wins
			return nil, linkRecovery{}, fmt.Errorf("transport: link journal %s holds record kind %d, which this build's layout "+
				"does not have (a build with boot incarnations wrote it?): recover it with that build or remove the directory", opts.Dir, r.Kind)
		}
	}
	rec.nextSeq = max(rec.nextSeq, rec.cumAck+1)
	for _, e := range sends {
		if e.Seq > rec.cumAck {
			rec.unacked = append(rec.unacked, e)
		}
	}
	for _, f := range tail {
		if !journaled(f) || f.Type == FrameControl && f.Seq <= d.ctlMark {
			continue // not kept, or a control whose handler completed before the crash
		}
		rec.replay = append(rec.replay, f)
	}
	return d, rec, nil
}

// journaled reports whether a durable link keeps f's payload in its journal.
// A stream-level ack (FrameAck) is a cumulative snapshot of live channel
// state: replayed onto the channels a recovery rebuilds it is stale at best
// and corrupts their cursors at worst, and losing one costs only retained
// buffer until live acks catch up. So a sent FrameAck is not journaled, a
// received one journals only its cursor advance (journalRecvMark), recovery
// re-dispatches none, and a checkpoint keeps none.
func journaled(f *Frame) bool { return f.Type != FrameAck }

// journalSend records an outbound frame before it enters the link's Channel.
func (d *linkDur) journalSend(seq uint64, frame []byte) {
	d.wal.AppendPair(durSend, beU64(seq), frame) //nolint:errcheck // sticky WAL error resurfaces on Close
}

// journalRecvMark consumes an inbound sequence without retaining its
// payload, for a frame the journal does not keep (journaled).
func (d *linkDur) journalRecvMark(seq uint64) {
	d.appendU64(durRecvMark, seq+1)
}

// journalRecv records an inbound sequenced frame before it is dispatched.
func (d *linkDur) journalRecv(seq uint64, frame []byte) {
	d.wal.AppendPair(durRecv, beU64(seq), frame) //nolint:errcheck // sticky WAL error resurfaces on Close
}

// journalAckOut records the peer's cumulative link ack: recovery drops the
// sends at or below it.
func (d *linkDur) journalAckOut(cum uint64) {
	d.appendU64(durAckOut, cum)
}

// journalCtl marks a peer control frame as fully applied: recovery will
// not re-dispatch it. Exactly-once control recovery requires SyncAlways —
// under the laxer policies the mark may be lost and the control replays.
func (d *linkDur) journalCtl(seq uint64) {
	d.appendU64(durCtl, seq)
	if seq > d.ctlMark {
		d.ctlMark = seq
	}
}

func (d *linkDur) appendU64(kind uint8, v uint64) {
	d.wal.Append(kind, beU64(v)) //nolint:errcheck // sticky WAL error resurfaces on Close
}

// snapshot condenses the journal for compaction: the owning link's live
// cursors, its Channel's unacked frames, and a boundary so recovered runs
// never re-dispatch frames the runtime already drained.
func (d *linkDur) snapshot(out *Channel, recvNext uint64) []durable.Record {
	recs := []durable.Record{
		{Kind: durAckOut, Data: beU64(out.CumAck())},
		{Kind: durRecvMark, Data: beU64(recvNext)},
		{Kind: durCtl, Data: beU64(d.ctlMark)},
	}
	for _, e := range out.UnackedAfter(out.CumAck()) {
		if journaled(e.Frame) {
			recs = append(recs, durable.Record{Kind: durSend, Data: AppendFrame(beU64(e.Seq), e.Frame)})
		}
	}
	return append(recs, durable.Record{Kind: durBoundary})
}

func beU64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
