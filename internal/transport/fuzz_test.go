package transport

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"streamshare/internal/xmlstream"
)

// FuzzChannel drives the replay-buffer/ack/dedup state machine with random
// emit/ack/consumer-set/duplicate/reorder operations and diffs every
// observable against a map-based model: the replay buffer must hold exactly
// the emitted-but-not-min-acked suffix, credits must never over- or
// under-admit, a dropped consumer must stop holding the trim point, and the
// receiver must deliver every (epoch, seq) exactly once regardless of
// duplication and stale-epoch replays.
func FuzzChannel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 0, 0, 4, 1})
	f.Add([]byte{1, 5, 2, 9, 0, 0, 3, 3, 3, 3, 0, 1, 2})
	f.Add([]byte{4, 4, 4, 0, 1, 5, 0, 2, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const window = 6
		c := NewChannel(1, window)
		names := []string{"a", "b", "c"}
		c.AddConsumer("a")
		c.AddConsumer("b")

		// Model state. floor is the trim point, which only a consumer's ack
		// or a dropped consumer moves, and which stays put while the
		// channel has no consumers.
		emitted := map[uint64]*xmlstream.Element{} // seq → item
		var lastSeq, floor uint64
		acked := map[string]uint64{"a": 0, "b": 0}
		minAck := func() uint64 {
			first := true
			for _, v := range acked {
				if first || v < floor {
					floor, first = v, false
				}
			}
			return floor
		}

		// Receiver model: delivered seqs per epoch for the dedup lane.
		var rs RecvCursor
		delivered := map[string]bool{}
		var recvEpoch, recvHi uint64 = 1, 0

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, uint64(ops[i+1])
			switch op {
			case 0: // emit one unit, respecting admission like the runtime does
				if !c.Admit(1) {
					// The model agrees the window is exhausted.
					if int(lastSeq-minAck()) < window {
						t.Fatalf("op %d: admission refused with %d unacked (window %d)",
							i, lastSeq-minAck(), window)
					}
					continue
				}
				data := xmlstream.T("p", fmt.Sprint(arg))
				seq := c.Emit(data, false)
				lastSeq++
				if seq != lastSeq {
					t.Fatalf("op %d: emit seq %d, model %d", i, seq, lastSeq)
				}
				emitted[seq] = data
				if len(acked) > 0 && int(lastSeq-minAck()) > window {
					t.Fatalf("op %d: window violated: %d unacked", i, lastSeq-minAck())
				}
			case 1: // cumulative ack by one consumer, registered or not
				cn := names[int(arg)%len(names)]
				seq := arg % (lastSeq + 2) // may exceed frontier or be stale
				if seq > lastSeq {
					seq = lastSeq
				}
				before := minAck()
				freed := c.Ack(cn, seq)
				if cur, ok := acked[cn]; ok && seq > cur {
					acked[cn] = seq
				}
				if want := int(minAck() - before); freed != want {
					t.Fatalf("op %d: ack freed %d, model %d", i, freed, want)
				}
			case 2: // receiver: in-order delivery of the next pending batch
				if recvHi >= lastSeq {
					continue
				}
				lo := recvHi + 1
				hi := lo + arg%3
				if hi > lastSeq {
					hi = lastSeq
				}
				skip, ok := rs.Accept(recvEpoch, lo, hi)
				if !ok || skip != 0 {
					t.Fatalf("op %d: fresh delivery [%d,%d] skip=%d ok=%v", i, lo, hi, skip, ok)
				}
				for s := lo; s <= hi; s++ {
					key := fmt.Sprintf("%d/%d", recvEpoch, s)
					if delivered[key] {
						t.Fatalf("op %d: seq %d delivered twice", i, s)
					}
					delivered[key] = true
				}
				recvHi = hi
			case 3: // receiver: duplicate/overlapping replay of an old range
				if recvHi == 0 {
					continue
				}
				lo := 1 + arg%recvHi
				hi := lo + arg%2
				skip, ok := rs.Accept(recvEpoch, lo, hi)
				if hi <= recvHi {
					if ok {
						t.Fatalf("op %d: full duplicate [%d,%d] accepted", i, lo, hi)
					}
				} else {
					// Overlap: only the unseen suffix may be delivered.
					if !ok || uint64(skip) != recvHi-lo+1 {
						t.Fatalf("op %d: overlap [%d,%d] skip=%d ok=%v hi=%d", i, lo, hi, skip, ok, recvHi)
					}
					for s := recvHi + 1; s <= hi; s++ {
						delivered[fmt.Sprintf("%d/%d", recvEpoch, s)] = true
					}
					recvHi = hi
				}
			case 4: // stale-epoch replay must be dropped wholesale
				if recvHi == 0 {
					continue // lane not primed: epoch 0 is still current
				}
				if _, ok := rs.Accept(recvEpoch-1, 1, 1+arg%5); ok {
					t.Fatalf("op %d: stale epoch accepted", i)
				}
			case 5: // the consumer set becomes the names arg's low bits pick
				var set []string
				for j, cn := range names {
					if arg&(1<<j) != 0 {
						set = append(set, cn)
					}
				}
				c.SetConsumers(set)
				for cn := range acked {
					if !slices.Contains(set, cn) {
						delete(acked, cn)
					}
				}
				trim := minAck()
				for _, cn := range set {
					if _, ok := acked[cn]; !ok {
						acked[cn] = trim
					}
				}
			}

			// Invariants after every op.
			if got, want := c.Depth(), int(lastSeq-minAck()); got != want {
				t.Fatalf("op %d: buffer depth %d, model %d", i, got, want)
			}
			if c.CumAck() != minAck() {
				t.Fatalf("op %d: cumAck %d, model %d", i, c.CumAck(), minAck())
			}
			for _, e := range c.UnackedAfter(0) {
				if emitted[e.Seq] != e.Elem {
					t.Fatalf("op %d: buffer seq %d holds %v, model %v", i, e.Seq, e.Elem, emitted[e.Seq])
				}
			}
		}
	})
}

// FuzzFrame round-trips the length-prefixed frame codec: arbitrary input
// must either decode into a frame that re-encodes to a fixed point — a
// batch's element trees coming back Equal — or fail with ErrFrame, a batch
// item that is not XML included; never panic, and never allocate beyond the
// input's own size (corrupt counts and lengths are bounded against the
// remaining bytes).
func FuzzFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(EncodeFrame(fr))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(FrameBatch), 0xFF, 0xFF, 0xFF})
	f.Add([]byte{6, 0, 0xFE, 0x01})
	f.Add(malformedItemBatch())
	f.Add(v3Heartbeat())
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeFrame(payload)
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("decode error %v does not wrap ErrFrame", err)
			}
			return
		}
		// Valid decode: the canonical re-encode must itself decode, and
		// canonicalization must be a fixed point (the input may use
		// non-minimal varints and any XML spelling of an item; the first
		// re-encode normalizes them).
		again := EncodeFrame(fr)
		fr2, err := DecodeFrame(again)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if third := EncodeFrame(fr2); string(third) != string(again) {
			t.Fatalf("canonical encoding unstable:\n1: %x\n2: %x", again, third)
		}
		if fr2.Type != fr.Type || fr2.Seq != fr.Seq || len(fr2.Elems) != len(fr.Elems) {
			t.Fatalf("unstable decode: %v/%d/%d vs %v/%d/%d", fr.Type, fr.Seq, len(fr.Elems), fr2.Type, fr2.Seq, len(fr2.Elems))
		}
		for i, e := range fr.Elems {
			if !e.Equal(fr2.Elems[i]) {
				t.Fatalf("item %d changed across a re-encode: %s vs %s", i, xmlstream.Marshal(e), xmlstream.Marshal(fr2.Elems[i]))
			}
		}
	})
}
