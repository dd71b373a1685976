package runtime

import (
	"strconv"

	"streamshare/internal/core"
	"streamshare/internal/obs"
	"streamshare/internal/xmlstream"
)

// batcher accumulates items bound for hop 0 of one stream and flushes them
// as batched messages. Sources use one per original stream; taps use one
// per derived stream per incoming message (output batches never straddle
// input messages, so quiescence accounting stays exact: all sends triggered
// by a message happen before its in-flight slot is released).
//
// The batcher keeps the element pointers as handed in and prices each
// against the running MarshalSize total — no buffer, no serialization; the
// trees travel in the message and are shared read-only downstream.
type batcher struct {
	r      *Runtime
	stream *core.PlanStream
	// elems and xb are the batch state: the pending trees and their
	// canonical serialized size.
	elems []*xmlstream.Element
	xb    int
	// gate, in worker context (tap emissions under a reliable session),
	// is the ack gate parked batches hold open; nil in source context,
	// where the goroutine blocks on the channel window instead.
	gate *ackGate

	// Provenance sampling. Source batchers set sample: each added item is
	// tested against the runtime recorder's deterministic 1-in-N sampler and
	// a hit starts a span (at most one rides a batch; idx is the running
	// feed position). Tap batchers instead inherit a forked span from the
	// incoming batch. flushStage is the stage the span closes when its batch
	// flushes: StageBatch at sources (time spent buffered), StageEval at
	// taps (residual evaluation until first output flush).
	sample     bool
	idx        uint64
	span       *obs.Span
	flushStage obs.Stage
}

// add appends items to the current batch in order, flushing it whenever it
// reaches the configured size. A batch it opens is allocated at the size it
// will reach: the items left, at most the configured size.
func (b *batcher) add(items []*xmlstream.Element) {
	for i, e := range items {
		if b.elems == nil { // flush leaves it nil: this item opens a batch
			b.elems = make([]*xmlstream.Element, 0, min(len(items)-i, b.r.opts.BatchSize))
		}
		b.elems = append(b.elems, e)
		b.xb += xmlstream.MarshalSize(e)
		if b.sample {
			if b.r.lat.Sampled(b.stream.Source, b.idx) {
				// Every selected item starts a span (keeping the sampled set
				// identical to the simulator's), but only the first rides the
				// batch: in-batch neighbors would record near-identical deltas.
				sp := b.r.lat.Start(b.stream.Source, b.idx)
				if b.span == nil {
					b.span = sp
				}
			}
			b.idx++
		}
		if len(b.elems) >= b.r.opts.BatchSize {
			b.flush(false)
		}
	}
}

// flush sends the pending batch, if any; with eos it sends even when empty,
// carrying the end-of-stream marker. After flush the batcher is empty and
// ready for the next batch.
func (b *batcher) flush(eos bool) {
	if len(b.elems) == 0 && !eos {
		return
	}
	m := message{stream: b.stream, hop: 0, elems: b.elems, xb: b.xb, eos: eos}
	if b.span != nil {
		b.r.lat.Stamp(b.span, b.flushStage)
		m.span = b.span
		b.span = nil
		b.r.flight.Record("batch.flush",
			b.stream.ID+" items="+strconv.Itoa(len(m.elems))+" stage="+b.flushStage.String())
	}
	b.elems, b.xb = nil, 0
	b.r.dispatch(m, b.gate)
	if b.sample && b.r.afterBatch != nil {
		b.r.afterBatch(b.stream, b.idx)
	}
}
