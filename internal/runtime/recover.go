package runtime

import (
	"fmt"

	"streamshare/internal/core"
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/xmlstream"
)

// This file is the replay half of the reliability layer. After a failure
// breaks channels (their buffers keep journaling retained emissions) and
// the engine re-plans the affected subscriptions, Recover diffs the
// session's bind records against the engine's current plan and, per
// re-bound input, transplants the interrupted run's operator state into
// fresh instances of the new chain, then replays every journaled unit the
// reader never acknowledged — deepest journal first, each entry entering the
// new chain at the offset matching how far it had travelled through the old
// one. Transplanted state makes the replay exact: an op's state already
// reflects precisely the items that passed it, so re-running only the
// unacknowledged suffix neither drops nor duplicates.

// RecoveryReport summarizes one Recover pass.
type RecoveryReport struct {
	// Inputs is the number of subscription inputs that were re-bound and
	// replayed.
	Inputs int
	// Items counts redelivered result items across all subscriptions.
	Items int
	// Bytes counts feed-level bytes re-sent over the new routes.
	Bytes int
	// Results counts redelivered result items per subscription id — add
	// them to the interrupted run's counts for the complete delivery.
	Results map[string]int
	// Collected holds the redelivered items per subscription id.
	Collected map[string][]*xmlstream.Element
	// Skipped lists journal levels that could not be replayed (operator
	// chains whose shapes did not line up), as "subID/stream@level".
	Skipped []string
	// Unpaired lists the re-bound inputs ("subID/stream") whose retired
	// stateful operators did not pair with the replacement's: their replay
	// started from fresh operator state.
	Unpaired []string
}

// String renders the report in one line.
func (rp *RecoveryReport) String() string {
	return fmt.Sprintf("recovered %d inputs, %d items, %d bytes, %d skipped, %d unpaired",
		rp.Inputs, rp.Items, rp.Bytes, len(rp.Skipped), len(rp.Unpaired))
}

// Recover replays journaled, unacknowledged units into the engine's
// repaired plan and returns what was redelivered. Call it after the engine
// (or adapt.Manager) re-planned around the failure and before the next
// Runtime attaches. It is idempotent per repair: bind records update as
// inputs are replayed, so a second call finds nothing re-bound.
func (s *Session) Recover(eng *core.Engine) (*RecoveryReport, error) {
	rp := &RecoveryReport{
		Results:   map[string]int{},
		Collected: map[string][]*xmlstream.Element{},
	}
	reg := eng.Obs().Metrics
	nm := network.NewMetrics()
	// Journal segments already replayed through retired operators this
	// pass: a second subscription replaying the same segment would advance
	// the same retired stateful operators twice, so it is skipped instead.
	replayedOld := map[oldReplayKey]bool{}
	for _, rd := range eng.Plan().Readers {
		s.mu.Lock()
		old := s.binds[rd.ID]
		s.mu.Unlock()
		if old == nil || old.Feed.ID == rd.Feed.ID {
			continue
		}
		s.recoverInput(old, rd, rp, nm, reg, replayedOld)
		s.mu.Lock()
		s.binds[rd.ID] = rd
		s.mu.Unlock()
		rp.Inputs++
	}
	if rp.Items > 0 {
		reg.Counter("runtime.redelivered.items").Add(float64(rp.Items))
		reg.Counter("runtime.redelivered.bytes").Add(float64(rp.Bytes))
	}
	if rp.Inputs > 0 {
		reg.Counter("runtime.recovered.inputs").Add(float64(rp.Inputs))
		nm.Publish(reg, "recover")
	}
	return rp, nil
}

// journalLevel is one level of an old derivation chain during replay.
type journalLevel struct {
	d *core.PlanStream
	// offset is where this level's items enter the new operator chain.
	offset int
	// consumer is the cursor that says how far this level was consumed.
	consumer string
	// oldOps, when non-nil, replaces the new chain for this level: the
	// retired chain's remaining residual operators, flattened in stream
	// order. Used when the level's items already passed a stateful operator
	// and the chains do not tile — the retired instances are the only ones
	// whose state matches the items' frontier (transplant copies state, it
	// never steals, so they still hold it). The replacement chain's own
	// stateful state does not learn of these items; windows still open
	// across the failure undercount them — delivering the items at all takes
	// priority over that sliver.
	oldOps *exec.Pipeline
}

// oldReplayKey identifies one journal segment — a channel and the consumer
// cursor it is replayed beyond — routed through retired operators.
type oldReplayKey struct {
	stream   string
	consumer string
}

// chainPipelines returns the operator instances the last attached run drove
// along a stream's derivation chain, upstream first (the original's residual
// down to the stream's own); nil where that run drove none.
func (s *Session) chainPipelines(d *core.PlanStream) []*exec.Pipeline {
	var out []*exec.Pipeline
	for x := d; x != nil; x = x.Parent {
		out = append([]*exec.Pipeline{s.held[x.ID]}, out...)
	}
	return out
}

// transplantInput hands the operator state the interrupted run left in a
// retired (feed, local) chain to fresh instances of its replacement, and
// accounts the outcome. Ancestors the replacement still derives from are
// excluded on both sides.
func (s *Session) transplantInput(old, rd *core.PlanReader, res, loc *exec.Pipeline, rp *RecoveryReport, reg *obs.Registry) {
	oldChain := append(s.chainPipelines(old.Feed), s.held[old.ID])
	if exec.Transplant(oldChain, s.chainPipelines(rd.Feed.Parent), []*exec.Pipeline{res, loc}) {
		reg.Counter("runtime.recovered.transplanted").Inc()
		return
	}
	rp.Unpaired = append(rp.Unpaired, rd.ID)
	reg.Counter("runtime.recovered.fresh_state").Inc()
}

// recoverInput replays one re-bound subscription input from the old
// chain's journals through fresh instances of the new chain.
func (s *Session) recoverInput(old, rd *core.PlanReader, rp *RecoveryReport, nm *network.Metrics, reg *obs.Registry, replayedOld map[oldReplayKey]bool) {
	res, loc := rd.Feed.Residual.Instance(), rd.Local.Instance()
	s.transplantInput(old, rd, res, loc, rp, reg)
	// Old derivation chain, original first.
	var chain []*core.PlanStream
	for d := old.Feed; d != nil; d = d.Parent {
		chain = append([]*core.PlanStream{d}, chain...)
	}
	newOps := res.Ops
	// Entry offsets into the new chain per level: level i's items already
	// passed the residuals of chain[1..i]. The deepest level (the old
	// feed) and the original are always safe — all ops or none. Middle
	// levels enter by op-count tiling when the old chain's residuals tile
	// the new one exactly; when minimization merged ops and the counts do
	// not tile, a level whose traversed prefix is entirely stateless can
	// still re-enter at offset 0 — re-applying an already-satisfied select
	// or an already-narrowed projection is idempotent, and every stateful
	// op in the new chain sees the item exactly once (its old counterpart
	// sat below the item's death point, so the transplanted state excludes
	// it). Only a mid-level item that already passed a stateful op in a
	// misaligned chain has no safe entry and is skipped.
	offsets := make([]int, len(chain))
	stateless := make([]bool, len(chain)) // chain[1..i] residuals all pure?
	sum, pure := 0, true
	for i := 1; i < len(chain); i++ {
		sum += len(chain[i].Residual.Ops)
		offsets[i] = sum
		for _, op := range chain[i].Residual.Ops {
			if exec.Stateful(op) {
				pure = false
				break
			}
		}
		stateless[i] = pure
	}
	aligned := sum == len(newOps)
	levels := make([]journalLevel, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		lv := journalLevel{d: chain[i], offset: offsets[i]}
		switch {
		case i == len(chain)-1:
			lv.offset = len(newOps) // feed-level items: local pipeline only
			lv.consumer = rd.ID
		case i == 0:
			lv.offset = 0 // raw original items: the full new chain
			lv.consumer = chain[1].ID
		default:
			lv.consumer = chain[i+1].ID
			if !aligned {
				switch {
				case stateless[i]:
					lv.offset = 0 // pure prefix: re-enter from the top
				case !replayedOld[oldReplayKey{chain[i].ID, lv.consumer}]:
					// The items already passed a stateful operator: finish
					// their journey through the retired chain's remaining
					// residuals, whose state still matches their frontier.
					replayedOld[oldReplayKey{chain[i].ID, lv.consumer}] = true
					lv.oldOps = exec.NewPipeline()
					for j := i + 1; j < len(chain); j++ {
						p := s.held[chain[j].ID]
						if p == nil {
							p = chain[j].Residual.Instance()
						}
						lv.oldOps.Ops = append(lv.oldOps.Ops, p.Ops...)
					}
				default:
					rp.Skipped = append(rp.Skipped,
						fmt.Sprintf("%s@%s", rd.ID, chain[i].ID))
					continue
				}
			}
		}
		levels = append(levels, lv)
	}

	// replay pushes batch through ops[off:] — draining them too, with flush —
	// and what comes out, the feed-level items, through the local pipeline.
	var outs []*xmlstream.Element
	feedBytes := 0
	replay := func(ops *exec.Pipeline, off int, batch []*xmlstream.Element, flush bool) {
		feed, _ := ops.Eval(off, batch, flush, nil)
		for _, f := range feed {
			feedBytes += xmlstream.MarshalSize(f)
		}
		out, _ := loc.Eval(0, feed, flush, nil)
		outs = append(outs, out...)
	}
	flushOff := -1
	var flushOld *exec.Pipeline
	for _, lv := range levels {
		s.mu.Lock()
		c := s.chans[lv.d.ID]
		s.mu.Unlock()
		if c == nil {
			continue
		}
		c.mu.Lock()
		pend := c.st.UnackedAfter(c.st.Cursor(lv.consumer))
		batch := make([]*xmlstream.Element, 0, len(pend))
		for _, e := range pend {
			if e.EOS {
				// A pending end-of-stream exists at exactly one level per
				// chain: a child that never processed it never emitted one
				// into the deeper journals.
				if lv.oldOps != nil {
					flushOld = lv.oldOps
				} else if flushOff < 0 || lv.offset < flushOff {
					flushOff = lv.offset
				}
				continue
			}
			batch = append(batch, e.Elem)
		}
		c.mu.Unlock()
		if lv.oldOps != nil {
			replay(lv.oldOps, 0, batch, false)
		} else {
			replay(res, lv.offset, batch, false)
		}
	}
	if flushOld != nil {
		replay(flushOld, 0, nil, true)
	} else if flushOff >= 0 {
		replay(res, flushOff, nil, true)
	}

	if len(outs) > 0 {
		rp.Results[rd.Sub] += len(outs)
		rp.Collected[rd.Sub] = append(rp.Collected[rd.Sub], outs...)
		rp.Items += len(outs)
	}
	// Redelivery traffic travels the new feed's route.
	if feedBytes > 0 {
		rp.Bytes += feedBytes
		route := rd.Feed.Route
		for h := 1; h < len(route); h++ {
			nm.AddTraffic(network.MakeLinkID(route[h-1], route[h]), float64(feedBytes))
		}
	}
}
