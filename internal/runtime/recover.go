package runtime

import (
	"fmt"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/transport"
	"streamshare/internal/xmlstream"
)

// This file is the replay half of the reliability layer. A failure leaves the
// interrupted run at a consistent cut: every operator instance's state
// reflects exactly the items that passed it, and every item a consumer did not
// process sits in its parent's journal beyond that consumer's cursor (acks
// gate on forward completion, and a break drains parked batches into the
// journal and releases their gates). Recover finishes the run from that cut on
// the plan and instances it was running with, so each item passes each
// instance once, in stream order.

// RecoveryReport summarizes one Recover pass.
type RecoveryReport struct {
	// Inputs is the number of subscription inputs that had journaled units
	// to replay.
	Inputs int
	// Items counts redelivered result items across all subscriptions.
	Items int
	// Bytes counts feed-level bytes re-sent over the repaired routes.
	Bytes int
	// Results counts redelivered result items per subscription id — add
	// them to the interrupted run's counts for the complete delivery.
	Results map[string]int
	// Collected holds the redelivered items per subscription id.
	Collected map[string][]*xmlstream.Element
}

// String renders the report in one line.
func (rp *RecoveryReport) String() string {
	return fmt.Sprintf("recovered %d inputs, %d items, %d bytes", rp.Inputs, rp.Items, rp.Bytes)
}

// Recover finishes the last attached run on its own operator instances: it
// walks that run's plan parents first, feeds every derived stream's residual
// and every surviving reader's local pipeline the units its parent journaled
// beyond its cursor followed by what the parent's replay produced, and returns
// what the readers delivered. Readers the engine's current plan no longer
// holds are skipped; redelivered feed bytes are charged on their repaired
// routes. Call it after the engine (or adapt.Manager) re-planned around the
// failure and before the next Runtime attaches: afterwards the session holds
// nothing of the interrupted run, so the next run starts on fresh channels and
// a second call returns an empty report.
func (s *Session) Recover(eng *core.Engine) (*RecoveryReport, error) {
	s.mu.Lock()
	plan, inst, chans := s.plan, s.inst, s.chans
	s.plan, s.inst = nil, nil
	s.chans = map[string]*streamChan{}
	s.recvs = map[recvKey]*transport.RecvCursor{}
	s.mu.Unlock()
	rp := &RecoveryReport{
		Results:   map[string]int{},
		Collected: map[string][]*xmlstream.Element{},
	}
	if plan == nil {
		return rp, nil
	}

	// pending is what consumer has yet to see of d: the journal beyond its
	// cursor, then d's own replay output; eos when either ends the stream.
	replayed := make([][]*xmlstream.Element, len(plan.Streams))
	flushed := make([]bool, len(plan.Streams))
	pending := func(d *core.PlanStream, consumer string) (in []*xmlstream.Element, eos bool) {
		if c := chans[d.ID]; c != nil {
			c.mu.Lock()
			for _, e := range c.st.UnackedAfter(c.st.Cursor(consumer)) {
				if e.EOS {
					eos = true
				} else {
					in = append(in, e.Elem)
				}
			}
			c.mu.Unlock()
		}
		return append(in, replayed[d.Index]...), eos || flushed[d.Index]
	}
	for _, d := range plan.Streams {
		if d.Parent == nil {
			continue // an original's residual runs at its source, which never stops
		}
		if in, eos := pending(d.Parent, d.ID); len(in) > 0 || eos {
			out, _ := inst.Residual[d.Index].Eval(0, in, eos, nil)
			replayed[d.Index], flushed[d.Index] = append([]*xmlstream.Element(nil), out...), eos
		}
	}

	live := map[string]*core.PlanReader{}
	for _, rd := range eng.Plan().Readers {
		live[rd.ID] = rd
	}
	nm := network.NewMetrics()
	for _, rd := range plan.Readers {
		now := live[rd.ID]
		in, eos := pending(rd.Feed, rd.ID)
		if now == nil || len(in) == 0 && !eos {
			continue
		}
		rp.Inputs++
		feedBytes := 0
		for _, f := range in {
			feedBytes += xmlstream.MarshalSize(f)
		}
		if route := now.Feed.Route; feedBytes > 0 {
			rp.Bytes += feedBytes
			for h := 1; h < len(route); h++ {
				nm.AddTraffic(network.MakeLinkID(route[h-1], route[h]), float64(feedBytes))
			}
		}
		out, _ := inst.Local[rd.Index].Eval(0, in, eos, nil)
		if len(out) > 0 {
			rp.Results[rd.Sub] += len(out)
			rp.Collected[rd.Sub] = append(rp.Collected[rd.Sub], out...)
			rp.Items += len(out)
		}
	}

	reg := eng.Obs().Metrics
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
