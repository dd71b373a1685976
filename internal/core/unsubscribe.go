package core

import "fmt"

// Unsubscribe removes a continuous query from the system. Streams that were
// deployed solely to feed it — and, transitively, their parents once no
// consumer remains — are torn down, and the analytic bandwidth and load
// their plans reserved is released, making room for future subscriptions
// under admission control.
//
// The paper treats subscriptions as long-lived (§4) and does not specify
// deregistration; this is the natural inverse of plan installation.
func (e *Engine) Unsubscribe(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	idx := -1
	for i, s := range e.subs {
		if s.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: unknown subscription %q", id)
	}
	sub := e.subs[idx]
	e.subs = append(e.subs[:idx], e.subs[idx+1:]...)
	for _, si := range sub.Inputs {
		e.release(si.Feed)
	}
	e.epoch++
	e.m.unsubTotal.Inc()
	e.publishUse()
	return nil
}

// release removes a deployed stream if nothing consumes it anymore, then
// tries its parent.
func (e *Engine) release(d *Deployed) {
	if d == nil || d.Original || e.hasConsumers(d) {
		return
	}
	if e.removeDeployed(d) {
		e.m.released.Inc()
	}
	e.withdraw(d)
	e.release(d.Parent)
}

// reserve adds a stream's footprint to the running usage totals.
func (e *Engine) reserve(d *Deployed) {
	for l, b := range d.LinkAdd {
		e.linkUse[l] += b
	}
	for p, w := range d.PeerAdd {
		e.peerUse[p] += w
	}
}

// withdraw takes a stream's footprint out of the running usage totals,
// clamping rounding residue to zero.
func (e *Engine) withdraw(d *Deployed) {
	for l, b := range d.LinkAdd {
		if e.linkUse[l] -= b; e.linkUse[l] < 1e-9 {
			e.linkUse[l] = 0
		}
	}
	for p, w := range d.PeerAdd {
		if e.peerUse[p] -= w; e.peerUse[p] < 1e-9 {
			e.peerUse[p] = 0
		}
	}
}

// hasConsumers reports whether any subscription reads d or any deployed
// stream derives from it.
func (e *Engine) hasConsumers(d *Deployed) bool {
	for _, s := range e.subs {
		for _, si := range s.Inputs {
			if si.Feed == d {
				return true
			}
		}
	}
	return e.hasChildren(d)
}
