package core

import (
	"fmt"
	"strings"

	"streamshare/internal/network"
)

// Catalog operation kinds. Subscribe and Unsubscribe replay through the
// engine itself; every other kind (adaptation schedules journaled by the
// server layer) is delegated to the ReplayCatalog apply callback.
const (
	// CatalogSubscribe records a successful Subscribe call.
	CatalogSubscribe = "subscribe"
	// CatalogUnsubscribe records a successful Unsubscribe call.
	CatalogUnsubscribe = "unsubscribe"
	// CatalogAdapt records an applied adaptation schedule (fail/restore/
	// reopt events); Detail carries the schedule in adapt syntax.
	CatalogAdapt = "adapt"
)

// CatalogOp is the one record of a control-plane mutation: what a catalog
// journal stores, what a cluster mirrors and what ReplayCatalog applies. The
// engine emits CatalogSubscribe/CatalogUnsubscribe ops through the
// SetJournal hook; layers above append their own kinds (CatalogAdapt) and
// handle them in the ReplayCatalog apply callback.
type CatalogOp struct {
	Kind string
	// ID is the subscription the op created (subscribe) or removed
	// (unsubscribe). On replay of a subscribe the freshly assigned id must
	// match — ids are issued from a deterministic sequence, so a mismatch
	// means the journal and the replayed topology diverged.
	ID string
	// Query, Target and Strategy reproduce a Subscribe call exactly.
	Query    string
	Target   network.PeerID
	Strategy Strategy
	// Detail carries kind-specific payload (the adapt schedule text).
	Detail string
}

// Catalog record kinds: the first byte of a record. The payload after it is
// line-oriented text — control-plane mutations are rare, and a journal or a
// control frame a person can read is worth more than a compact one.
const (
	catSub   uint8 = 1 // "<id> <target> <strategy-int>\n<query text>"
	catUnsub uint8 = 2 // "<id>"
	catAdapt uint8 = 3 // the applied schedule in adapt syntax ("fail:SP1; reopt")
)

// Record renders the op as its catalog record, kind byte first: what a
// catalog journal appends (kind rec[0], data rec[1:]) and what a cluster
// control frame carries.
func (op CatalogOp) Record() []byte {
	switch op.Kind {
	case CatalogSubscribe:
		return []byte(fmt.Sprintf("%c%s %s %d\n%s", catSub, op.ID, op.Target, int(op.Strategy), op.Query))
	case CatalogUnsubscribe:
		return append([]byte{catUnsub}, op.ID...)
	}
	return append([]byte{catAdapt}, op.Detail...)
}

// ParseCatalogRecord is the inverse of Record. Records are checksummed in a
// journal and on the wire, so a malformed one means version skew, not
// corruption.
func ParseCatalogRecord(kind uint8, data []byte) (CatalogOp, error) {
	switch kind {
	case catSub:
		op := CatalogOp{Kind: CatalogSubscribe}
		head, query, ok := strings.Cut(string(data), "\n")
		if n, _ := fmt.Sscanf(head, "%s %s %d", &op.ID, &op.Target, &op.Strategy); !ok || n != 3 {
			return CatalogOp{}, fmt.Errorf("core: malformed subscribe record %q", head)
		}
		op.Query = query
		return op, nil
	case catUnsub:
		return CatalogOp{Kind: CatalogUnsubscribe, ID: string(data)}, nil
	case catAdapt:
		return CatalogOp{Kind: CatalogAdapt, Detail: string(data)}, nil
	}
	return CatalogOp{}, fmt.Errorf("core: unknown catalog record kind %d", kind)
}

// SetJournal installs the catalog journal hook: every successful Subscribe
// and Unsubscribe emits one CatalogOp, under the engine's control-plane
// lock, after the mutation fully applied. A nil fn disables journaling.
// The hook must not call back into the engine (it runs under e.mu).
func (e *Engine) SetJournal(fn func(CatalogOp)) {
	e.mu.Lock()
	e.journal = fn
	e.mu.Unlock()
}

// ReplayCatalog applies a recorded op sequence to the engine: a restart
// replays its journal through it against the (identically constructed)
// topology, and a cluster node applies the ops another node mirrors to it.
// Planning is deterministic, so the engine reaches the exact state the
// recording one had: same subscription ids, same shared streams, same
// reserved usage. Ops the engine does not own (CatalogAdapt, future kinds)
// go to apply; a nil apply fails on the first such op.
//
// Journaling is suppressed for the duration — applying a record must not
// record it again — and restored on return, even on error. It stops at the
// first failure: a subscription error or a diverging id means the ops do
// not belong to this engine's state, and the caller should refuse to go on
// rather than serve a catalog the recording engine does not have.
func (e *Engine) ReplayCatalog(ops []CatalogOp, apply func(CatalogOp) error) error {
	e.mu.Lock()
	saved := e.journal
	e.journal = nil
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.journal = saved
		e.mu.Unlock()
	}()
	for i, op := range ops {
		var err error
		switch op.Kind {
		case CatalogSubscribe:
			var sub *Subscription
			if sub, err = e.Subscribe(op.Query, op.Target, op.Strategy); err == nil && sub.ID != op.ID {
				err = fmt.Errorf("diverged: this engine assigned id %s", sub.ID)
			}
		case CatalogUnsubscribe:
			err = e.Unsubscribe(op.ID)
		default:
			err = fmt.Errorf("unhandled kind")
			if apply != nil {
				err = apply(op)
			}
		}
		if err != nil {
			return fmt.Errorf("core: catalog op %d (%s %s): %w", i, op.Kind, op.ID+op.Detail, err)
		}
	}
	return nil
}
