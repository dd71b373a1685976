package core

import (
	"fmt"
	"strings"

	"streamshare/internal/network"
)

// Catalog operation kinds. Subscribe and Unsubscribe apply through the
// engine itself; every other kind (adaptation schedules the server layer
// applies) is delegated to Apply's other callback.
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
// journal stores, what a cluster mirrors and what Apply applies. Layers
// above add their own kinds (CatalogAdapt) and handle them in Apply's other
// callback.
type CatalogOp struct {
	Kind string
	// ID is the subscription the op created (subscribe) or removed
	// (unsubscribe). A subscribe given an id must be assigned that id — ids
	// are issued from a deterministic sequence, so a mismatch means the
	// record and this engine's catalog disagree.
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

// Apply performs one catalog op and returns the subscription id it assigned
// or removed. Identically built engines that apply the same ops in the same
// order reach the same catalog: same ids, same shared streams, same reserved
// usage. Kinds the engine does not own (CatalogAdapt) go to other. A
// subscribe that names an id is refused, before it plans, unless that is the
// id this engine assigns next.
func (e *Engine) Apply(op CatalogOp, other func(CatalogOp) error) (string, error) {
	switch op.Kind {
	case CatalogSubscribe:
		next := fmt.Sprintf("q%d", e.subSeq+1)
		if op.ID != "" && op.ID != next {
			return "", fmt.Errorf("core: the record names %s, this engine assigns %s", op.ID, next)
		}
		_, err := e.Subscribe(op.Query, op.Target, op.Strategy)
		return next, err
	case CatalogUnsubscribe:
		return op.ID, e.Unsubscribe(op.ID)
	}
	return "", other(op)
}
