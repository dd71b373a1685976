package core

import (
	"errors"
	"strings"
	"testing"
)

// catalogOps is a fixed mutation sequence: three sharing subscriptions, one
// removal, one data-shipping subscription. It exercises id assignment after
// an unsubscribe (ids are never reused) and plans that depend on previously
// installed shared streams.
var catalogOps = []CatalogOp{
	{Kind: CatalogSubscribe, Query: q1, Target: "SP1", Strategy: StreamSharing},
	{Kind: CatalogSubscribe, Query: q2, Target: "SP1", Strategy: StreamSharing},
	{Kind: CatalogSubscribe, Query: q3, Target: "SP1", Strategy: StreamSharing},
	{Kind: CatalogUnsubscribe, ID: "q2"},
	{Kind: CatalogSubscribe, Query: q4, Target: "SP3", Strategy: DataShipping},
}

// catalogState renders everything recovery must reproduce: each
// subscription's full Explain (plan, routes, operator placement) plus the
// deployed stream ids in creation order.
func catalogState(eng *Engine) string {
	var b strings.Builder
	for _, sub := range eng.Subscriptions() {
		b.WriteString(sub.Explain())
	}
	b.WriteString("streams:")
	for _, d := range eng.Streams() {
		b.WriteString(" " + d.ID)
	}
	return b.String()
}

// TestReplayCatalogGolden pins the recovery contract: applying the records
// one engine's ops produced, ids included, over an identically constructed
// topology yields a byte-identical catalog — same subscription ids, same
// plans, same deployed streams — and the records themselves are the bytes a
// journal holds.
func TestReplayCatalogGolden(t *testing.T) {
	live, _ := newEngine(t, Config{})
	var recs [][]byte
	for _, op := range catalogOps {
		id, err := live.Apply(op, nil)
		if err != nil {
			t.Fatal(err)
		}
		op.ID = id
		recs = append(recs, op.Record())
	}
	if got := string(recs[1]) + "|" + string(recs[3]); got != "\x01q2 SP1 2\n"+q2+"|\x02q2" {
		t.Fatalf("records = %q", got)
	}
	want := catalogState(live)

	restarted, _ := newEngine(t, Config{})
	for _, rec := range recs {
		op, err := ParseCatalogRecord(rec[0], rec[1:])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restarted.Apply(op, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := catalogState(restarted); got != want {
		t.Fatalf("replayed catalog diverged:\n--- live ---\n%s\n--- replayed ---\n%s", want, got)
	}
}

// TestReplayCatalogDetectsDivergence refuses a subscribe record whose id is
// not the one this engine assigns next — the symptom of applying a journal
// against the wrong topology or catalog — before it plans anything.
func TestReplayCatalogDetectsDivergence(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	_, err := eng.Apply(CatalogOp{Kind: CatalogSubscribe, ID: "q7", Query: q1, Target: "SP1", Strategy: StreamSharing}, nil)
	if err == nil || !strings.Contains(err.Error(), "names q7, this engine assigns q1") {
		t.Fatalf("err = %v, want divergence", err)
	}
	if n := len(eng.Subscriptions()); n != 0 {
		t.Fatalf("a refused record installed %d subscriptions", n)
	}
}

// TestReplayCatalogDelegatesUnknownKinds sends ops the engine does not own
// to the other callback, and its error surfaces.
func TestReplayCatalogDelegatesUnknownKinds(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	var applied []string
	other := func(op CatalogOp) error {
		applied = append(applied, op.Detail)
		return nil
	}
	for _, op := range []CatalogOp{
		{Kind: CatalogSubscribe, ID: "q1", Query: q1, Target: "SP1", Strategy: StreamSharing},
		{Kind: CatalogAdapt, Detail: "reopt"},
	} {
		if _, err := eng.Apply(op, other); err != nil {
			t.Fatal(err)
		}
	}
	if len(applied) != 1 || applied[0] != "reopt" {
		t.Fatalf("applied = %v, want [reopt]", applied)
	}
	boom := errors.New("boom")
	if _, err := eng.Apply(CatalogOp{Kind: CatalogAdapt}, func(CatalogOp) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestCatalogRecordCodec pins the one encoding of a control-plane mutation:
// kind byte 1–3 and the text payload the catalog journal has always held, so
// journals written before the codec moved here still parse, and the bytes a
// cluster mirrors are the bytes a journal stores.
func TestCatalogRecordCodec(t *testing.T) {
	for _, tc := range []struct {
		op  CatalogOp
		rec string
	}{
		{CatalogOp{Kind: CatalogSubscribe, ID: "q7", Target: "SP1", Strategy: StreamSharing, Query: "<a>\n{ $p }\n</a>"},
			"\x01q7 SP1 2\n<a>\n{ $p }\n</a>"},
		{CatalogOp{Kind: CatalogUnsubscribe, ID: "q7"}, "\x02q7"},
		{CatalogOp{Kind: CatalogAdapt, Detail: "fail:SP1-SP2; reopt"}, "\x03fail:SP1-SP2; reopt"},
	} {
		rec := tc.op.Record()
		if string(rec) != tc.rec {
			t.Errorf("%s record = %q, want %q", tc.op.Kind, rec, tc.rec)
		}
		got, err := ParseCatalogRecord(rec[0], rec[1:])
		if err != nil || got != tc.op {
			t.Errorf("%s round trip = %+v, %v", tc.op.Kind, got, err)
		}
	}
	for _, bad := range []string{"\x01q7 SP1 2", "\x01q7 SP1\nq", "\x01q7 SP1 two\nq", "\x04x", "Rx"} {
		if op, err := ParseCatalogRecord(bad[0], []byte(bad[1:])); err == nil {
			t.Errorf("malformed record %q parsed as %+v", bad, op)
		}
	}
}
