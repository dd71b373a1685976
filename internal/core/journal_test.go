package core

import (
	"errors"
	"strings"
	"testing"
)

// driveCatalog performs a fixed mutation sequence: three sharing
// subscriptions, one removal, one data-shipping subscription. It exercises
// id assignment after an unsubscribe (ids are never reused) and plans that
// depend on previously installed shared streams.
func driveCatalog(t *testing.T, eng *Engine) {
	t.Helper()
	for _, src := range []string{q1, q2, q3} {
		if _, err := eng.Subscribe(src, "SP1", StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Unsubscribe("q2"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(q4, "SP3", DataShipping); err != nil {
		t.Fatal(err)
	}
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

// TestReplayCatalogGolden pins the recovery contract: replaying the
// journaled op sequence over an identically constructed topology yields a
// byte-identical catalog — same subscription ids, same plans, same
// deployed streams.
func TestReplayCatalogGolden(t *testing.T) {
	live, _ := newEngine(t, Config{})
	var ops []CatalogOp
	live.SetJournal(func(op CatalogOp) { ops = append(ops, op) })
	driveCatalog(t, live)
	if len(ops) != 5 {
		t.Fatalf("journaled %d ops, want 5", len(ops))
	}
	want := catalogState(live)

	restarted, _ := newEngine(t, Config{})
	var reops []CatalogOp
	restarted.SetJournal(func(op CatalogOp) { reops = append(reops, op) })
	if err := restarted.ReplayCatalog(ops, nil); err != nil {
		t.Fatal(err)
	}
	if got := catalogState(restarted); got != want {
		t.Fatalf("replayed catalog diverged:\n--- live ---\n%s\n--- replayed ---\n%s", want, got)
	}
	if len(reops) != 0 {
		t.Fatalf("replay re-journaled %d ops; journaling must be suppressed", len(reops))
	}

	// The hook must be restored after replay: a post-recovery mutation
	// journals again.
	if _, err := restarted.Subscribe(q2, "SP1", StreamSharing); err != nil {
		t.Fatal(err)
	}
	if len(reops) != 1 || reops[0].Kind != CatalogSubscribe || reops[0].ID != "q5" {
		t.Fatalf("post-replay journal = %+v, want one subscribe of q5", reops)
	}
}

// TestReplayCatalogDetectsDivergence rejects a journal whose recorded ids
// do not match what deterministic replay assigns — the symptom of running
// a journal against the wrong topology or engine configuration.
func TestReplayCatalogDetectsDivergence(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	ops := []CatalogOp{{Kind: CatalogSubscribe, ID: "q7", Query: q1, Target: "SP1", Strategy: StreamSharing}}
	err := eng.ReplayCatalog(ops, nil)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("err = %v, want divergence", err)
	}
}

// TestReplayCatalogDelegatesUnknownKinds sends ops the engine does not own
// to the apply callback, and fails without one.
func TestReplayCatalogDelegatesUnknownKinds(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	ops := []CatalogOp{
		{Kind: CatalogSubscribe, ID: "q1", Query: q1, Target: "SP1", Strategy: StreamSharing},
		{Kind: CatalogAdapt, Detail: "reopt"},
	}
	var applied []string
	err := eng.ReplayCatalog(ops, func(op CatalogOp) error {
		applied = append(applied, op.Detail)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0] != "reopt" {
		t.Fatalf("applied = %v, want [reopt]", applied)
	}

	eng2, _ := newEngine(t, Config{})
	if err := eng2.ReplayCatalog(ops, nil); err == nil {
		t.Fatal("nil apply accepted an adapt op")
	}

	// Errors from the callback surface and stop the replay.
	eng3, _ := newEngine(t, Config{})
	boom := errors.New("boom")
	err = eng3.ReplayCatalog(ops, func(CatalogOp) error { return boom })
	if !errors.Is(err, boom) {
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
