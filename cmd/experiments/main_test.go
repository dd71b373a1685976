package main

import (
	"testing"

	"streamshare/internal/scenario"
)

// much is what the shape checks of EXPERIMENTS.md mean by ≫: at least four
// times the other side.
const much = 4

// TestShapeChecks runs Figs. 6/7, the rejection and the recovery experiments
// at a small item count and holds them to the orderings EXPERIMENTS.md and
// PERFORMANCE.md check: link traffic DS ≫ QS > SS, rejected queries DS > QS ≫
// SS, and a recovery that reports its one fault, redelivers what the fault
// held back and keeps every subscription.
func TestShapeChecks(t *testing.T) {
	const items = 400
	for fig, traffic := range map[int][3]float64{6: figure6(items), 7: figure7(items)} {
		ds, qs, ss := traffic[0], traffic[1], traffic[2]
		t.Logf("Fig. %d traffic DS %.1f, QS %.1f, SS %.1f", fig, ds, qs, ss)
		if !(ds > much*qs && qs > ss && ss > 0) {
			t.Errorf("Fig. %d traffic DS %.1f, QS %.1f, SS %.1f: want DS ≫ QS > SS", fig, ds, qs, ss)
		}
	}
	rej := rejectionExperiment(items)
	t.Logf("rejected DS %d, QS %d, SS %d", rej[0], rej[1], rej[2])
	if !(rej[0] > rej[1] && rej[1] > much*rej[2] && rej[2] >= 0) {
		t.Errorf("rejected DS %d, QS %d, SS %d: want DS > QS ≫ SS", rej[0], rej[1], rej[2])
	}
	rec := recoveryExperiment(items)
	if subs := len(scenario.Scenario2(items).Queries); rec.faults != 1 || rec.items == 0 || rec.survivors != subs {
		t.Errorf("recovery %+v: want 1 fault, a non-zero redelivery and %d survivors", rec, subs)
	}
}
