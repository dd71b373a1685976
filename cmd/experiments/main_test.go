package main

import "testing"

// much is what the shape checks of EXPERIMENTS.md mean by ≫: at least four
// times the other side.
const much = 4

// TestShapeChecks runs Figs. 6/7, the rejection and the recovery experiments
// at a small item count and holds them to the orderings EXPERIMENTS.md and
// PERFORMANCE.md check: link traffic DS ≫ QS > SS, rejected queries DS > QS ≫
// SS, and a detection latency of (suspectAfter+1) heartbeat intervals with
// the same redelivery at every interval.
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
	rows := recoveryExperiment(items)
	for _, r := range rows {
		want := 4 * r.interval // suspectAfter+1 intervals
		if d := r.detect - want; d > want/100 || -d > want/100 || r.suspicions != 1 {
			t.Errorf("heartbeat %v: detect %v with %d suspicions, want %v with 1", r.interval, r.detect, r.suspicions, want)
		}
		if r.items == 0 || r.inputs != rows[0].inputs || r.items != rows[0].items || r.bytes != rows[0].bytes || r.survivors != rows[0].survivors {
			t.Errorf("heartbeat %v: replayed %+v, at %v %+v", r.interval, r, rows[0].interval, rows[0])
		}
	}
}
