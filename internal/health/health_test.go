package health

import (
	"testing"
	"time"

	"streamshare/internal/network"
)

func tAt(ms int) time.Time {
	return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond)
}

func TestSuspectAfterMissedDeadlines(t *testing.T) {
	d := NewDetector(Options{Interval: 10 * time.Millisecond})
	p := PeerTarget("SP1")
	d.Register(p, tAt(0))

	// Beating keeps the target healthy forever.
	for ms := 10; ms <= 100; ms += 10 {
		d.Beat(p, tAt(ms))
		if evs := d.Tick(tAt(ms)); len(evs) != 0 {
			t.Fatalf("unexpected events while beating: %v", evs)
		}
	}
	// Silence: suspectAfter missed intervals are tolerated, the next trips
	// suspicion.
	if evs := d.Tick(tAt(130)); len(evs) != 0 {
		t.Fatalf("suspected too early: %v", evs)
	}
	evs := d.Tick(tAt(145))
	if len(evs) != 1 || evs[0].Kind != Suspected || evs[0].Target != p {
		t.Fatalf("want suspicion of %v, got %v", p, evs)
	}
	if evs[0].Misses != suspectAfter+1 {
		t.Fatalf("want %d misses, got %d", suspectAfter+1, evs[0].Misses)
	}
	// Suspicion fires once, not every tick.
	if evs := d.Tick(tAt(200)); len(evs) != 0 {
		t.Fatalf("duplicate suspicion: %v", evs)
	}
	s, r, _ := d.Stats()
	if s != 1 || r != 0 {
		t.Fatalf("stats: %d suspicions %d recoveries", s, r)
	}
}

// TestRecoveryAndFlapBackoff: a recovery inside the flap window doubles the
// suspicion threshold, and one outside it does not.
func TestRecoveryAndFlapBackoff(t *testing.T) {
	d := NewDetector(Options{Interval: 10 * time.Millisecond})
	l := LinkTarget(network.MakeLinkID("SP1", "SP2"))
	d.Register(l, tAt(0))

	// First cycle: silence → suspect (4 misses > threshold 3), quick
	// recovery → flap.
	evs := d.Tick(tAt(45))
	if len(evs) != 1 || evs[0].Kind != Suspected {
		t.Fatalf("want suspicion, got %v", evs)
	}
	d.Beat(l, tAt(50))
	evs = d.Tick(tAt(50))
	if len(evs) != 1 || evs[0].Kind != Recovered {
		t.Fatalf("want recovery, got %v", evs)
	}

	// Backed-off threshold is now 6 intervals: the silence that tripped the
	// first suspicion no longer trips the second.
	if evs := d.Tick(tAt(95)); len(evs) != 0 {
		t.Fatalf("backoff not applied: %v", evs)
	}
	evs = d.Tick(tAt(115)) // 65ms silent: 6 whole intervals, not > threshold 6
	if len(evs) != 0 {
		t.Fatalf("suspected at exactly the threshold: %v", evs)
	}
	evs = d.Tick(tAt(125)) // 75ms silent: 7 misses > 6
	if len(evs) != 1 || evs[0].Kind != Suspected {
		t.Fatalf("want backed-off suspicion, got %v", evs)
	}
	_, _, flaps := d.Stats()
	if flaps != 1 {
		t.Fatalf("want 1 flap, got %d", flaps)
	}
	snap := d.Snapshot(tAt(125))
	if len(snap) != 1 || !snap[0].Suspected || snap[0].Threshold != 2*suspectAfter {
		t.Fatalf("snapshot: %+v", snap)
	}

	// A recovery past the flap window (20 intervals after the suspicion) is
	// no flap: the threshold stays where it is.
	d.Beat(l, tAt(125+flapWindow*10+1))
	if evs := d.Tick(tAt(125 + flapWindow*10 + 1)); len(evs) != 1 || evs[0].Kind != Recovered {
		t.Fatalf("want a late recovery, got %v", evs)
	}
	if _, _, flaps := d.Stats(); flaps != 1 {
		t.Fatalf("a late recovery counted as a flap: %d flaps", flaps)
	}
}

// TestFlapBackoffCap: repeated flaps double the threshold up to
// maxThreshold and no further.
func TestFlapBackoffCap(t *testing.T) {
	d := NewDetector(Options{Interval: time.Millisecond})
	p := PeerTarget("SP9")
	d.Register(p, tAt(0))
	now := 0
	for i := 0; i < 6; i++ {
		// Silence long past any cap, then an immediate recovery.
		now += 1000
		if evs := d.Tick(tAt(now)); len(evs) != 1 || evs[0].Kind != Suspected {
			t.Fatalf("cycle %d: want suspicion, got %v", i, evs)
		}
		d.Beat(p, tAt(now))
		d.Tick(tAt(now))
		want := suspectAfter << (i + 1)
		if want > maxThreshold {
			want = maxThreshold
		}
		if snap := d.Snapshot(tAt(now)); snap[0].Threshold != want {
			t.Fatalf("cycle %d: threshold %d, want %d", i, snap[0].Threshold, want)
		}
	}
	if snap := d.Snapshot(tAt(now)); snap[0].Threshold != maxThreshold || maxThreshold != 48 {
		t.Fatalf("threshold should cap at 48, got %d", snap[0].Threshold)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	d := NewDetector(Options{})
	d.Register(LinkTarget(network.MakeLinkID("SP2", "SP1")), tAt(0))
	d.Register(PeerTarget("SP2"), tAt(0))
	d.Register(PeerTarget("SP1"), tAt(0))
	snap := d.Snapshot(tAt(1))
	if len(snap) != 3 {
		t.Fatalf("want 3 targets, got %d", len(snap))
	}
	if snap[0].Target.Peer != "SP1" || snap[1].Target.Peer != "SP2" || snap[2].Target.Kind != TargetLink {
		t.Fatalf("order: %v", snap)
	}
}
