package runtime

import (
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/xmlstream"
)

// fullCounts runs the fault-free plan once to know what complete delivery
// looks like.
func fullCounts(t *testing.T) map[string]int {
	t.Helper()
	eng, items := setup(t, core.StreamSharing)
	res, err := New(eng, false).Run(map[string][]*xmlstream.Element{"photons": items})
	if err != nil {
		t.Fatal(err)
	}
	return res.Results
}

func TestKillPeerDropsDownstream(t *testing.T) {
	want := fullCounts(t)
	eng, items := setup(t, core.StreamSharing)
	r := New(eng, false)
	// SP1 relays everything leaving the source SP0.
	if err := r.KillPeer("SP1"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(map[string][]*xmlstream.Element{"photons": items})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dropped() == 0 {
		t.Error("killing the relay should drop messages")
	}
	for id, n := range res.Results {
		if n >= want[id] && want[id] > 0 {
			t.Errorf("sub %s still delivered %d/%d items through a dead relay", id, n, want[id])
		}
	}
	snap := eng.Obs().Metrics.Snapshot()
	if snap.Counters["runtime.dropped.messages"] == 0 {
		t.Error("runtime.dropped.messages not published")
	}
	if err := r.KillPeer("nope"); err == nil {
		t.Error("killing an unknown peer should error")
	}
}

func TestSeverLinkDropsTraffic(t *testing.T) {
	eng, items := setup(t, core.StreamSharing)
	r := New(eng, false)
	if err := r.SeverLink("SP0", "SP1"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(map[string][]*xmlstream.Element{"photons": items})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dropped() == 0 {
		t.Error("severed link should drop messages")
	}
	total := 0
	for _, n := range res.Results {
		total += n
	}
	if total != 0 {
		t.Errorf("every route crosses SP0-SP1; %d items still arrived", total)
	}
	if err := r.SeverLink("SP0", "nope"); err == nil {
		t.Error("severing an unknown link should error")
	}
}

// TestKillPeerMidDelivery kills the relay while the run is in flight: the
// run must still terminate cleanly (quiescence stays exact).
func TestKillPeerMidDelivery(t *testing.T) {
	eng, items := setup(t, core.StreamSharing)
	r := New(eng, false)
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(map[string][]*xmlstream.Element{"photons": items})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	if err := r.KillPeer("SP1"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not terminate after mid-delivery kill")
	}
}
