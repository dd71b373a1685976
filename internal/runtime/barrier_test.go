package runtime

import (
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"streamshare/internal/transport"
)

// The termination barrier sleeps on a condition variable: a peer's token,
// the timeout and Close each wake it. Token arrival is what every cluster
// run exercises; these pin the other two.

// TestBarrierTimesOut: a peer that never enters the barrier fails the wait
// at its timeout with the error that names it, and the wait leaves no
// goroutine behind.
func TestBarrierTimesOut(t *testing.T) {
	c0, _ := clusterPair(t, transport.NewMem())
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := goruntime.NumGoroutine()
	start := time.Now()
	err := c0.barrier(30 * time.Millisecond)
	if err == nil || err.Error() != "runtime: cluster barrier: no token from [n1]" {
		t.Fatalf("barrier = %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond || d > 5*time.Second {
		t.Fatalf("a 30 ms barrier timeout took %v", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the barrier, %d after", before, after)
	}
}

// TestBarrierWakesOnClose: closing the cluster releases a run parked at the
// barrier instead of leaving it to sit out the timeout.
func TestBarrierWakesOnClose(t *testing.T) {
	c0, c1 := clusterPair(t, transport.NewMem())
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c0.barrier(time.Minute) }()
	// c0's token reaching c1 means c0 is past its sends, at the wait.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c1.bmu.Lock()
		got := c1.brcvd["n0"]
		c1.bmu.Unlock()
		if got == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("n0's barrier token never reached n1")
		}
		time.Sleep(time.Millisecond)
	}
	c0.Close()
	select {
	case err := <-done:
		if err == nil || err.Error() != "runtime: cluster closed during termination barrier" {
			t.Fatalf("barrier released by Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier outlived Close")
	}
}

// TestQuiescenceBounded: a cluster run whose remote lanes never deliver their
// EOS — here the other node runs an engine without the subscriptions, so it
// sends nothing — fails at the no-progress bound with the lanes named instead
// of waiting forever, and skips the two waits that could not end either. A
// frame for a stream the engine without the plans does not have is dropped
// with a flight event and a count.
func TestQuiescenceBounded(t *testing.T) {
	c0, c1 := clusterPair(t, transport.NewMem())
	if err := c0.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	eng1, feed, err := clusterBuild(gridN, gridQueries, gridItems, false)
	if err != nil {
		t.Fatal(err)
	}
	empty, _, err := clusterBuild(gridN, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// The grid's sources sit on n0's peers: n1 is the node with ingress lanes.
	rt0 := NewWith(empty, false, Options{Cluster: c0})
	rt0.clusterFrame(&transport.Frame{Type: transport.FrameBatch, Stream: "s9(q1 via photons@SP0)", Hop: 1})
	done0 := make(chan error, 1)
	go func() { _, err := rt0.Run(nil); done0 <- err }()

	rt1 := NewWith(eng1, false, Options{Cluster: c1})
	rt1.quietBound = 200 * time.Millisecond
	start := time.Now()
	_, err = rt1.Run(feed)
	if err == nil || !strings.Contains(err.Error(), "no progress for 200ms") ||
		!regexp.MustCompile(`waiting for EOS on \[\(s\d+\(.*, hop \d+\)`).MatchString(err.Error()) {
		t.Fatalf("run against a node without the plans = %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("a 200 ms no-progress bound took %v", d)
	}
	if n := empty.Obs().Metrics.Snapshot().Counters["runtime.cluster.frames.unroutable"]; n == 0 {
		t.Error("the node without the plans counted no unroutable frame")
	}
	found := false
	for _, ev := range empty.Obs().Flight.Events() {
		found = found || ev.Kind == "cluster.frame.unroutable"
	}
	if !found {
		t.Error("no cluster.frame.unroutable flight event")
	}
	// n0 waits at the barrier for the token n1's failed run never sent.
	c0.Close()
	if err := <-done0; err == nil {
		t.Error("n0's run ended without an error")
	}
}
