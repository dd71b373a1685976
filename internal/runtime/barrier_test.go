package runtime

import (
	goruntime "runtime"
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
