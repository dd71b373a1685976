package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The mesh's waits sleep on the links' condition variables and the tail of
// a burst is acked when the receiver's dispatch queue runs dry. These tests
// hold both: a drain costs a round trip, not an acker tick, and every wait
// wakes on its event, on its timeout and on Close, leaving nothing behind.

// sendCtl sends n sequenced control frames on l.
func sendCtl(t *testing.T, l *Link, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := l.Send(&Frame{Type: FrameControl, Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
}

// settleGoroutines fails unless the goroutine count returns to before: a
// wait must not leave a helper goroutine (or a fired timer's) behind.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before },
		fmt.Sprintf("goroutines settle back to %d", before))
}

// TestTailDrainIsEventDriven: bursts shorter than linkAckEvery never reach
// the reader's ack rule, so what acks them is the dispatcher going idle.
// 200 send-then-drain rounds finish in a fraction of the 400 ms the 2 ms
// acker tick alone would need (measured: ≈ 4 ms, ≈ 25 ms under -race; the
// parent of this change: 490 ms), so removing ack-on-idle fails this test
// and scheduler noise has an 8× margin before it does.
func TestTailDrainIsEventDriven(t *testing.T) {
	ma, _, _, cb := meshPair(t, NewMem())
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	const budget = 200 * time.Millisecond
	sizes := []int{1, 3, linkAckEvery - 1}
	l := ma.Link("b")
	total := 0
	start := time.Now()
	for i := 0; i < rounds; i++ {
		n := sizes[i%len(sizes)]
		sendCtl(t, l, n)
		total += n
		if err := ma.WaitDrained(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	d := time.Since(start)
	t.Logf("%d rounds, %d frames: %v", rounds, total, d)
	if d > budget {
		t.Fatalf("%d send-then-drain rounds took %v, want under %v: tails wait on the acker tick", rounds, d, budget)
	}
	if cb.len() != total {
		t.Fatalf("drained with %d of %d frames dispatched", cb.len(), total)
	}
}

// TestTailDrainBehindBlockedHandler: the idle ack may wait for a handler
// that blocks on the burst's first frame, but once the handler returns the
// sender's drain must too.
func TestTailDrainBehindBlockedHandler(t *testing.T) {
	tr := NewMem()
	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	var ca collector
	ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Handler: ca.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	// One dispatcher per link calls the handler, so first needs no lock.
	mb, err := NewMesh(MeshConfig{Transport: tr, Node: "b", Handler: func(string, *Frame) {
		if first {
			first = false
			close(entered)
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	ma.Connect("b", mb.Addr())
	mb.Connect("a", ma.Addr())
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sendCtl(t, ma.Link("b"), 3)
	<-entered
	drained := make(chan error, 1)
	go func() { drained <- ma.WaitDrained(10 * time.Second) }()
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDrained still blocked after the handler returned")
	}
}

// TestMeshWaitsTimeOut: a link that never connects fails WaitConnected and,
// with a frame journaled, WaitDrained — each with the error text callers
// match on, at its timeout, leaving no goroutine behind.
func TestMeshWaitsTimeOut(t *testing.T) {
	var ca collector
	ma, err := NewMesh(MeshConfig{Transport: NewMem(), Node: "a", Handler: ca.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	l, _ := ma.Connect("b", "mem:none") // nothing listens: never attaches, never acks
	before := runtime.NumGoroutine()

	if err := ma.WaitDrained(time.Minute); err != nil {
		t.Fatalf("empty journal: %v", err)
	}
	start := time.Now()
	err = ma.WaitConnected(30 * time.Millisecond)
	if err == nil || err.Error() != "transport: links not connected: [b]" {
		t.Fatalf("WaitConnected = %v", err)
	}
	sendCtl(t, l, 2)
	err = ma.WaitDrained(30 * time.Millisecond)
	if err == nil || err.Error() != "transport: links not drained: 2 frames unacked" {
		t.Fatalf("WaitDrained = %v", err)
	}
	if d := time.Since(start); d < 60*time.Millisecond || d > 5*time.Second {
		t.Fatalf("two 30 ms timeouts took %v", d)
	}
	settleGoroutines(t, before)
}

// TestMeshWaitsWakeOnClose: closing the mesh releases a WaitConnected and a
// WaitDrained that would otherwise sit out a long timeout; closed links
// count as neither unconnected nor undrained, as before.
func TestMeshWaitsWakeOnClose(t *testing.T) {
	var ca collector
	ma, err := NewMesh(MeshConfig{Transport: NewMem(), Node: "a", Handler: ca.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	l, _ := ma.Connect("b", "mem:none")
	sendCtl(t, l, 1)
	before := runtime.NumGoroutine()
	errs := make(chan error, 2)
	go func() { errs <- ma.WaitConnected(time.Minute) }()
	go func() { errs <- ma.WaitDrained(time.Minute) }()
	// Let both block first; Close releases them either way, the pause only
	// makes the blocked path the one exercised.
	time.Sleep(5 * time.Millisecond)
	ma.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("wait released by Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a mesh wait outlived Close")
		}
	}
	// Close also ended the link's writer and dial loop.
	settleGoroutines(t, before)
}

// TestWaitConnectedWakesOnAttach: the wait returns on the attach itself —
// here the acceptor's mesh appears only while the dialer already waits.
func TestWaitConnectedWakesOnAttach(t *testing.T) {
	tr := NewMem()
	var ca, cb collector
	ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Handler: ca.handle, MaxBackoff: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	ma.Connect("b", "mem:b")
	connected := make(chan error, 1)
	go func() { connected <- ma.WaitConnected(10 * time.Second) }()
	mb, err := NewMesh(MeshConfig{Transport: tr, Node: "b", Listen: "mem:b", Handler: cb.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	mb.Connect("a", "")
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
	if err := mb.WaitConnected(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestWaitDrainedWritesOwedAcks: once WaitDrained returns, every ack the
// node owes on an attached conn has been written, so the node may close at
// once and its peer's journal still drains — from the ack already on the
// conn, with no acker tick of the closed node left to send one. The
// receiver's handler holds each burst, so its dispatcher's idle ack cannot
// send it either.
func TestWaitDrainedWritesOwedAcks(t *testing.T) {
	for round := 0; round < 50; round++ {
		tr := NewMem()
		release := make(chan struct{})
		var ca collector
		ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Handler: ca.handle})
		if err != nil {
			t.Fatal(err)
		}
		mb, err := NewMesh(MeshConfig{Transport: tr, Node: "b", Handler: func(string, *Frame) { <-release }})
		if err != nil {
			t.Fatal(err)
		}
		ma.Connect("b", mb.Addr())
		mb.Connect("a", ma.Addr())
		if err := ma.WaitConnected(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		sendCtl(t, ma.Link("b"), 3)
		lb := mb.Link("a")
		waitFor(t, 5*time.Second, func() bool {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			return lb.in.Next() == 4
		}, "burst accepted")
		if err := mb.WaitDrained(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		close(release)
		mb.Close()
		if err := ma.WaitDrained(5 * time.Second); err != nil {
			t.Fatalf("round %d: %v: the peer closed before writing the ack it owed", round, err)
		}
		ma.Close()
	}
}
