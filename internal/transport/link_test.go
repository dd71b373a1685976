package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// collector gathers dispatched frames per remote, in arrival order.
type collector struct {
	mu     sync.Mutex
	frames []*Frame
	froms  []string
}

func (c *collector) handle(remote string, f *Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.froms = append(c.froms, remote)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) snapshot() []*Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Frame, len(c.frames))
	copy(out, c.frames)
	return out
}

// meshPair builds two connected meshes over the given transport.
func meshPair(t *testing.T, tr Transport) (*Mesh, *Mesh, *collector, *collector) {
	t.Helper()
	var ca, cb collector
	ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Listen: listenAddr(tr), Handler: ca.handle})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMesh(MeshConfig{Transport: tr, Node: "b", Listen: listenAddr(tr), Handler: cb.handle})
	if err != nil {
		ma.Close()
		t.Fatal(err)
	}
	ma.Connect("b", mb.Addr())
	mb.Connect("a", ma.Addr())
	t.Cleanup(func() { ma.Close(); mb.Close() })
	return ma, mb, &ca, &cb
}

func listenAddr(tr Transport) string {
	if _, ok := tr.(*TCP); ok {
		return "127.0.0.1:0"
	}
	return ""
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func testLinkDuplex(t *testing.T, tr Transport) {
	ma, mb, ca, cb := meshPair(t, tr)
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := ma.Link("b").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("a%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := mb.Link("a").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("b%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return ca.len() == n && cb.len() == n }, "frames delivered")
	for i, f := range cb.snapshot() {
		if want := fmt.Sprintf("a%d", i); string(f.Data) != want {
			t.Fatalf("b received frame %d = %q, want %q (order broken)", i, f.Data, want)
		}
	}
	for i, f := range ca.snapshot() {
		if want := fmt.Sprintf("b%d", i); string(f.Data) != want {
			t.Fatalf("a received frame %d = %q, want %q (order broken)", i, f.Data, want)
		}
	}
	st := ma.Link("b").Stats()
	if st.FramesSent == 0 || st.FramesRecv == 0 || st.BytesSent == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

func TestLinkDuplexMem(t *testing.T) { testLinkDuplex(t, NewMem()) }

func TestLinkDuplexTCP(t *testing.T) { testLinkDuplex(t, NewTCP()) }

// TestLinkDuplexManyPairs: a link's reader never writes, so a conn whose two
// directions fill at once still drains. Each fresh pair sends more frames
// both ways than a Mem conn buffers per direction (64); while readers wrote
// their own LinkAcks, a loop of such exchanges stalled within a few hundred
// pairs, with both readers blocked writing acks into full conns.
func TestLinkDuplexManyPairs(t *testing.T) {
	const pairs, n = 150, 300
	for p := 0; p < pairs; p++ {
		ma, mb, ca, cb := meshPair(t, NewMem())
		if err := ma.WaitConnected(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sendCtl(t, ma.Link("b"), 1)
			sendCtl(t, mb.Link("a"), 1)
		}
		waitFor(t, 5*time.Second, func() bool { return ca.len() == n && cb.len() == n },
			fmt.Sprintf("pair %d: %d frames delivered each way", p, n))
		ma.Close()
		mb.Close()
	}
}

// dropConns force-closes every attached conn of m without closing its links,
// which detach, redial and replay; it returns how many conns it dropped.
func dropConns(m *Mesh) int {
	n := 0
	for _, l := range m.Links() {
		l.mu.Lock()
		if l.conn != nil {
			l.detachLocked()
			n++
		}
		l.mu.Unlock()
	}
	return n
}

// testLinkReconnectReplay kills conns repeatedly while a stream of
// sequenced frames flows; the journal replay plus receive dedup must
// deliver every frame exactly once, in order. The sender waits at n/2 for
// the first drop, so the drop always lands mid-stream: ungated, every frame
// could be delivered before it, leaving nothing to replay.
func testLinkReconnectReplay(t *testing.T, tr Transport) {
	ma, _, _, cb := meshPair(t, tr)
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	firstDrop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if i == n/2 {
				<-firstDrop
			}
			if err := ma.Link("b").Send(&Frame{Type: FrameControl, Data: []byte(fmt.Sprintf("f%d", i))}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Guarantee at least one mid-stream drop, then keep dropping
	// periodically while the tail drains.
	waitFor(t, 5*time.Second, func() bool { return cb.len() > 0 }, "first delivery")
	drops := dropConns(ma)
	close(firstDrop)
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; cb.len() < n; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("stalled at %d/%d frames after %d drops", cb.len(), n, drops)
		}
		time.Sleep(time.Millisecond)
		if i%8 == 7 && cb.len() < n {
			drops += dropConns(ma)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := cb.snapshot()
	if len(got) != n {
		t.Fatalf("delivered %d frames, want %d (duplicates or loss)", len(got), n)
	}
	for i, f := range got {
		if want := fmt.Sprintf("f%d", i); string(f.Data) != want {
			t.Fatalf("frame %d = %q, want %q", i, f.Data, want)
		}
	}
	if drops == 0 {
		t.Fatal("no conns were dropped; chaos did not engage")
	}
	waitFor(t, 5*time.Second, func() bool { return ma.Link("b").Stats().Reconnects > 0 },
		fmt.Sprintf("no reconnects recorded after %d drops", drops))
}

func TestLinkReconnectReplayMem(t *testing.T) { testLinkReconnectReplay(t, NewMem()) }

func TestLinkReconnectReplayTCP(t *testing.T) { testLinkReconnectReplay(t, NewTCP()) }

// TestLinkWindowBounds verifies the replay journal honors its credit
// window: with no receiver draining, Send blocks rather than growing the
// journal without bound.
func TestLinkWindowBounds(t *testing.T) {
	tr := NewMem()
	var ca collector
	ma, err := NewMesh(MeshConfig{Transport: tr, Node: "a", Listen: "", Handler: ca.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	l, _ := ma.Connect("b", "mem:none") // nothing listens: journal only
	sent := make(chan int, 1)
	go func() {
		i := 0
		for ; i < DefaultLinkWindow+100; i++ {
			if err := l.Send(&Frame{Type: FrameControl, Data: []byte("x")}); err != nil {
				break
			}
		}
		sent <- i
	}()
	waitFor(t, 5*time.Second, func() bool { return l.Stats().Depth == DefaultLinkWindow }, "a full window")
	time.Sleep(50 * time.Millisecond)
	if d := l.Stats().Depth; d > DefaultLinkWindow {
		t.Fatalf("journal depth %d exceeds window %d", d, DefaultLinkWindow)
	}
	ma.Close()
	if n := <-sent; n > DefaultLinkWindow {
		t.Fatalf("sender admitted %d frames past a %d-frame window", n, DefaultLinkWindow)
	}
}

// TestMeshCloseUnblocksAndDumps: Close must wake blocked senders with
// ErrClosed, be idempotent, and DumpState must render per-link state.
func TestMeshCloseUnblocksAndDumps(t *testing.T) {
	ma, mb, _, _ := meshPair(t, NewMem())
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ma.DumpState(&sb)
	out := sb.String()
	if !strings.Contains(out, "mesh a") || !strings.Contains(out, "link b") ||
		!strings.Contains(out, "phase=connected") {
		t.Fatalf("dump missing link state:\n%s", out)
	}
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ma.Link("b").Send(&Frame{Type: FrameControl, Data: []byte("x")}); err != ErrClosed {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	if err := ma.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	mb.Close()
}

// TestMeshRejectsUnknownAndBadVersion: handshakes from unknown node names
// or other protocol versions must be refused and must not disturb an
// established link.
func TestMeshRejectsUnknownAndBadVersion(t *testing.T) {
	tr := NewMem()
	ma, _, _, _ := meshPair(t, tr)
	if err := ma.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Unknown node identity.
	conn, err := tr.Dial(ma.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := &Frame{Type: FrameHello, Version: ProtocolVersion, Node: "stranger", Resume: 1}
	if err := conn.WriteFrame(EncodeFrame(hello)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadFrame(); err == nil {
		t.Fatal("handshake from unknown node was answered")
	}
	// Wrong protocol version from a known node.
	conn2, err := tr.Dial(ma.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello2 := &Frame{Type: FrameHello, Version: ProtocolVersion + 1, Node: "b", Resume: 1}
	if err := conn2.WriteFrame(EncodeFrame(hello2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.ReadFrame(); err == nil {
		t.Fatal("version-mismatched handshake was answered")
	}
	// The real link to b is still up.
	if err := ma.WaitConnected(time.Second); err != nil {
		t.Fatal(err)
	}
}
