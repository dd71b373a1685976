package transport

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamshare/internal/durable"
	"streamshare/internal/obs"
)

// chanLock is a mutex with an attached condition variable; Wait and
// Broadcast must be called with the lock held (which makes the lazy cond
// init race-free).
type chanLock struct {
	sync.Mutex
	cond *sync.Cond
}

func (l *chanLock) Wait() {
	if l.cond == nil {
		l.cond = sync.NewCond(&l.Mutex)
	}
	l.cond.Wait()
}

func (l *chanLock) Broadcast() {
	if l.cond == nil {
		l.cond = sync.NewCond(&l.Mutex)
	}
	l.cond.Broadcast()
}

// MeshConfig configures one node's mesh endpoint.
type MeshConfig struct {
	// Transport carries the frames (TCP between processes, Mem in tests).
	Transport Transport
	// Node is this node's name — its peer identity in handshakes. Between
	// two connected nodes, the one with the smaller name dials.
	Node string
	// Listen is the address to accept inbound links on.
	Listen string
	// Handler receives every dispatched inbound frame (batch, ack,
	// control), per link in arrival order. It runs on a
	// per-link dispatcher goroutine and may send on other links, but must
	// not call back into Mesh.Close. BatchBin frames are decoded by the
	// link before dispatch, so the handler only ever sees FrameBatch, its
	// items element trees in Elems.
	Handler func(remote string, f *Frame)
	// Window bounds each link's replay journal in frames
	// (DefaultLinkWindow when 0).
	Window int
	// DataDir, when set, makes every link durable: each link journals its
	// frames and cursors in DataDir/<remote> and a process restarted over
	// the same directory continues each link's sequence space, replays the
	// frames the peer never acked, and re-dispatches the inbound frames its
	// crash interrupted (see DESIGN.md "Durability"). Empty keeps links
	// in-memory. Node names double as directory names, so they must be
	// path-safe.
	DataDir string
	// DurableSync is the WAL fsync policy for durable links
	// (durable.SyncAlways when zero).
	DurableSync durable.Sync
	// DurableSyncInterval is the background fsync period under
	// durable.SyncInterval (the WAL default when 0).
	DurableSyncInterval time.Duration
	// Metrics, when set, receives the durable.* WAL metrics and, per codec
	// batch transform, wire.encode.* (on a link's writer) and wire.decode.*
	// (on a conn's reader): a seconds histogram and items, bytes.xml and
	// bytes.wire counters, the batch's size before and after the codec.
	Metrics *obs.Registry
	// Flight, when set, records wal.* and handshake.refuse flight events.
	Flight *obs.FlightRecorder
	// HandshakeTimeout bounds each handshake's blocking reads on both
	// sides (10s when 0, negative disables): a half-open peer that dials
	// and goes silent can no longer pin a handshake goroutine forever.
	HandshakeTimeout time.Duration
	// MaxBackoff caps the dialer's exponential redial backoff (250ms when
	// 0). Redial sleeps are jittered in [backoff/2, backoff] to spread
	// reconnect stampedes after a partition heals.
	MaxBackoff time.Duration
}

// Mesh is one node's endpoint in the super-peer network: a listener, a
// named identity, and one managed Link per remote node. It owns the
// connection lifecycle end to end — accepting and dialing conns, running
// the Hello/Welcome handshake (version check and resume-cursor exchange),
// attaching conns to links, and asking for tail acks — while the links
// themselves own sequencing, replay, acks and dispatch. Membership is
// static: inbound handshakes from node names never registered via Connect
// are refused. All methods are safe for concurrent use; Close is idempotent
// and waits for every mesh goroutine.
type Mesh struct {
	node    string
	tr      Transport
	ln      Listener
	handler func(remote string, f *Frame)
	window  int
	// enc and dec are the wire.encode.* and wire.decode.* instruments, nil
	// without a registry.
	enc, dec *wireMetrics

	durDir     string
	durSync    durable.Sync
	durSyncInt time.Duration
	metrics    *obs.Registry
	flight     *obs.FlightRecorder
	hsTimeout  time.Duration
	maxBackoff time.Duration

	mu      sync.Mutex
	links   map[string]*Link
	pending map[Conn]bool
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewMesh binds the node's listener and starts its accept and ack-flush
// loops. Connect the remote nodes afterwards, then Close exactly once.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if cfg.Transport == nil || cfg.Node == "" || cfg.Handler == nil {
		return nil, fmt.Errorf("transport: mesh needs a transport, a node name and a handler")
	}
	ln, err := cfg.Transport.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultLinkWindow
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 250 * time.Millisecond
	}
	m := &Mesh{
		node:       cfg.Node,
		tr:         cfg.Transport,
		ln:         ln,
		handler:    cfg.Handler,
		window:     cfg.Window,
		enc:        newWireMetrics(cfg.Metrics, "encode"),
		dec:        newWireMetrics(cfg.Metrics, "decode"),
		durDir:     cfg.DataDir,
		durSync:    cfg.DurableSync,
		durSyncInt: cfg.DurableSyncInterval,
		metrics:    cfg.Metrics,
		flight:     cfg.Flight,
		hsTimeout:  cfg.HandshakeTimeout,
		maxBackoff: cfg.MaxBackoff,
		links:      map[string]*Link{},
		pending:    map[Conn]bool{},
		done:       make(chan struct{}),
	}
	m.wg.Add(2)
	go m.acceptLoop()
	go m.ackerLoop()
	return m, nil
}

// Addr returns the listener's bound address (dialable by remotes).
func (m *Mesh) Addr() string { return m.ln.Addr() }

// Connect registers the link to a remote node, starting its dial loop if
// this side dials (smaller node name dials larger). Idempotent per
// remote. On a durable mesh (MeshConfig.DataDir) it opens the link's
// journal first: recovery reloads the outbound Channel (ack cursor, unacked
// frames, next sequence) and the receive cursor, and queues the inbound
// frames the previous life never finished dispatching; the first handshake's
// ordinary resume exchange replays the rest. An open or recovery failure —
// a journal in a layout this build does not write included — is returned
// instead of silently degrading to an in-memory link.
func (m *Mesh) Connect(remote, addr string) (*Link, error) {
	m.mu.Lock()
	if l, ok := m.links[remote]; ok {
		m.mu.Unlock()
		return l, nil
	}
	var dur *linkDur
	var rec linkRecovery
	if m.durDir != "" && !m.closed {
		var err error
		dur, rec, err = openLinkDur(durable.Options{
			Dir:          filepath.Join(m.durDir, remote),
			Sync:         m.durSync,
			SyncInterval: m.durSyncInt,
			Metrics:      m.metrics,
			Flight:       m.flight,
		})
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	l := &Link{
		mesh:   m,
		remote: remote,
		addr:   addr,
		dialer: m.node < remote,
		phase:  "idle",
		out:    NewChannel(0, m.window),
		q:      newFrameQueue(),
		dur:    dur,
	}
	if dur != nil {
		// Resume where the recovered journal left off. Outbound: the
		// sequence space continues, and sent marks everything a previous
		// life journaled, so the first attach can tell a replay (and a lost
		// journal tail) from frames queued since. Inbound: the peer trims
		// on our acks, so everything below the cursor is already in our
		// journal and must not be double-dispatched when the peer's replay
		// re-delivers it.
		l.out.Restore(rec.cumAck, rec.nextSeq, rec.unacked)
		l.sent = rec.nextSeq - 1
		l.in = RecvCursor{next: rec.recvNext}
	}
	l.out.AddConsumer(remote)
	if m.closed {
		l.closed = true
		l.phase = "closed"
	}
	m.links[remote] = l
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return l, nil
	}
	if dur != nil {
		// Re-dispatch the inbound frames the crash interrupted, in journal
		// order, ahead of anything a fresh conn delivers. The dispatcher
		// starts below, so these drain as soon as the handler is ready.
		for _, f := range rec.replay {
			l.q.push(f)
		}
	}
	m.wg.Add(2)
	go l.writer()
	go l.dispatcher()
	if l.dialer {
		m.wg.Add(1)
		go l.dialLoop()
	} else {
		l.mu.Lock()
		l.phase = "accept-wait"
		l.mu.Unlock()
	}
	return l, nil
}

// Link returns the link to a remote node, nil if never connected.
func (m *Mesh) Link(remote string) *Link {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.links[remote]
}

// Links returns every link, sorted by remote node name.
func (m *Mesh) Links() []*Link {
	m.mu.Lock()
	out := make([]*Link, 0, len(m.links))
	for _, l := range m.links {
		out = append(out, l)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].remote < out[j].remote })
	return out
}

// Stats snapshots every link's counters, sorted by remote node name.
func (m *Mesh) Stats() []LinkStats {
	links := m.Links()
	out := make([]LinkStats, 0, len(links))
	for _, l := range links {
		out = append(out, l.Stats())
	}
	return out
}

// acceptLoop accepts inbound conns until the listener closes; each conn
// handshakes on its own goroutine so a stalled peer cannot block others.
func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go m.handleIncoming(conn)
	}
}

// handleIncoming runs the accepting half of the handshake: require a
// version-matching Hello from a known remote — anything else is refused, with
// the reason left in the flight recorder — answer with Welcome and our resume
// cursor, and attach the conn to the remote's link, which mints fresh codec
// halves for it.
func (m *Mesh) handleIncoming(conn Conn) {
	defer m.wg.Done()
	if !m.trackPending(conn, true) {
		conn.Close()
		return
	}
	attached := false
	defer func() {
		m.trackPending(conn, false)
		if !attached {
			conn.Close()
		}
	}()
	if hs := m.hsTimeout; hs > 0 {
		conn.SetReadDeadline(time.Now().Add(hs)) //nolint:errcheck // a failed deadline surfaces as a read error
	}
	payload, err := conn.ReadFrame()
	if err != nil {
		return
	}
	f, err := DecodeFrame(payload)
	if err != nil || f.Type != FrameHello {
		return
	}
	if f.Version != ProtocolVersion {
		m.refuse(f, "version mismatch") //nolint:errcheck // recorded; the dialer sees the close
		return
	}
	m.mu.Lock()
	l := m.links[f.Node]
	m.mu.Unlock()
	if l == nil {
		m.refuse(f, "unknown node: membership is static") //nolint:errcheck // recorded; the dialer sees the close
		return
	}
	welcome := &Frame{Type: FrameWelcome, Version: ProtocolVersion, Node: m.node}
	l.mu.Lock()
	welcome.Resume = l.in.Next()
	l.mu.Unlock()
	if err := conn.WriteFrame(EncodeFrame(welcome)); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // handshake deadline over; the reader arms its own
	attached = true
	l.mu.Lock()
	l.attachLocked(conn, f.Resume)
	l.mu.Unlock()
}

// refuse turns a handshake down for the stated reason: it records a
// handshake.refuse flight event naming the remote node, its protocol version
// and ours, and returns the same as an error.
func (m *Mesh) refuse(f *Frame, why string) error {
	err := fmt.Errorf("transport: handshake: %s refuses %s from node %q: %s (it speaks protocol version %d, this build %d)",
		m.node, f.Type, f.Node, why, f.Version, ProtocolVersion)
	m.flight.Record("handshake.refuse", err.Error())
	return err
}

// trackPending records a conn that is mid-handshake (blocked reads with
// no owning link yet) so Close can break it; it reports false when the
// mesh is already closed.
func (m *Mesh) trackPending(conn Conn, add bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if add {
		if m.closed {
			return false
		}
		m.pending[conn] = true
		return true
	}
	delete(m.pending, conn)
	return true
}

// ackerLoop is the safety tick behind the dispatchers' ack-on-idle: it asks
// for the ack of frames a reader accepts while its link's dispatcher is
// blocked inside a handler (a cluster's next-run frames, parked until the
// next runtime attaches), so that sender's window does not wait on the
// handler.
func (m *Mesh) ackerLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
			for _, l := range m.Links() {
				l.requestAck()
			}
		}
	}
}

// Checkpoint compacts every durable link's journal to a snapshot of its
// live cursors and unacked frames, with a boundary record: a process that
// crashes after the checkpoint re-dispatches only the inbound frames
// received since. Call it at quiescent points — the runtime calls it
// after each run's barrier, when every journal has drained. No-op on
// in-memory meshes.
func (m *Mesh) Checkpoint() {
	for _, l := range m.Links() {
		l.checkpoint()
	}
}

// DropConns force-closes every attached conn without closing the links —
// the reconnect chaos hook. Links detach, redial and replay; it returns
// how many conns were dropped.
func (m *Mesh) DropConns() int {
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

// WaitConnected blocks until every link has an attached conn, or the
// timeout elapses (error names the unconnected remotes).
func (m *Mesh) WaitConnected(timeout time.Duration) error {
	waiting, _ := m.waitLinks(timeout, func(l *Link) int {
		if l.conn == nil {
			return 1
		}
		return 0
	})
	if len(waiting) > 0 {
		return fmt.Errorf("transport: links not connected: %v", waiting)
	}
	return nil
}

// WaitDrained asks every link to ack every frame this node has accepted, so
// no remote's wait on those acks outlives this node's mesh, then blocks
// until every ack owed on an attached conn has been written and every
// link's replay journal is empty — every sequenced frame sent has been
// accepted by its remote — or the timeout elapses. Closed links, whose
// journals can no longer drain, are skipped.
func (m *Mesh) WaitDrained(timeout time.Duration) error {
	for _, l := range m.Links() {
		l.requestAck()
	}
	owing := func(l *Link) int {
		n := l.out.Depth()
		if l.conn != nil && l.ackOwed > l.ackSent {
			n++
		}
		return n
	}
	if _, depth := m.waitLinks(timeout, owing); depth > 0 {
		return fmt.Errorf("transport: links not drained: %d frames unacked", depth)
	}
	return nil
}

// waitLinks blocks until short is 0 on every open link or the timeout
// elapses, and returns the remotes still short and what they are short by.
// short runs under the link's lock and the wait sleeps on that lock's
// condition variable, which acks, attach, detach and close all broadcast;
// the timeout is one timer that raises a flag and broadcasts too. A pass
// that had to wait goes round again, so success is one pass that found
// every link ready.
func (m *Mesh) waitLinks(timeout time.Duration, short func(*Link) int) (remotes []string, total int) {
	var expired atomic.Bool
	timer := time.AfterFunc(timeout, func() {
		expired.Store(true)
		for _, l := range m.Links() {
			l.mu.Lock()
			l.mu.Broadcast()
			l.mu.Unlock()
		}
	})
	defer timer.Stop()
	for {
		waited := false
		remotes, total = nil, 0
		for _, l := range m.Links() {
			l.mu.Lock()
			for !l.closed && short(l) > 0 && !expired.Load() {
				waited = true
				l.mu.Wait()
			}
			if n := short(l); n > 0 && !l.closed {
				remotes = append(remotes, l.remote)
				total += n
			}
			l.mu.Unlock()
		}
		if !waited || expired.Load() {
			return remotes, total
		}
	}
}

// Close tears the mesh down deterministically: the listener stops, every
// link's conn and mid-handshake conn closes, blocked senders return
// ErrClosed, and Close waits for every mesh goroutine (accept, acker,
// dialers, writers, readers, dispatchers) to exit. Idempotent.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	close(m.done)
	pending := make([]Conn, 0, len(m.pending))
	for c := range m.pending {
		pending = append(pending, c)
	}
	m.pending = map[Conn]bool{}
	links := make([]*Link, 0, len(m.links))
	for _, l := range m.links {
		links = append(links, l)
	}
	m.mu.Unlock()

	m.ln.Close()
	for _, c := range pending {
		c.Close()
	}
	for _, l := range links {
		l.mu.Lock()
		l.closeLocked()
		l.mu.Unlock()
	}
	m.wg.Wait()
	// All mesh goroutines are gone: no more journal appends. Sync and
	// close the link WALs so a clean shutdown recovers instantly.
	var werr error
	for _, l := range links {
		if l.dur != nil {
			if err := l.dur.wal.Close(); err != nil && werr == nil {
				werr = err
			}
		}
	}
	return werr
}

// DumpState writes the mesh's per-link protocol state (phase, cursors,
// journal depth, counters) — wired into testutil.OnHang so hung
// distributed tests show where the transport stands.
func (m *Mesh) DumpState(w io.Writer) {
	fmt.Fprintf(w, "mesh %s @ %s:\n", m.node, m.Addr())
	for _, l := range m.Links() {
		l.dumpState(w)
	}
}
