package runtime

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/testutil"
	"streamshare/internal/transport"
	"streamshare/internal/xmlstream"
)

// Seeded fault schedules: conn faults counted in frames, not clock ticks, each
// run derived from one integer so that any failing seed replays.

// faultTransport wraps a transport with a fault schedule drawn from one seed.
// Conns are numbered per end, in the order they are dialled or accepted; while
// an end's budget lasts, its next conn is armed with one fault: a write or a
// read, at a frame index counted from the conn's first frame. Index 0 is the
// Hello or the Welcome, so a fault may break a handshake, and acks count like
// any frame. A fault closes the conn and fails its call, the way a broken
// socket fails its user. The budget ends every run: once it is spent, conns
// carry on untouched.
type faultTransport struct {
	transport.Transport
	mu    sync.Mutex
	sched [2][]connFault // by end: dialled, accepted
	next  [2]int
	fired atomic.Int64 // faults that fired
	late  atomic.Int64 // of those, faults past the conn's handshake frame
}

// connFault is one conn's armed fault: its call fails at the at-th frame.
type connFault struct {
	read bool
	at   int64
}

// newFaultTransport draws the schedule of seed over tr: one to four faults
// per end, each a write or a read at one of the conn's first 16 frames.
func newFaultTransport(tr transport.Transport, seed int64) *faultTransport {
	f := &faultTransport{Transport: tr}
	r := rand.New(rand.NewSource(seed))
	for end := range f.sched {
		for n := 1 + r.Intn(4); n > 0; n-- {
			f.sched[end] = append(f.sched[end], connFault{read: r.Intn(2) == 0, at: int64(r.Intn(16))})
		}
	}
	return f
}

// arm wraps the next conn of end with its scheduled fault, if any is left.
func (f *faultTransport) arm(c transport.Conn, end int) transport.Conn {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next[end] == len(f.sched[end]) {
		return c
	}
	f.next[end]++
	return &faultConn{Conn: c, t: f, fault: f.sched[end][f.next[end]-1]}
}

func (f *faultTransport) Dial(addr string) (transport.Conn, error) {
	c, err := f.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return f.arm(c, 0), nil
}

func (f *faultTransport) Listen(addr string) (transport.Listener, error) {
	l, err := f.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: l, t: f}, nil
}

type faultListener struct {
	transport.Listener
	t *faultTransport
}

func (l *faultListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.arm(c, 1), nil
}

// faultConn counts its writes and reads apart; each side has one goroutine at
// a time (a handshake half, then the link's writer or reader).
type faultConn struct {
	transport.Conn
	t             *faultTransport
	fault         connFault
	writes, reads atomic.Int64
}

// trip reports whether this call is the armed one, and if so breaks the conn.
func (c *faultConn) trip(read bool, n *atomic.Int64) bool {
	if at := n.Add(1) - 1; read != c.fault.read || at != c.fault.at {
		return false
	}
	c.t.fired.Add(1)
	if c.fault.at > 0 {
		c.t.late.Add(1)
	}
	c.Conn.Close()
	return true
}

func (c *faultConn) WriteFrame(payload []byte) error {
	if c.trip(false, &c.writes) {
		return transport.ErrClosed
	}
	return c.Conn.WriteFrame(payload)
}

func (c *faultConn) ReadFrame() ([]byte, error) {
	if c.trip(true, &c.reads) {
		return nil, transport.ErrClosed
	}
	return c.Conn.ReadFrame()
}

// faultSeeds is how many seeds TestClusterFaultSchedule runs; the
// STREAMSHARE_FAULT_SEEDS environment variable sets another count.
const faultSeeds = 32

// faultQuiet is each faulted run's no-progress bound: a frame a reconnect
// loses fails its seed with the stall message, not at the watchdog.
const faultQuiet = 2 * time.Second

// TestClusterFaultSchedule is the reconnect acceptance test: every seed
// derives a scenario (the benchmark's plan or a random grid), a batch size,
// reliable sessions on or off, a transport (TCP for every eighth seed, Mem
// otherwise) and a fault schedule, runs the scenario as a two-node cluster
// under the schedule, and holds the merged delivery to the simulator item for
// item. A fault past a handshake must leave a reconnect, the nodes must hand
// consumers shared trees without reparsing (runtime.parse.skipped), and a
// reliable session must queue no fault. A seed replays alone:
// go test -run 'TestClusterFaultSchedule/seed=7$' ./internal/runtime.
func TestClusterFaultSchedule(t *testing.T) {
	seeds := faultSeeds
	if s := os.Getenv("STREAMSHARE_FAULT_SEEDS"); s != "" {
		var err error
		if seeds, err = strconv.Atoi(s); err != nil {
			t.Fatalf("STREAMSHARE_FAULT_SEEDS=%q: %v", s, err)
		}
	}
	var fired, late, recon atomic.Int64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f, p, n := runFaultSeed(t, seed)
			fired.Add(f)
			late.Add(p)
			recon.Add(n)
		})
	}
	t.Logf("%d seeds: %d faults fired, %d past a handshake, %d reconnects", seeds, fired.Load(), late.Load(), recon.Load())
}

// runFaultSeed runs one seed of TestClusterFaultSchedule and returns the
// faults that fired, those past a handshake, and the reconnects recorded.
func runFaultSeed(t *testing.T, seed int64) (fired, late, reconnects int64) {
	r := rand.New(rand.NewSource(seed))
	reliable := r.Intn(2) == 0
	batch := 4 + r.Intn(13)
	build, shape := benchScenario(reliable), "bench"
	if r.Intn(3) > 0 {
		n, queries, items := 2+r.Intn(2), 4+r.Intn(5), 100+r.Intn(101)
		build = func() (*core.Engine, map[string][]*xmlstream.Element, error) {
			return clusterBuild(n, queries, items, reliable)
		}
		shape = fmt.Sprintf("grid%d_q%d_i%d", n, queries, items)
	}
	var tr transport.Transport = transport.NewMem()
	if seed%8 == 0 {
		tr = transport.NewTCP()
	}
	ft := newFaultTransport(tr, r.Int63())
	reconnects = runFaulted(t, shape, build, reliable, batch, ft)
	return ft.fired.Load(), ft.late.Load(), reconnects
}

// runFaulted runs build's scenario as a two-node cluster over ft, each
// runtime with batch and, when reliable, a session of its own, and holds the
// merged delivery to the simulator. A fault past a handshake must leave a
// reconnect, and the nodes must hand consumers shared trees without
// reparsing. It returns the reconnects both nodes recorded.
func runFaulted(t *testing.T, shape string, build buildFunc, reliable bool, batch int, ft *faultTransport) int64 {
	defer testutil.Watchdog(t, 2*time.Minute)()
	ref := simulate(t, build)
	cs, engs := runCluster(t, ft, build, ref, reliable, batch, faultQuiet)
	count := func() (n int64) {
		for _, c := range cs {
			for _, st := range c.Stats() {
				n += int64(st.Reconnects)
			}
		}
		return n
	}
	// The fault's link reconnects after it fired, possibly after the run.
	for deadline := time.Now().Add(10 * time.Second); ft.late.Load() > 0 && count() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d faults fired past a handshake and neither node recorded a reconnect", ft.late.Load())
		}
	}
	skipped := 0.0
	for _, eng := range engs {
		skipped += eng.Obs().Metrics.Snapshot().Counters["runtime.parse.skipped"]
	}
	if skipped == 0 {
		t.Error("runtime.parse.skipped never moved; consumers were not handed shared trees")
	}
	reconnects := count()
	t.Logf("%s batch %d reliable=%v %T: %d faults fired (%d past a handshake), %d reconnects, %.0f reparses skipped",
		shape, batch, reliable, ft.Transport, ft.fired.Load(), ft.late.Load(), reconnects, skipped)
	return reconnects
}

// chaosSchedule is the fault schedule of the fixed reconnect tests below.
const chaosSchedule = 29

// testReconnectChaos runs build's scenario, reliable, in batches of 8 (many
// frames, so faults land mid-stream) under chaosSchedule over tr, and fails
// unless a fault broke a conn past its handshake and a reconnect followed.
func testReconnectChaos(t *testing.T, tr transport.Transport, shape string, build buildFunc) {
	ft := newFaultTransport(tr, chaosSchedule)
	if runFaulted(t, shape, build, true, 8, ft) == 0 {
		t.Fatalf("no reconnects after %d faults, %d past a handshake; breaks never landed mid-stream", ft.fired.Load(), ft.late.Load())
	}
}

// TestClusterReconnectChaosMem is the grid with its conns broken mid-run:
// every reconnect replays, and delivery still matches the simulator.
func TestClusterReconnectChaosMem(t *testing.T) {
	testReconnectChaos(t, transport.NewMem(), "grid", gridScenario(true))
}

// TestClusterReconnectChaosTCP is the same over TCP: the reconnect
// handshake's resume/replay must hand every subscription exactly the
// simulator's items.
func TestClusterReconnectChaosTCP(t *testing.T) {
	testReconnectChaos(t, transport.NewTCP(), "grid", gridScenario(true))
}

// TestClusterReconnectChaosBenchPlanMem is the benchmark's plan with conns
// broken mid-run.
func TestClusterReconnectChaosBenchPlanMem(t *testing.T) {
	testReconnectChaos(t, transport.NewMem(), "bench", benchScenario(true))
}

// TestTreePlaneRandomizedDisconnects runs three random grid shapes as a
// two-node reliable cluster whose conns break mid-run, so the journal and
// replay path handles tree batches (dedup slicing, journaling by pointer),
// not just the happy path. Each trial's schedule is seeded from its index.
func TestTreePlaneRandomizedDisconnects(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7ee9))
	for trial := int64(0); trial < 3; trial++ {
		n, queries, items := 2+rng.Intn(2), 4+rng.Intn(5), 100+rng.Intn(101)
		batch := 4 * (1 + rng.Intn(2))
		shape := fmt.Sprintf("grid%d_q%d_i%d_b%d", n, queries, items, batch)
		t.Run(shape, func(t *testing.T) {
			ft := newFaultTransport(transport.NewMem(), 0x7ee9+trial)
			build := func() (*core.Engine, map[string][]*xmlstream.Element, error) {
				return clusterBuild(n, queries, items, true)
			}
			if runFaulted(t, shape, build, true, batch, ft) == 0 {
				t.Fatalf("no reconnects after %d faults, %d past a handshake; breaks never landed mid-stream", ft.fired.Load(), ft.late.Load())
			}
		})
	}
}
