package runtime

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/transport"
	"streamshare/internal/xmlstream"
)

// This file distributes a run across OS processes. A Cluster is one
// process's membership in a super-peer network: a transport.Mesh of
// reliable links to the other nodes, plus an ownership map that assigns
// every network peer to exactly one cluster node. Each process builds the
// same engine (plans are deterministic in the scenario seed), attaches a
// Runtime to its Cluster, and runs: batches whose next hop is owned by a
// remote node travel as FrameBatch over the mesh instead of the local
// mailbox, and channel acks return as FrameAck. A process injects faults
// only into the peers and links it hosts (Runtime.KillPeer, SeverLink), so
// no liveness crosses the wire. The link layer's journal/replay/dedup (see transport) makes the hop
// loss-free across TCP reconnects, so the distributed run delivers
// item-for-item what the in-process runtime — and the simulator — deliver.
//
// Termination across processes rides the EOS markers: at build time each
// runtime counts its remote-ingress lanes — (stream, hop) pairs it owns
// whose previous hop is owned elsewhere — and Run's quiescence waits until
// every such lane has seen its EOS, all local work has drained, and no
// batch is parked awaiting a remote ack. Before returning, Run waits for
// the mesh journals to drain so a process exiting early cannot strand
// undelivered frames.

// ClusterOptions configures one process's cluster membership.
type ClusterOptions struct {
	// Node is this process's cluster node name. Between two nodes, the
	// lexicographically smaller name dials the larger.
	Node string

	// Nodes maps every cluster node name to its address. The local entry
	// is the listen address; a remote entry may be empty when that node
	// dials us (larger names accept from smaller ones).
	Nodes map[string]string

	// Transport carries the frames; nil means TCP.
	Transport transport.Transport

	// DataDir enables durable links: every link journals its protocol
	// state to a write-ahead log under DataDir/<remote>/ and a process
	// restarted with the same directory resumes each link where the
	// crashed one left off (see transport.MeshConfig.DataDir).
	// Empty keeps links in-memory.
	DataDir string

	// DurableSync selects the WAL sync policy when DataDir is set; the
	// zero value is durable.SyncAlways. See durable.Sync for the
	// guarantees each policy carries.
	DurableSync durable.Sync

	// DurableSyncInterval bounds the data-loss window under
	// durable.SyncInterval (50ms when 0).
	DurableSyncInterval time.Duration

	// Metrics receives the mesh's instruments: the codec's wire.encode.*
	// and wire.decode.* per batch (see transport.MeshConfig.Metrics) and,
	// on durable links, the WAL's (fsync latency, recovery counters); nil
	// disables them.
	Metrics *obs.Registry

	// Flight receives the mesh's flight-recorder events (handshake.refuse,
	// and wal.* from the durable layer); nil disables them.
	Flight *obs.FlightRecorder
}

// Cluster is one process's endpoint in a multi-process super-peer network.
// Create it with NewCluster, pass it to runtimes via Options.Cluster, and
// Close it once, after the last run.
type Cluster struct {
	node string
	mesh *transport.Mesh

	// assign maps every peer of the network NewCluster was given to the node
	// that executes it; peers and cut are this node's share of it and the
	// links it cuts. Fixed by NewCluster, read-only after.
	assign     map[network.PeerID]string
	peers, cut int

	// amu guards the attached runtime and the control handler; acond wakes
	// dispatchers blocked waiting for either.
	amu     sync.Mutex
	acond   *sync.Cond
	rt      *Runtime
	control func(from string, data []byte)
	closed  bool

	// bmu guards the termination-barrier bookkeeping: barrier frames
	// received per remote, and the rounds this node has entered. bcond wakes
	// a barrier wait: a token landed, its timeout fired, the cluster closed.
	bmu    sync.Mutex
	bcond  *sync.Cond
	brcvd  map[string]int
	bround int
}

// barrierMagic marks a control frame as a termination-barrier token;
// user control payloads never start with a NUL byte. Read-only.
var barrierMagic = []byte("\x00streamshare.barrier")

// PartitionPeers places every peer of net on one cluster node so that few
// links cross between nodes: a crossing link is the only kind that pays for
// encoding, a socket write and decoding. It reads the static topology —
// every peer and link, up or down — so a failure never moves a peer. With n
// peers and k sorted node names, node j gets exactly the peers that index
// i*k/n of the sorted peer list would give it, and the smallest peer goes to
// the smallest node. The node names are bisected recursively (bisect).
// Every process computes the same map from the same inputs, so no
// coordination is needed; NewCluster computes it once, from the network the
// process starts with.
func PartitionPeers(net *network.Network, nodes []string) map[network.PeerID]string {
	ns := append([]string(nil), nodes...)
	sort.Strings(ns)
	peers := net.Peers()
	share := make([]int, len(ns))
	for i := range peers {
		share[i*len(ns)/len(peers)]++
	}
	// A peer is its index in the sorted list. Links come sorted by (A, B),
	// so every adjacency list is sorted too.
	idx := make(map[network.PeerID]int, len(peers))
	for i, p := range peers {
		idx[p] = i
	}
	pl := placer{
		peers: peers,
		adj:   make([][]int, len(peers)),
		side:  make([]int8, len(peers)),
		out:   make(map[network.PeerID]string, len(peers)),
	}
	for _, l := range net.Links() {
		a, b := idx[l.A], idx[l.B]
		pl.adj[a] = append(pl.adj[a], b)
		pl.adj[b] = append(pl.adj[b], a)
	}
	all := make([]int, len(peers))
	for i := range all {
		all[i] = i
	}
	pl.bisect(all, ns, share)
	return pl.out
}

// placer is PartitionPeers' state: the sorted peers, their adjacency by
// index, and each peer's side of the bisection under way — 0 outside the
// part being bisected, so links that leave the part, which cross whatever
// its split, count nowhere.
type placer struct {
	peers []network.PeerID
	adj   [][]int
	side  []int8
	out   map[network.PeerID]string
}

const (
	leftSide  int8 = 1
	rightSide int8 = 2
)

// bisect places part — sorted peer indices — on the sorted nodes ns, node i
// taking share[i] of them. The left half of ns takes its share in BFS order
// from the smallest peer (then from the smallest one not yet reached), and
// then the left/right pair whose swap shrinks the cut inside part most —
// ties to the smaller ids — is swapped until no swap shrinks it
// (Kernighan–Lin pair swaps, greedy). The smallest peer never leaves the
// left half. A swap round costs the part's links plus, at worst, its
// left × right pairs, and there are fewer rounds than links in the first
// cut. On sgd's grids the whole placement takes 1.5 ms at -grid 32 (1024
// peers) and 6 ms at -grid 64, on two or four nodes (BenchmarkPartitionPeers,
// 2-core x86-64 VM).
func (pl *placer) bisect(part []int, ns []string, share []int) {
	if len(ns) <= 1 {
		for _, p := range part {
			pl.out[pl.peers[p]] = ns[0]
		}
		return
	}
	mid, n := len(ns)/2, 0
	for _, s := range share[:mid] {
		n += s
	}
	side, adj := pl.side, pl.adj
	for _, p := range part {
		side[p] = rightSide
	}
	order := make([]int, 0, len(part))
	seen := make([]bool, len(side))
	for _, root := range part {
		if seen[root] {
			continue
		}
		seen[root] = true
		order = append(order, root)
		for i := len(order) - 1; i < len(order); i++ {
			for _, w := range adj[order[i]] {
				if side[w] != 0 && !seen[w] {
					seen[w] = true
					order = append(order, w)
				}
			}
		}
	}
	for _, p := range order[:n] {
		side[p] = leftSide
	}
	gain := make([]int, len(side))
	var ls, rs []int
	for {
		// gain[p]: p's links to the other side minus its links to its own.
		ls, rs = ls[:0], rs[:0]
		maxR := 0
		for i, p := range part {
			g := 0
			for _, w := range adj[p] {
				if side[w] == 0 {
					continue
				} else if side[w] != side[p] {
					g++
				} else {
					g--
				}
			}
			gain[p] = g
			if side[p] == rightSide {
				if len(rs) == 0 || g > maxR {
					maxR = g
				}
				rs = append(rs, p)
			} else if i > 0 {
				ls = append(ls, p)
			}
		}
		// The first pair in sorted order with the largest gain; a pair whose
		// gains cannot beat the best so far is skipped unexamined.
		best, a, b := 0, 0, 0
		for _, x := range ls {
			if gain[x]+maxR <= best {
				continue
			}
			for _, y := range rs {
				g := gain[x] + gain[y]
				if g <= best {
					continue
				}
				if slices.Contains(adj[x], y) {
					g -= 2
				}
				if g > best {
					best, a, b = g, x, y
				}
			}
		}
		if best == 0 {
			break
		}
		side[a], side[b] = rightSide, leftSide
	}
	var lp, rp []int
	for _, p := range part {
		if side[p] == leftSide {
			lp = append(lp, p)
		} else {
			rp = append(rp, p)
		}
		side[p] = 0
	}
	pl.bisect(lp, ns[:mid], share[:mid])
	pl.bisect(rp, ns[mid:], share[mid:])
}

// NewCluster places the peers of net on the nodes of opts.Nodes
// (PartitionPeers), binds the node's mesh listener and connects the links to
// every other node. The placement is of net as the process starts, before a
// catalog replays adaptations into it: a link or peer added later moves no
// peer, so a node restarted over its journal places them as its first life
// and every other node did. A peer added later runs on no node.
func NewCluster(net *network.Network, opts ClusterOptions) (*Cluster, error) {
	if opts.Node == "" {
		return nil, fmt.Errorf("runtime: cluster needs a node name")
	}
	if _, ok := opts.Nodes[opts.Node]; !ok {
		return nil, fmt.Errorf("runtime: cluster node %q missing from the node map", opts.Node)
	}
	tr := opts.Transport
	if tr == nil {
		tr = transport.NewTCP()
	}
	c := &Cluster{node: opts.Node}
	names := make([]string, 0, len(opts.Nodes))
	for name := range opts.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	c.assign = PartitionPeers(net, names)
	for _, node := range c.assign {
		if node == c.node {
			c.peers++
		}
	}
	for _, l := range net.Links() {
		if c.assign[l.A] != c.assign[l.B] {
			c.cut++
		}
	}
	c.acond = sync.NewCond(&c.amu)
	c.bcond = sync.NewCond(&c.bmu)
	mesh, err := transport.NewMesh(transport.MeshConfig{
		Transport:           tr,
		Node:                opts.Node,
		Listen:              opts.Nodes[opts.Node],
		Handler:             c.handle,
		DataDir:             opts.DataDir,
		DurableSync:         opts.DurableSync,
		DurableSyncInterval: opts.DurableSyncInterval,
		Metrics:             opts.Metrics,
		Flight:              opts.Flight,
	})
	if err != nil {
		return nil, err
	}
	c.mesh = mesh
	for _, name := range names {
		if name == opts.Node {
			continue
		}
		if opts.Node < name && opts.Nodes[name] == "" {
			c.Close()
			return nil, fmt.Errorf("runtime: cluster node %q needs an address (%q dials it)", name, opts.Node)
		}
		if _, err := c.mesh.Connect(name, opts.Nodes[name]); err != nil {
			c.Close()
			return nil, fmt.Errorf("runtime: cluster link to %q: %w", name, err)
		}
	}
	return c, nil
}

// Node returns this process's cluster node name.
func (c *Cluster) Node() string { return c.node }

// Addr returns the mesh listener's bound address.
func (c *Cluster) Addr() string { return c.mesh.Addr() }

// Checkpoint compacts every durable link's journal to a snapshot of its
// current protocol state. Call it at quiescent points — the runtime calls
// it after each run's termination barrier — so journals do not grow
// without bound across runs. No-op on in-memory clusters.
func (c *Cluster) Checkpoint() { c.mesh.Checkpoint() }

// WaitConnected blocks until every link is attached or the timeout lapses.
func (c *Cluster) WaitConnected(timeout time.Duration) error {
	return c.mesh.WaitConnected(timeout)
}

// DropConns force-closes every attached conn without closing the links —
// the reconnect chaos hook; links redial and replay. Returns the number
// of conns dropped.
func (c *Cluster) DropConns() int { return c.mesh.DropConns() }

// Stats snapshots the per-link transport counters.
func (c *Cluster) Stats() []transport.LinkStats { return c.mesh.Stats() }

// DumpState writes the mesh's per-link protocol state — wire it into
// testutil.OnHang so hung distributed tests show where the transport
// stands.
func (c *Cluster) DumpState(w io.Writer) { c.mesh.DumpState(w) }

// SetControl installs the handler for sequenced control frames (the
// server's cross-process coordination). The handler runs on a per-link
// dispatcher goroutine, in arrival order per sender; control frames that
// arrive first wait for it, as data frames wait for a runtime.
func (c *Cluster) SetControl(h func(from string, data []byte)) {
	c.amu.Lock()
	c.control = h
	c.acond.Broadcast()
	c.amu.Unlock()
}

// SendControl sends one reliable, ordered control payload to a node.
func (c *Cluster) SendControl(node string, data []byte) error {
	l := c.mesh.Link(node)
	if l == nil {
		return fmt.Errorf("runtime: cluster: no link to %q", node)
	}
	return l.Send(&transport.Frame{Type: transport.FrameControl, Data: data})
}

// BroadcastControl sends one control payload to every other node,
// returning the first error.
func (c *Cluster) BroadcastControl(data []byte) error {
	var first error
	for _, l := range c.mesh.Links() {
		if err := l.Send(&transport.Frame{Type: transport.FrameControl, Data: data}); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Nodes returns every cluster node name (self included), sorted.
func (c *Cluster) Nodes() []string {
	out := []string{c.node}
	for _, l := range c.mesh.Links() {
		out = append(out, l.Remote())
	}
	sort.Strings(out)
	return out
}

// Close tears the mesh down deterministically — listener, conns and every
// transport goroutine — and unblocks dispatchers waiting for a runtime and
// a run waiting at the termination barrier. Idempotent.
func (c *Cluster) Close() error {
	c.amu.Lock()
	c.closed = true
	c.acond.Broadcast()
	c.amu.Unlock()
	c.bmu.Lock()
	c.bcond.Broadcast()
	c.bmu.Unlock()
	return c.mesh.Close()
}

// NodeOf returns the cluster node that executes peer p — the same answer
// every runtime built on this cluster acts on — or "" for a peer the
// placement does not cover.
func (c *Cluster) NodeOf(p network.PeerID) string { return c.assign[p] }

// Placement returns how many peers this node executes and how many links
// of the placed network join peers on two different nodes: the links every
// crossing hop pays a socket for.
func (c *Cluster) Placement() (peers, cut int) { return c.peers, c.cut }

// attach publishes a fully-built runtime to the cluster's dispatchers
// (NewWith calls it last).
func (c *Cluster) attach(r *Runtime) {
	c.amu.Lock()
	c.rt = r
	c.acond.Broadcast()
	c.amu.Unlock()
}

// detach retires a runtime once its run has passed the termination
// barrier — past it, no frame for that run can still arrive, but frames
// for a cluster's NEXT run may race ahead of the local process building
// its next runtime. Detaching makes those early frames park in runtime()
// instead of leaking into the finished runtime's closed mailboxes.
func (c *Cluster) detach(r *Runtime) {
	c.amu.Lock()
	if c.rt == r {
		c.rt = nil
	}
	c.amu.Unlock()
}

// runtime blocks until a runtime is attached (frames can arrive before the
// remote process finished building one) or the cluster closes (nil).
func (c *Cluster) runtime() *Runtime {
	c.amu.Lock()
	defer c.amu.Unlock()
	for c.rt == nil && !c.closed {
		c.acond.Wait()
	}
	return c.rt
}

// handle is the mesh frame handler, running on a per-link dispatcher
// goroutine: data and ack frames go to the attached runtime, control frames
// go to the installed handler.
func (c *Cluster) handle(remote string, f *transport.Frame) {
	switch f.Type {
	case transport.FrameBatch, transport.FrameAck:
		if r := c.runtime(); r != nil {
			r.clusterFrame(f)
		}
	case transport.FrameControl:
		if bytes.Equal(f.Data, barrierMagic) {
			c.bmu.Lock()
			if c.brcvd == nil {
				c.brcvd = map[string]int{}
			}
			c.brcvd[remote]++
			c.bcond.Broadcast()
			c.bmu.Unlock()
			return
		}
		c.amu.Lock()
		for c.control == nil && !c.closed {
			c.acond.Wait()
		}
		h := c.control
		c.amu.Unlock()
		if h != nil {
			h(remote, f.Data)
		}
	}
}

// barrier synchronizes run termination across the cluster: each node
// sends one sequenced barrier token per round and waits until every other
// node's token for this round has arrived, and then until its own tokens have
// been accepted. Run calls it after its own mesh journals drain, so no
// process can tear its mesh down while a peer's final frames (trailing
// consumer acks, EOS markers, its barrier token) are still unaccepted — the
// race that would otherwise strand the peer's journal or leave it waiting for
// a token that never left this process.
func (c *Cluster) barrier(timeout time.Duration) error {
	c.bmu.Lock()
	c.bround++
	round := c.bround
	c.bmu.Unlock()
	links := c.mesh.Links()
	for _, l := range links {
		if err := l.Send(&transport.Frame{Type: transport.FrameControl, Data: barrierMagic}); err != nil {
			return fmt.Errorf("runtime: cluster barrier to %q: %w", l.Remote(), err)
		}
	}
	if err := c.awaitTokens(round, links, timeout); err != nil {
		return err
	}
	if err := c.mesh.WaitDrained(timeout); err != nil {
		return fmt.Errorf("runtime: cluster barrier: %w", err)
	}
	return nil
}

// awaitTokens waits until every link's remote has sent its token for round.
func (c *Cluster) awaitTokens(round int, links []*transport.Link, timeout time.Duration) error {
	expired := false // guarded by bmu
	timer := time.AfterFunc(timeout, func() {
		c.bmu.Lock()
		expired = true
		c.bcond.Broadcast()
		c.bmu.Unlock()
	})
	defer timer.Stop()
	c.bmu.Lock()
	defer c.bmu.Unlock()
	for {
		var waiting []string
		for _, l := range links {
			if c.brcvd[l.Remote()] < round {
				waiting = append(waiting, l.Remote())
			}
		}
		if len(waiting) == 0 {
			return nil
		}
		// Close sets closed before it takes bmu to broadcast: no lost wake-up.
		c.amu.Lock()
		closed := c.closed
		c.amu.Unlock()
		if closed {
			return fmt.Errorf("runtime: cluster closed during termination barrier")
		}
		if expired {
			return fmt.Errorf("runtime: cluster barrier: no token from %v", waiting)
		}
		c.bcond.Wait()
	}
}

// sendFrame sends one sequenced frame to a node's link.
func (c *Cluster) sendFrame(node string, f *transport.Frame) error {
	l := c.mesh.Link(node)
	if l == nil {
		return fmt.Errorf("runtime: cluster: no link to %q", node)
	}
	return l.Send(f)
}

// --- Runtime cluster data path ---

// sendRemote is where send lands a message whose next hop lives on another
// cluster node: a frame on that node's link, carrying the stream id, hop,
// channel sequencing header and (when sampled) the provenance span. The
// batch crosses as trees: the link journals them by pointer and encodes them
// straight into the dictionary wire format for whichever conn carries them.
func (r *Runtime) sendRemote(m message, peer network.PeerID) {
	f := &transport.Frame{
		Type:   transport.FrameBatch,
		Stream: m.stream.ID,
		Hop:    m.hop,
		Epoch:  m.epoch,
		SeqLo:  m.seqLo,
		EOS:    m.eos,
		Elems:  m.elems,
	}
	if m.span != nil {
		f.Span = obs.AppendSpanHeader(nil, m.span)
	}
	if err := r.cluster.sendFrame(r.owners[peer], f); err != nil {
		r.fail(fmt.Errorf("runtime: cluster send %s hop %d: %w", m.stream.ID, m.hop, err))
	}
}

// clusterFrame handles one inbound data-plane frame (dispatcher
// goroutine): batches are injected into the owning peer's mailbox, acks
// advance the local emitter channel. Either way quiescence re-evaluates. A
// batch arrives as trees whether a conn's decoder or a recovered journal
// produced it.
func (r *Runtime) clusterFrame(f *transport.Frame) {
	switch f.Type {
	case transport.FrameBatch:
		d := r.byID[f.Stream]
		if d == nil || f.Hop <= 0 || f.Hop >= len(d.Route) {
			r.unroutable("batch", f.Stream, f.Hop, "no such stream and hop in this engine")
			return
		}
		m := message{stream: d, hop: f.Hop, elems: f.Elems, eos: f.EOS, seqLo: f.SeqLo, epoch: f.Epoch}
		for _, e := range m.elems {
			m.xb += xmlstream.MarshalSize(e)
		}
		if len(f.Span) > 0 {
			if sp, _, err := obs.ParseSpanHeader(f.Span); err == nil {
				m.span = sp
			}
		}
		r.injectRemote(m)
	case transport.FrameAck:
		d := r.byID[f.Stream]
		if d == nil {
			r.unroutable("ack", f.Stream, 0, "no such stream in this engine")
			return
		}
		if ch := r.chans[d]; ch != nil {
			ch.ack(r, f.Consumer, f.Ack)
		}
		r.qmu.Lock()
		r.progress++
		r.qcond.Broadcast()
		r.qmu.Unlock()
	}
}

// injectRemote enqueues a remotely-emitted batch exactly as a local send
// would, and retires its EOS lane: the first end-of-stream marker on a
// remote-ingress lane decrements the count Run's quiescence waits on.
func (r *Runtime) injectRemote(m message) {
	peer := m.stream.Route[m.hop]
	dst := r.nodes[peer]
	if dst == nil || !r.localPeer(peer) {
		r.unroutable("batch", m.stream.ID, m.hop, "peer "+string(peer)+" is not executed by this node")
		return
	}
	r.qmu.Lock()
	if m.eos && !r.localPeer(m.stream.Route[m.hop-1]) {
		k := recvKey{m.stream.ID, m.hop}
		if !r.eosSeen[k] {
			r.eosSeen[k] = true
			r.eosWait--
		}
	}
	r.inflight++
	r.progress++
	r.qcond.Broadcast()
	r.qmu.Unlock()
	dst.inbox.push(m)
}

// unroutable leaves the trace of an inbound frame this runtime cannot place —
// the sender's engine holds a plan this one does not: a flight event with
// the reason and a counter. The frame is dropped; the sender's run stalls at
// its quiescence bound if it waited on it.
func (r *Runtime) unroutable(kind, stream string, hop int, why string) {
	r.flight.Record("cluster.frame.unroutable", fmt.Sprintf("%s %s hop %d: %s", kind, stream, hop, why))
	r.eng.Obs().Metrics.Counter("runtime.cluster.frames.unroutable").Inc()
}

// eosLanes lists the remote-ingress (stream, hop) lanes whose EOS has not
// arrived, sorted. Callers hold qmu.
func (r *Runtime) eosLanes() []string {
	var out []string
	for _, d := range r.byID {
		for hop := 1; hop < len(d.Route); hop++ {
			if r.localPeer(d.Route[hop]) && !r.localPeer(d.Route[hop-1]) && !r.eosSeen[recvKey{d.ID, hop}] {
				out = append(out, fmt.Sprintf("(%s, hop %d)", d.ID, hop))
			}
		}
	}
	sort.Strings(out)
	return out
}

// ackStream routes one consumer's cumulative ack to the stream's emitter
// channel: locally when this process owns the emitter (the stream's tap),
// as a FrameAck to the owning node otherwise.
func (r *Runtime) ackStream(d *core.PlanStream, consumer string, seq uint64) {
	if r.owners != nil {
		if owner := r.owners[d.Tap]; owner != r.cluster.node {
			r.sendAck(owner, d, consumer, seq)
			return
		}
	}
	if ch := r.chans[d]; ch != nil {
		ch.ack(r, consumer, seq)
	}
}

// ackReaders is ackStream for every reader of d, which all consumed one
// batch at d's target.
func (r *Runtime) ackReaders(d *core.PlanStream, seq uint64) {
	if r.owners != nil {
		if owner := r.owners[d.Tap]; owner != r.cluster.node {
			for _, rd := range d.Readers {
				r.sendAck(owner, d, rd.ID, seq)
			}
			return
		}
	}
	if ch := r.chans[d]; ch != nil {
		ch.ackAll(r, d.Readers, seq)
	}
}

// sendAck emits one ack frame to the stream emitter's node. A send error
// means the mesh is closing; the ack is lost with the run.
func (r *Runtime) sendAck(owner string, d *core.PlanStream, consumer string, seq uint64) {
	err := r.cluster.sendFrame(owner, &transport.Frame{
		Type: transport.FrameAck, Stream: d.ID, Consumer: consumer, Ack: seq,
	})
	if err != nil {
		r.flight.Record("cluster.ack.drop", d.ID+" "+consumer)
	}
}
