// Package runtime executes installed stream-sharing plans on a concurrent
// super-peer runtime: every peer owns a multi-lane mailbox drained by a
// small worker pool, streams travel as batches of XML element trees over
// metered links, and operator pipelines run where the plan installed them.
// It is the distributed counterpart of core's in-process simulator — the
// paper's system ran one super-peer per blade.
//
// The data path is built for throughput without giving up the simulator
// equivalence the tests assert:
//
//   - Batching: mailbox messages carry up to Options.BatchSize items of one
//     stream. Accounting stays per item — depth, high-water marks and
//     fault-injection drops all count items, not batches — so observable
//     metrics are comparable across batch sizes.
//   - Tree batches: a batch carries parsed element trees, the one form an
//     item has inside a process. The batcher never serializes, consumers
//     read the shared trees without reparsing, the session's replay journal
//     and the cluster links' journals hold them by pointer, and a link
//     encodes them straight into the dictionary wire format. Byte-granular
//     accounting is priced from xmlstream.MarshalSize, so traffic and
//     serialized totals equal the canonical XML's to the byte. Canonical
//     bytes exist only in a durable link's on-disk journal.
//   - Parallelism: each peer runs Options.Workers goroutines over its
//     inbox. The unit of scheduling is the lane (one per stream), and a
//     lane is owned by at most one worker at a time, so per-stream order
//     and the single-threaded operator contract hold while independent
//     subscription pipelines on the same peer execute concurrently.
//
// A run executes the engine's plan value (core.Plan) on operator instances of
// its own, so the catalog may change while it is in flight; plans are planned
// once and either backend executes them, with identical results and traffic.
package runtime

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/transport"
	"streamshare/internal/xmlstream"
)

// message is one mailbox delivery: a batch of items of one stream bound
// for one hop of its route, optionally followed by the stream's
// end-of-stream marker.
type message struct {
	stream *core.PlanStream
	// hop is the index of the receiving peer within stream's route.
	hop int
	// elems holds the batch as parsed element trees in stream order. The
	// elements are shared read-only, exactly as the simulator hands one
	// pointer to every consumer; receivers must not mutate them.
	elems []*xmlstream.Element
	// xb caches the canonical serialized size of elems (summed
	// xmlstream.MarshalSize), so byte-granular accounting — link traffic,
	// serialized totals, forwarding work — prices the canonical XML without
	// ever materializing it.
	xb int
	// eos marks end of stream, logically ordered after items.
	eos bool
	// seqLo is the channel sequence of the first carried unit when the
	// stream flows through a reliable session channel; 0 means unsequenced.
	seqLo uint64
	// epoch is the plan epoch the message was emitted under (reliable
	// sessions only); receivers drop stale-epoch stragglers.
	epoch uint64
	// span is the provenance span of a sampled item carried by this batch
	// (at most one per batch; nil when none was sampled). It is stamped at
	// each stage boundary and — like seqLo/epoch — is header state: the
	// TCP transport serializes it with obs.AppendSpanHeader.
	span *obs.Span
}

// units is the item-granular size of the message, the unit of depth and
// drop accounting: one per data item plus one for an EOS marker.
func (m *message) units() int {
	u := len(m.elems)
	if m.eos {
		u++
	}
	return u
}

// Result holds the outcome of a distributed run.
type Result struct {
	// Metrics carries the run's per-link traffic and per-peer work, in the
	// same units the simulator reports.
	Metrics *network.Metrics
	// Results counts delivered result items per subscription id.
	Results map[string]int
	// Collected holds the result items per subscription id when collection
	// was requested.
	Collected map[string][]*xmlstream.Element
}

// Runtime hosts a worker pool per network node and executes one run.
type Runtime struct {
	eng     *core.Engine
	collect bool
	opts    Options

	// plan is what the run executes and inst the run's operator state.
	plan  *core.Plan
	inst  *core.Instances
	nodes map[network.PeerID]*node

	// quiescence tracking: inflight counts queued plus in-processing
	// messages; Run waits until it returns to zero. In cluster mode the wait
	// is bounded: progress counts finished messages and arrived frames, and
	// quietBound without any ends the wait for good with the error stalled.
	qmu        sync.Mutex
	qcond      *sync.Cond
	inflight   int
	progress   int
	stalled    error
	quietBound time.Duration

	mu      sync.Mutex
	metrics *network.Metrics
	counts  map[string]int
	items   map[string][]*xmlstream.Element
	errs    []error
	// msgs counts mailbox deliveries (batches, not items); serBytes sums
	// the canonical item bytes sent, hop by hop. Both publish into the
	// engine's metrics registry after the run.
	msgs     int
	serBytes int

	// batchHist observes the item count of every sent data batch
	// (runtime.batch.size); parseSkip counts items handed to a peer's
	// consumers as shared trees, without a parse (runtime.parse.skipped).
	batchHist *obs.Histogram
	parseSkip *obs.Counter
	// lat records sampled provenance spans; flight is the ring of recent
	// runtime events. Both come from the engine observer.
	lat    *obs.LatencyRecorder
	flight *obs.FlightRecorder
	// operator-pool baselines, captured at Run start so publish can emit
	// this run's hit/miss deltas (the pool is process-global).
	execHits0, execMiss0 uint64

	// Fault injection (chaos testing): severed links drop messages at the
	// sender, killed peers discard at the receiver; dropped counts both,
	// per item. faulted holds the faults this run has already reported to
	// its session.
	sevMu   sync.RWMutex
	severed map[network.LinkID]bool
	dropped int
	faulted map[network.Change]bool

	// Reliability (Options.Session): channels and receive lanes are
	// per-run views into the session's durable maps, read-only while the
	// run executes. retained counts units journaled on broken channels
	// instead of sent; dedupDropped counts duplicate units receivers
	// skipped (both under mu).
	sess         *Session
	chans        map[*core.PlanStream]*streamChan
	recvs        map[recvKey]*transport.RecvCursor
	retained     int
	dedupDropped int

	// Distribution (Options.Cluster): owners maps every peer to its
	// cluster node (nil when single-process), byID resolves stream ids
	// from inbound frames, eosWait counts remote-ingress lanes whose EOS
	// has not arrived yet and eosSeen dedups the decrements (both under
	// qmu — Run's quiescence waits on them).
	cluster *Cluster
	owners  map[network.PeerID]string
	byID    map[string]*core.PlanStream
	eosWait int
	eosSeen map[recvKey]bool

	// afterBatch, when set, runs on a source's goroutine after each batch it
	// dispatches: where a test injects a mid-run fault deterministically.
	afterBatch func(d *core.PlanStream, items uint64)
}

// node is one peer actor.
type node struct {
	id    network.PeerID
	inbox *inbox
	// dead marks a killed peer: its workers keep draining the inbox so
	// quiescence stays exact, but every message is discarded (fault
	// injection; see KillPeer).
	dead atomic.Bool
}

// New builds a runtime over the engine's current plan with DefaultOptions.
// The run executes that plan on operator instances of its own, whatever the
// catalog does meanwhile; a Runtime is single-use.
func New(eng *core.Engine, collect bool) *Runtime {
	return NewWith(eng, collect, DefaultOptions())
}

// NewWith is New with explicit data-path options (see Options); zero fields
// take their defaults.
func NewWith(eng *core.Engine, collect bool, opts Options) *Runtime {
	r := &Runtime{
		eng:     eng,
		collect: collect,
		opts:    opts.normalized(),
		nodes:   map[network.PeerID]*node{},
		metrics: network.NewMetrics(),
		counts:  map[string]int{},
		plan:    eng.Plan(),
	}
	r.inst = r.plan.Instantiate()
	r.qcond = sync.NewCond(&r.qmu)
	r.quietBound = 60 * time.Second
	r.severed = map[network.LinkID]bool{}
	r.faulted = map[network.Change]bool{}
	r.batchHist = eng.Obs().Metrics.Histogram("runtime.batch.size", obs.ExpBuckets(1, 2, 9))
	r.parseSkip = eng.Obs().Metrics.Counter("runtime.parse.skipped")
	r.flight = eng.Obs().Flight
	r.lat = eng.Obs().Latency
	if collect {
		r.items = map[string][]*xmlstream.Element{}
	}
	for _, id := range eng.Net.Peers() {
		r.nodes[id] = &node{id: id, inbox: newInbox()}
	}
	if opts.Session != nil {
		r.sess = opts.Session
		r.chans = map[*core.PlanStream]*streamChan{}
		r.recvs = map[recvKey]*transport.RecvCursor{}
		r.sess.attach(r)
	}
	if opts.Cluster != nil {
		r.cluster = opts.Cluster
		r.owners = r.cluster.assign
		r.byID = make(map[string]*core.PlanStream, len(r.plan.Streams))
		r.eosSeen = map[recvKey]bool{}
		for _, d := range r.plan.Streams {
			r.byID[d.ID] = d
			for hop := 1; hop < len(d.Route); hop++ {
				if r.localPeer(d.Route[hop]) && !r.localPeer(d.Route[hop-1]) {
					r.eosWait++
				}
			}
		}
		// attach is last: it publishes r to the cluster's dispatchers,
		// which may start injecting frames immediately.
		r.cluster.attach(r)
	}
	return r
}

// localPeer reports whether a network peer is executed by this process.
func (r *Runtime) localPeer(p network.PeerID) bool {
	return r.owners == nil || r.owners[p] == r.cluster.node
}

// Run feeds the given original stream items through the distributed plan
// and blocks until every message has been processed.
func (r *Runtime) Run(items map[string][]*xmlstream.Element) (*Result, error) {
	r.execHits0, r.execMiss0 = exec.PoolStats()

	var wg sync.WaitGroup
	for _, n := range r.nodes {
		if !r.localPeer(n.id) {
			continue // executed by another cluster node
		}
		for i := 0; i < r.opts.Workers; i++ {
			wg.Add(1)
			go func(n *node) {
				defer wg.Done()
				r.workerLoop(n)
			}(n)
		}
	}

	// Inject the original streams at their source peers, concurrently per
	// stream (as independent telescopes would), batching as configured.
	// In cluster mode only locally-owned sources inject; hop-0 emission is
	// always process-local (a stream's tap is its route's first peer).
	var sources sync.WaitGroup
	for _, d := range r.plan.Streams {
		if !d.Original || !r.localPeer(d.Tap) {
			continue
		}
		feed := items[d.Source]
		sources.Add(1)
		go func(d *core.PlanStream, feed []*xmlstream.Element) {
			defer sources.Done()
			b := batcher{r: r, stream: d, flushStage: obs.StageBatch, sample: true}
			// An original's residual is empty unless Engine.RepairFuzzyOrder
			// put a sort buffer there; it is charged at the source like any
			// tap's, without the duplication a tap pays.
			r.runResidual(d, d.Tap, feed, true, &b, 0)
		}(d, feed)
	}
	sources.Wait()

	// Quiescence: every queued or in-processing message has completed, every
	// remote-ingress lane has seen its EOS, and no batch is parked waiting
	// for a (possibly remote) ack. With a session attached, a late channel
	// break can release parked batches after the count first reaches zero,
	// so settle and re-wait until a full pass releases nothing.
	for {
		r.awaitQuiet()
		if r.sess == nil || !r.sess.settle(r) {
			break
		}
	}

	// Cluster mode: a process must not return (and possibly Close its
	// mesh) while its link journals still hold frames a remote has not
	// accepted — that would strand data a peer's quiescence is waiting on.
	// Draining the local journals is not enough on its own: a peer may
	// still be generating its trailing consumer acks, so the termination
	// barrier holds every process's mesh open until all of them have
	// drained.
	if r.cluster != nil {
		r.qmu.Lock()
		err := r.stalled
		r.qmu.Unlock()
		// A stalled run has failed: some node will never accept or send what
		// the two waits below wait for, so they are skipped.
		if err == nil {
			if err = r.cluster.mesh.WaitDrained(r.quietBound); err != nil {
				err = fmt.Errorf("runtime: cluster: %w", err)
			} else {
				err = r.cluster.barrier(r.quietBound)
			}
		}
		if err != nil {
			r.fail(err)
		}
		// Past the barrier every link is quiescent for this run: compact
		// the durable journals to a snapshot so they do not grow without
		// bound across runs (no-op on in-memory clusters).
		r.cluster.Checkpoint()
		// Past the barrier no frame for THIS run can still arrive, but a
		// peer may already be racing ahead into the cluster's next run.
		// Retire this runtime so early frames park until the next attach
		// instead of vanishing into closed mailboxes.
		r.cluster.detach(r)
	}

	for _, n := range r.nodes {
		n.inbox.close()
	}
	wg.Wait()
	r.publish()

	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) > 0 {
		return nil, r.errs[0]
	}
	return &Result{Metrics: r.metrics, Results: r.counts, Collected: r.items}, nil
}

// MailboxHWM returns each peer's mailbox high-water mark: the deepest its
// queue ever got during the run, counted in items (an EOS marker counts
// one). Peers that were never addressed report 0.
func (r *Runtime) MailboxHWM() map[network.PeerID]int {
	out := map[network.PeerID]int{}
	for id, n := range r.nodes {
		out[id] = n.inbox.highWater()
	}
	return out
}

// KillPeer kills a peer's actor mid-run: from now on the peer discards
// every message — queued or future — without processing or forwarding, as
// a crashed super-peer would. Safe to call while Run is in flight, or after
// it returned; quiescence and termination are unaffected. The runtime's
// wiring is fixed at New, so repair means re-planning on the engine and
// building a fresh runtime. On a cluster only the peer's own node can kill
// it: elsewhere it is refused.
func (r *Runtime) KillPeer(id network.PeerID) error {
	n := r.nodes[id]
	if n == nil {
		return fmt.Errorf("runtime: kill unknown peer %s", id)
	}
	if err := r.refuseRemote("kill", id); err != nil {
		return err
	}
	n.dead.Store(true)
	r.flight.Record("fault.kill", string(id))
	r.noteFault(network.Change{Kind: network.PeerFailed, Peer: id})
	return nil
}

// SeverLink severs the link between two peers mid-run: messages routed
// across it are dropped at the sender (and counted) instead of delivered.
// Safe to call while Run is in flight, or after it returned. On a cluster
// the node hosting both ends must sever it: elsewhere it is refused.
func (r *Runtime) SeverLink(a, b network.PeerID) error {
	if r.nodes[a] == nil || r.nodes[b] == nil {
		return fmt.Errorf("runtime: sever unknown link %s-%s", a, b)
	}
	l := network.MakeLinkID(a, b)
	if err := r.refuseRemote("sever "+l.String(), a, b); err != nil {
		return err
	}
	r.sevMu.Lock()
	r.severed[l] = true
	r.sevMu.Unlock()
	r.flight.Record("fault.sever", l.String())
	r.noteFault(network.Change{Kind: network.LinkFailed, Link: l})
	return nil
}

// refuseRemote refuses a fault on a peer another cluster node executes: this
// process could apply it only in part, yet would report it whole.
func (r *Runtime) refuseRemote(op string, peers ...network.PeerID) error {
	for _, p := range peers {
		if !r.localPeer(p) {
			return fmt.Errorf("runtime: %s: peer %s is hosted by node %s", op, p, r.owners[p])
		}
	}
	return nil
}

// noteFault reports a fault to the session, once per run and in injection
// order, and breaks the session channels whose route depends on it: the one
// place a fault breaks channels.
func (r *Runtime) noteFault(ch network.Change) {
	if r.sess == nil {
		return
	}
	r.sevMu.Lock()
	if !r.faulted[ch] {
		r.faulted[ch] = true
		r.sess.report(ch)
	}
	r.sevMu.Unlock()
	r.sess.breakFor(r, ch)
}

// Dropped reports how many items (EOS markers included) fault injection
// discarded so far.
func (r *Runtime) Dropped() int {
	r.sevMu.RLock()
	defer r.sevMu.RUnlock()
	return r.dropped
}

// publish feeds the run's measurements into the engine's metrics registry:
// the shared link/peer counters under the "runtime" prefix (comparable
// one-to-one with the simulator's "sim" counters), message/serialization
// totals, per-peer mailbox high-water gauges, the batch-size distribution,
// and this run's operator-pool hit/miss deltas.
func (r *Runtime) publish() {
	reg := r.eng.Obs().Metrics
	r.mu.Lock()
	r.metrics.Publish(reg, "runtime")
	r.mu.Unlock()
	r.qmu.Lock()
	msgs, bytes := r.msgs, r.serBytes
	r.qmu.Unlock()
	reg.Counter("runtime.runs").Inc()
	reg.Counter("runtime.messages").Add(float64(msgs))
	reg.Counter("runtime.serialized.bytes").Add(float64(bytes))
	if d := r.Dropped(); d > 0 {
		reg.Counter("runtime.dropped.messages").Add(float64(d))
	}
	for id, n := range r.nodes {
		// Set, not SetMax: each run reports its own high-water mark, so a
		// small run after a large one in the same process (experiments does
		// this) is not inflated by the earlier run's peak.
		reg.Gauge("runtime.mailbox.hwm." + string(id)).Set(float64(n.inbox.highWater()))
	}
	if r.sess != nil {
		r.mu.Lock()
		retained, dedup := r.retained, r.dedupDropped
		r.mu.Unlock()
		if retained > 0 {
			reg.Counter("runtime.retained.items").Add(float64(retained))
		}
		if dedup > 0 {
			reg.Counter("runtime.dedup.dropped").Add(float64(dedup))
		}
		stalls := 0
		for _, c := range r.chans {
			stalls += c.takeStalls()
		}
		if stalls > 0 {
			reg.Counter("runtime.credit.stalls").Add(float64(stalls))
		}
		for d, c := range r.chans {
			c.mu.Lock()
			depth := c.st.MaxDepth()
			c.mu.Unlock()
			reg.Gauge("runtime.channel.replay.hwm." + d.ID).SetMax(float64(depth))
		}
	}
	if r.cluster != nil {
		// Per-link transport counters are cumulative across a cluster's
		// runs, so they publish as absolute gauges, not counter deltas.
		for _, st := range r.cluster.Stats() {
			p := "transport.link." + st.Remote + "."
			reg.Gauge(p + "bytes.sent").Set(float64(st.BytesSent))
			reg.Gauge(p + "bytes.recv").Set(float64(st.BytesRecv))
			reg.Gauge(p + "frames.sent").Set(float64(st.FramesSent))
			reg.Gauge(p + "frames.recv").Set(float64(st.FramesRecv))
			reg.Gauge(p + "reconnects").Set(float64(st.Reconnects))
			reg.Gauge(p + "replayed").Set(float64(st.Replayed))
			// Whether the link's writer, which encodes, keeps up.
			reg.Gauge(p + "send_waits").Set(float64(st.SendWaits))
			reg.Gauge(p + "journal.depth").Set(float64(st.Depth))
			if st.EncodedItems > 0 || st.DecodedItems > 0 {
				reg.Gauge(p + "codec.items.sent").Set(float64(st.EncodedItems))
				reg.Gauge(p + "codec.items.recv").Set(float64(st.DecodedItems))
				reg.Gauge(p + "codec.bytes.xml.sent").Set(float64(st.EncodedXMLBytes))
				reg.Gauge(p + "codec.bytes.wire.sent").Set(float64(st.EncodedWireBytes))
				reg.Gauge(p + "codec.bytes.xml.recv").Set(float64(st.DecodedXMLBytes))
				reg.Gauge(p + "codec.bytes.wire.recv").Set(float64(st.DecodedWireBytes))
			}
		}
	}
	// Pool deltas are best-effort: the pool is process-global, so
	// concurrent runtimes in one process fold into each other's deltas.
	eh, em := exec.PoolStats()
	if d := eh - r.execHits0; d > 0 {
		reg.Counter("runtime.pool.exec.hits").Add(float64(d))
	}
	if d := em - r.execMiss0; d > 0 {
		reg.Counter("runtime.pool.exec.misses").Add(float64(d))
	}
}

// dispatch routes a hop-0 emission: through the stream's session channel
// when one exists (sequencing, journaling, credit admission), else
// straight to send. Channel-less streams — no session, or no consumers —
// keep the original unsequenced path.
func (r *Runtime) dispatch(m message, gate *ackGate) {
	if c := r.chans[m.stream]; c != nil {
		c.submit(r, m, gate)
		return
	}
	r.send(m)
}

// send moves a message to the peer at the given hop of the stream's route,
// accounting link traffic (summed over the batch) for hops past the
// producer. A locally-owned peer takes it in its mailbox, a remote one as a
// frame on its cluster node's link (sendRemote); everything before that —
// fault checks, traffic, batch-size observation, the send stamp, message
// and byte totals — is the same either way. Messages bound for a killed
// peer or across a severed link are dropped — and counted per item — before
// any accounting: a dead wire carries nothing.
func (r *Runtime) send(m message) {
	peer := m.stream.Route[m.hop]
	local := r.localPeer(peer)
	if local && r.nodes[peer].dead.Load() {
		r.dropMsg(&m)
		return
	}
	if m.hop > 0 {
		l := network.MakeLinkID(m.stream.Route[m.hop-1], peer)
		r.sevMu.RLock()
		cut := r.severed[l]
		r.sevMu.RUnlock()
		if cut {
			r.dropMsg(&m)
			return
		}
		if m.xb > 0 {
			r.mu.Lock()
			r.metrics.AddTraffic(l, float64(m.xb))
			r.mu.Unlock()
		}
	}
	if n := len(m.elems); n > 0 {
		r.batchHist.Observe(float64(n))
	}
	// A sampled batch closes its send stage here: the delta covers channel
	// admission (credit waits, parking) plus routing, and the queue stage
	// opens as the batch enters the destination mailbox.
	r.lat.Stamp(m.span, obs.StageSend)
	r.qmu.Lock()
	if local {
		// A remote receiver counts the message when it injects it; its
		// EOS-lane bookkeeping keeps both quiescences exact.
		r.inflight++
	}
	r.msgs++
	r.serBytes += m.xb
	r.qmu.Unlock()
	if local {
		r.nodes[peer].inbox.push(m)
	} else {
		r.sendRemote(m, peer)
	}
}

// dropMsg discards a message under fault injection, counting every carried
// item (and EOS marker) as one dropped unit.
func (r *Runtime) dropMsg(m *message) {
	u := m.units()
	r.flight.Record("fault.drop", m.stream.ID+" units="+strconv.Itoa(u))
	r.sevMu.Lock()
	r.dropped += u
	r.sevMu.Unlock()
}

func (r *Runtime) finish() {
	r.qmu.Lock()
	r.inflight--
	r.progress++
	if r.inflight == 0 {
		r.qcond.Broadcast()
	}
	r.qmu.Unlock()
}

// awaitQuiet blocks until the process is quiescent: no queued or
// in-processing message, every remote-ingress lane has seen its EOS, and
// (cluster mode) no batch is parked awaiting a remote ack. Cluster frame
// arrivals broadcast qcond, so each condition is re-evaluated as remote
// progress lands. What a cluster run waits for is another process's to send,
// so there the wait is bounded: quietBound with no message finished and no
// frame arrived fails the run, naming what it still waited for, and every
// later call returns at once. The bound is one timer that raises a flag and
// broadcasts, re-armed while there is progress.
func (r *Runtime) awaitQuiet() {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	expired, seen := false, r.progress // expired is guarded by qmu
	var timer *time.Timer
	if r.cluster != nil {
		timer = time.AfterFunc(r.quietBound, func() {
			r.qmu.Lock()
			expired = true
			r.qcond.Broadcast()
			r.qmu.Unlock()
		})
		defer timer.Stop()
	}
	for r.stalled == nil && (r.inflight > 0 || r.eosWait > 0 || r.clusterParked()) {
		if expired && seen == r.progress {
			r.stalled = fmt.Errorf("runtime: cluster: no progress for %v: %d messages in flight, waiting for EOS on %v",
				r.quietBound, r.inflight, r.eosLanes())
			return
		}
		if expired {
			expired, seen = false, r.progress
			timer.Reset(r.quietBound)
		}
		r.qcond.Wait()
	}
}

// clusterParked reports whether any session channel still parks batches.
// Single-process runs never consult it (parked batches drain while their
// acker's inflight is nonzero); in cluster mode the acks arrive as frames,
// possibly after the local count reaches zero. Callers hold qmu; the
// qmu → session.mu → channel.mu order is acquired nowhere in reverse.
func (r *Runtime) clusterParked() bool {
	return r.cluster != nil && r.sess != nil && r.sess.parkedDepth() > 0
}

// workerLoop drains one peer's inbox lane by lane. A killed peer keeps
// draining — discarding messages that were queued before the kill — so the
// in-flight count still returns to zero and Run terminates.
func (r *Runtime) workerLoop(n *node) {
	for {
		ln, msgs, ok := n.inbox.next()
		if !ok {
			return
		}
		for i := range msgs {
			m := &msgs[i]
			if n.dead.Load() {
				r.dropMsg(m)
			} else {
				r.handle(n, m)
			}
			// A drained lane can hold hundreds of batches: let each one's
			// trees go as it completes, not when the whole slice does.
			m.elems = nil
			r.finish()
		}
		n.inbox.done(ln, msgs)
	}
}

// handle processes one message at one peer: derived streams tapping here,
// readers at the route end, and forwarding along the route. All downstream
// sends happen before the in-flight counter is released, so quiescence is
// exact. Sequenced messages (reliable sessions) are deduplicated against
// the lane's receive state first, and every consumer fed here acks its
// cumulative cursor on the stream's channel — a tap's ack is gated on its
// own downstream batches being admitted.
func (r *Runtime) handle(n *node, m *message) {
	d := m.stream
	r.lat.Stamp(m.span, obs.StageQueue)
	var hi uint64
	if m.seqLo > 0 {
		hi = m.seqLo + uint64(m.units()) - 1
		rs := r.recvs[recvKey{d.ID, m.hop}]
		if rs != nil {
			skip, deliver := rs.Accept(m.epoch, m.seqLo, hi)
			if !deliver {
				// A wholly-duplicate batch was already processed by a prior
				// delivery, but the emitter may still be waiting for acks —
				// a durably-restarted upstream replays its journal from a
				// fresh channel whose cursors the first life's acks never
				// touched. Re-ack every consumer fed at this peer so the
				// replayed batch unparks; Channel.Ack is cumulative, so a
				// genuinely stale duplicate's ack is a no-op.
				if ch := r.chans[d]; ch != nil && m.seqLo > 0 {
					for _, child := range d.Taps {
						if child.Tap == n.id {
							r.ackStream(d, child.ID, hi)
						}
					}
					if m.hop == len(d.Route)-1 && len(d.Readers) > 0 {
						r.ackReaders(d, hi)
					}
				}
				r.dedupDrop(m, m.units())
				return
			}
			if skip > 0 {
				if n := len(m.elems); skip > n {
					skip = n
				}
				r.dedupCount(skip)
				for _, e := range m.elems[:skip] {
					m.xb -= xmlstream.MarshalSize(e)
				}
				m.elems = m.elems[skip:]
				m.seqLo += uint64(skip)
			}
		}
	}
	last := m.hop == len(d.Route)-1
	var readers []*core.PlanReader
	if last {
		readers = d.Readers
	}
	ch := r.chans[d]
	here := len(readers) > 0 // does anything consume the batch at this peer?
	for _, child := range d.Taps {
		here = here || child.Tap == n.id
	}
	if here {
		// The batch's trees are shared read-only across every consumer here
		// — the simulator does the same, handing one element pointer to all
		// children and readers. Nothing is parsed: the items are counted
		// (runtime.parse.skipped) and the parse stage still stamps, keeping
		// its ~zero cost visible in the span series.
		r.parseSkip.Add(float64(len(m.elems)))
		r.lat.Stamp(m.span, obs.StageParse)
		for _, child := range d.Taps {
			if child.Tap != n.id {
				continue
			}
			var gate *ackGate
			if ch != nil && m.seqLo > 0 {
				name, seq := child.ID, hi
				gate = newAckGate(func() { r.ackStream(d, name, seq) })
			}
			r.feedChild(n, child, m.elems, m.eos, gate, r.lat.Fork(m.span))
			if gate != nil {
				gate.done()
			}
		}
		for _, rd := range readers {
			r.feedReader(rd, m.elems, m.eos, m.span)
		}
		if len(readers) > 0 && ch != nil && m.seqLo > 0 {
			r.ackReaders(d, hi)
		}
	}
	if !last {
		if m.xb > 0 && m.hop > 0 {
			// Forwarding work accrues at relay peers strictly inside the
			// route; the producer's emission cost is part of its operators.
			r.work(n.id, r.eng.Cfg.Model.ForwardPerByte*float64(m.xb))
		}
		next := *m
		next.hop++
		r.send(next)
	}
}

// dedupDrop discards a duplicate or stale-epoch message wholesale: its
// units are counted and the message dies here (no forwarding — receivers
// past this hop fence it identically).
func (r *Runtime) dedupDrop(m *message, units int) {
	r.flight.Record("dedup.drop", m.stream.ID+" units="+strconv.Itoa(units))
	r.dedupCount(units)
}

// dedupCount counts duplicate units skipped by receive-side dedup.
func (r *Runtime) dedupCount(units int) {
	r.mu.Lock()
	r.dedupDropped += units
	r.mu.Unlock()
}

// feedChild runs a derived stream's residual at its tap over a batch of
// parent items and emits the results, re-batched, at hop 0 of the child's
// route. With a reliable session, gate holds the tap's upstream ack open
// until every emitted batch is admitted by the child's channel. span, when
// non-nil, is a fork of the incoming batch's provenance span; it rides the
// first downstream batch and its eval stage closes at that batch's flush.
func (r *Runtime) feedChild(n *node, child *core.PlanStream, its []*xmlstream.Element, eos bool, gate *ackGate, span *obs.Span) {
	ob := batcher{r: r, stream: child, gate: gate, flushStage: obs.StageEval, span: span}
	r.runResidual(child, n.id, its, eos, &ob, r.eng.Cfg.Model.BLoad["duplicate"])
}

// runResidual pushes its through the run's instance of d's residual pipeline
// into b — draining the pipeline too at EOS — flushes b, and charges peer at
// for the work, exactly as the simulator charges it: perItem units for every
// input item plus each stage's base load per item entering it.
func (r *Runtime) runResidual(d *core.PlanStream, at network.PeerID, its []*xmlstream.Element, eos bool, b *batcher, perItem float64) {
	outs, wk := r.inst.Residual[d.Index].Eval(0, its, eos, d.Loads)
	b.add(outs)
	b.flush(eos)
	if wk += perItem * float64(len(its)); wk != 0 {
		r.work(at, wk)
	}
}

// feedReader runs a subscription's local pipeline at the target over a
// batch of feed items and records the delivered results: a collecting run
// builds and keeps them, any other only counts them (exec.Pipeline.Results).
// A batch carrying a provenance span ends the span here: the subscription's
// watermark advances and the end-to-end lag is observed whether or not the
// sampled item survived the local pipeline (the watermark tracks processing
// progress, not output).
func (r *Runtime) feedReader(rd *core.PlanReader, its []*xmlstream.Element, eos bool, span *obs.Span) {
	outs, n, wk := r.inst.Local[rd.Index].Results(its, eos, rd.Loads, r.collect)
	if wk != 0 {
		r.work(rd.Feed.Target(), wk)
	}
	r.lat.Deliver(span, rd.Sub)
	if n == 0 {
		return
	}
	r.mu.Lock()
	r.counts[rd.Sub] += n
	if r.collect {
		r.items[rd.Sub] = append(r.items[rd.Sub], outs...)
	}
	r.mu.Unlock()
}

// work charges load-model units to a peer, scaled by its performance index.
func (r *Runtime) work(p network.PeerID, units float64) {
	units *= r.eng.Net.Peer(p).PerfIndex
	r.mu.Lock()
	r.metrics.AddWork(p, units)
	r.mu.Unlock()
}

func (r *Runtime) fail(err error) {
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}
