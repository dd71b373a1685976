// Package server exposes a stream-sharing engine over a TCP line protocol,
// so the system can run as a daemon (cmd/sgd) that astronomer clients talk
// to. Commands:
//
//	SUBSCRIBE <peer> <data|query|sharing>   register a continuous query;
//	    the WXQuery text follows on subsequent lines, terminated by a line
//	    containing only "."  → "OK <id>" or "ERR <reason>"
//	EXPLAIN <id>       → the installed plan, one indented line per input
//	UNSUBSCRIBE <id>   → tear the plan down
//	RUN <n>            → simulate n photons per stream; per-subscription
//	                     result counts follow as "<id> <count>" lines
//	FEED <stream>      → push client-supplied items through the plans: an
//	                     XML stream document follows, terminated by a line
//	                     containing only "."; attributes are converted to
//	                     elements (§2); a malformed document or an
//	                     unregistered stream answers ERR before anything runs
//	STATS              → streams, subscriptions, total traffic of last run
//	PEERS              → the super-peer topology
//	METRICS            → snapshot of the engine's metrics registry, one
//	                     "counter|gauge|histogram <name> …" line per series
//	TRACE [id]         → replay the planning decision of a subscription:
//	                     every candidate stream with match outcome, rejection
//	                     reason and cost breakdown; without an id, one summary
//	                     line per retained trace
//	FAIL <peer>        → fail a super-peer (or a link: FAIL <a>-<b>); severed
//	                     subscriptions are re-planned over the surviving
//	                     topology or explicitly rejected; one report line each
//	RESTORE <peer>     → bring a peer (or link: RESTORE <a>-<b>) back and
//	                     repair around the restored topology
//	ADAPT <schedule>   → apply a whole adaptation schedule (adapt.ParseSchedule
//	                     syntax, e.g. "fail:SP1-SP2; restore:SP1-SP2; reopt");
//	                     reports follow, one line per affected subscription
//	HEALTH             → reliability introspection: one line per reliable
//	                     channel (next seq, cum ack, replay depth, credits);
//	                     requires a session (sgd -reliable)
//	NODES              → cluster membership: this node's placed peers and the
//	                     links the placement cuts, each other node with its
//	                     link phase and frame/reconnect counters
//	                     (multi-process sgd)
//	LAG                → per-subscription delivery freshness from sampled
//	                     provenance spans: low watermark (event time of the
//	                     newest sampled item fully processed at the sink),
//	                     current lag behind the wall clock, delivery-lag
//	                     p50/p99, sampled-delivery count, and a STALLED flag
//	                     for subscriptions whose lag grew monotonically
//	                     across recent LAG calls
//	QUIT               → close the connection
//
// Every reply is a single "OK …"/"ERR …" line, optionally followed by
// indented continuation lines, and always terminated by a line containing
// only ".", so clients can parse responses without knowing each command.
package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
)

// Server hosts one engine behind a listener.
type Server struct {
	eng  *core.Engine
	adm  *adapt.Manager
	cfg  photons.Config
	sess *runtime.Session
	// stall flags subscriptions whose lag grows monotonically across LAG
	// snapshots (fed once per LAG command, under mu).
	stall *obs.StallDetector

	mu      sync.Mutex
	seed    int64
	lastSim *core.SimResult
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup

	// cluster coordination (cluster.go): the attached cluster, the pending
	// fan-out runs awaiting remote RES controls, and the run id sequence.
	cluster *runtime.Cluster
	cmu     sync.Mutex
	waits   map[string]chan remoteRes
	runSeq  int
	// diverged, once set (under mu), is why this node left the replicated
	// set; ctlRefused counts the control frames it did not act on.
	diverged   string
	ctlRefused *obs.Counter

	// FEED document counters (parseFeedDoc): documents this process parsed,
	// the items they held, and documents that left the decoder's fast lane.
	feedDocs, feedItems, feedFallback *obs.Counter

	// catWAL is the durable catalog journal (durable.go); nil unless
	// WithDurable attached one.
	catWAL *durable.WAL
}

// New wraps an engine whose streams are fed from the synthetic photon
// generator on RUN. Every registered original stream is fed the same item
// count with stream-specific seeds.
func New(eng *core.Engine, cfg photons.Config) *Server {
	reg := eng.Obs().Metrics
	s := &Server{
		eng: eng, adm: adapt.NewManager(eng), cfg: cfg, seed: 1,
		conns: map[net.Conn]struct{}{},
		stall: obs.NewStallDetector(0),

		ctlRefused:   reg.Counter("server.control.refused"),
		feedDocs:     reg.Counter("server.feed.docs"),
		feedItems:    reg.Counter("server.feed.items"),
		feedFallback: reg.Counter("server.feed.docs.fallback"),
	}
	eng.SetJournal(func(op core.CatalogOp) { s.commit(op.Record(), true) })
	return s
}

// WithSession attaches a reliability session: RUN and FEED execute on the
// session-backed distributed runtime (sequenced acked channels, credit-based
// backpressure, a queue of injected faults) instead of the simulator, and
// HEALTH reports per-channel state. Building the engine
// with core.Config{Reliable: true} only hides live shared streams while
// repairs plan, so a repaired subscription gets a private chain.
func (s *Server) WithSession(sess *runtime.Session) *Server {
	s.sess = sess
	return s
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			return
		}
		s.mu.Lock()
		if s.closed {
			// Close won the race between Accept returning and our bookkeeping;
			// the listener is already closed, so the next Accept errors out.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.session(conn)
		}()
	}
}

// Close stops accepting, terminates in-flight sessions by closing their
// connections (unblocking any pending reads), and waits for every session
// goroutine to exit. It is safe to call concurrently with Serve and at most
// the first call closes the listener.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	// The cluster mesh goes down last, after every client session exited:
	// a session mid-RUN still needs the links. Close waits for the
	// listener, every conn and every transport goroutine.
	if s.cluster != nil {
		s.cluster.Close() //nolint:errcheck
	}
	if s.catWAL != nil {
		// The catalog journal closes last; a sticky append/fsync error from
		// any journaled mutation surfaces here.
		if werr := s.catWAL.Close(); err == nil {
			err = werr
		}
	}
	return err
}

func (s *Server) session(conn io.ReadWriter) {
	r := &input{Reader: bufio.NewReader(conn)}
	w := bufio.NewWriter(conn)
	defer w.Flush()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		if cmd == "QUIT" {
			fmt.Fprintln(w, "OK bye")
			fmt.Fprintln(w, ".")
			w.Flush()
			return
		}
		s.dispatch(w, r, cmd, fields[1:])
		fmt.Fprintln(w, ".")
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(w io.Writer, r *input, cmd string, args []string) {
	switch cmd {
	case "SUBSCRIBE":
		s.subscribe(w, r, args)
	case "EXPLAIN":
		s.explain(w, args)
	case "UNSUBSCRIBE":
		s.unsubscribe(w, args)
	case "RUN":
		s.run(w, args)
	case "FEED":
		s.feed(w, r, args)
	case "STATS":
		s.stats(w)
	case "PEERS":
		s.peers(w)
	case "METRICS":
		s.metrics(w)
	case "TRACE":
		s.trace(w, args)
	case "FAIL":
		s.failRestore(w, "fail", args)
	case "RESTORE":
		s.failRestore(w, "restore", args)
	case "ADAPT":
		s.adaptCmd(w, args)
	case "HEALTH":
		s.health(w)
	case "LAG":
		s.lag(w)
	case "NODES":
		s.nodesCmd(w)
	default:
		fmt.Fprintf(w, "ERR unknown command %s\n", cmd)
	}
}

// input is one client session's command stream: the reader and the buffer
// command bodies are read into, reused from one body to the next.
type input struct {
	*bufio.Reader
	body []byte
}

// readBody consumes a command body up to a line holding only "." (spaces
// trimmed) and returns it without that line. The result is the session's
// buffer: it is valid until the next readBody.
func (in *input) readBody() ([]byte, error) {
	in.body = in.body[:0]
	for {
		start := len(in.body)
		for {
			frag, err := in.ReadSlice('\n')
			in.body = append(in.body, frag...)
			if err == nil {
				break
			}
			if err != bufio.ErrBufferFull {
				return nil, err
			}
		}
		if string(bytes.TrimSpace(in.body[start:])) == "." {
			return in.body[:start], nil
		}
	}
}

func parseStrategy(s string) (core.Strategy, error) {
	switch strings.ToLower(s) {
	case "data":
		return core.DataShipping, nil
	case "query":
		return core.QueryShipping, nil
	case "sharing":
		return core.StreamSharing, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (data|query|sharing)", s)
}

func (s *Server) subscribe(w io.Writer, r *input, args []string) {
	if len(args) != 2 {
		fmt.Fprintln(w, "ERR usage: SUBSCRIBE <peer> <data|query|sharing>")
		// Still consume the body so the connection stays in sync.
		r.readBody() //nolint:errcheck
		return
	}
	strat, err := parseStrategy(args[1])
	if err != nil {
		r.readBody() //nolint:errcheck
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	src, err := r.readBody()
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	s.mu.Lock()
	sub, err := s.eng.Subscribe(string(src), network.PeerID(args[0]), strat)
	s.mu.Unlock()
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK %s\n", sub.ID)
}

func (s *Server) explain(w io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(w, "ERR usage: EXPLAIN <id>")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.eng.Subscriptions() {
		if sub.ID == args[0] {
			fmt.Fprintf(w, "OK %s\n", args[0])
			for _, line := range strings.Split(strings.TrimSpace(sub.Explain()), "\n") {
				fmt.Fprintf(w, "  %s\n", strings.TrimSpace(line))
			}
			// The full planning decision: every candidate the search saw,
			// match outcomes, rejection reasons and cost breakdowns.
			if sub.Trace != nil {
				for _, line := range sub.Trace.Lines() {
					fmt.Fprintf(w, "  %s\n", line)
				}
			}
			return
		}
	}
	fmt.Fprintf(w, "ERR unknown subscription %s\n", args[0])
}

// metrics dumps a snapshot of the engine's metrics registry.
func (s *Server) metrics(w io.Writer) {
	snap := s.eng.Obs().Metrics.Snapshot()
	var b strings.Builder
	snap.WriteText(&b)
	n := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	fmt.Fprintf(w, "OK %d series\n", n)
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if line != "" {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}

// lag reports per-subscription delivery freshness derived from sampled
// provenance spans: the low watermark (event time of the newest sampled
// item fully processed at the sink), the subscription's current lag behind
// the wall clock, delivery-lag quantiles, and the sampled-delivery count.
// Each call feeds the stall detector, so a subscription whose lag grew
// strictly across the last M calls gains a STALLED flag — poll LAG to
// monitor. Subscriptions with no sampled delivery yet report watermark=none.
func (s *Server) lag(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	subs := s.eng.Subscriptions()
	snap := s.eng.Obs().Metrics.Snapshot()
	now := time.Now()
	fmt.Fprintf(w, "OK %d subscriptions\n", len(subs))
	for _, sub := range subs {
		wm := snap.Gauges["latency.sub.watermark."+sub.ID]
		if wm <= 0 {
			fmt.Fprintf(w, "  %s watermark=none sampled=0\n", sub.ID)
			continue
		}
		wmt := time.Unix(0, int64(wm*1e9))
		lag := now.Sub(wmt).Seconds()
		s.stall.Observe(sub.ID, lag)
		flag := ""
		if s.stall.Stalled(sub.ID) {
			flag = " STALLED"
		}
		h := snap.Histograms["latency.sub.lag."+sub.ID]
		fmt.Fprintf(w, "  %s watermark=%s lag=%.3fs p50=%.6fs p99=%.6fs sampled=%d%s\n",
			sub.ID, wmt.UTC().Format(time.RFC3339Nano), lag,
			h.Quantile(0.5), h.Quantile(0.99),
			int(snap.Counters["latency.sub.delivered."+sub.ID]), flag)
	}
}

// trace replays a subscription's planning decision, or lists the retained
// traces when no id is given.
func (s *Server) trace(w io.Writer, args []string) {
	tr := s.eng.Obs().Tracer
	if len(args) == 0 {
		ds := tr.Recent(0)
		fmt.Fprintf(w, "OK %d traces\n", len(ds))
		for _, d := range ds {
			fmt.Fprintf(w, "  %s\n", d.Lines()[0])
		}
		return
	}
	d := tr.Get(args[0])
	if d == nil {
		fmt.Fprintf(w, "ERR no trace for %s\n", args[0])
		return
	}
	fmt.Fprintf(w, "OK %s\n", args[0])
	for _, line := range d.Lines() {
		fmt.Fprintf(w, "  %s\n", line)
	}
}

func (s *Server) unsubscribe(w io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(w, "ERR usage: UNSUBSCRIBE <id>")
		return
	}
	s.mu.Lock()
	err := s.eng.Unsubscribe(args[0])
	s.stall.Forget(args[0])
	s.mu.Unlock()
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK %s removed\n", args[0])
}

func (s *Server) run(w io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(w, "ERR usage: RUN <items>")
		return
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		fmt.Fprintf(w, "ERR bad item count %q\n", args[0])
		return
	}
	s.issue(w, order{n: n})
}

// issue runs a client's RUN or FEED with this node coordinating the order,
// and writes the reply.
func (s *Server) issue(w io.Writer, o order) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o.stream == "" {
		o.seed = s.seed
	} else if s.eng.Original(o.stream) == nil {
		fmt.Fprintf(w, "ERR unknown stream %s\n", o.stream)
		return
	}
	feed := s.orderFeed(o)
	counts, err := s.work(o, feed, true)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	if o.stream == "" {
		fmt.Fprintf(w, "OK %d streams fed %d items\n", len(feed), o.n)
	} else {
		fmt.Fprintf(w, "OK fed %d items into %s\n", len(o.items), o.stream)
	}
	for _, sub := range s.eng.Subscriptions() {
		fmt.Fprintf(w, "  %s %d\n", sub.ID, counts[sub.ID])
	}
}

// execute pushes a feed through the installed plans: on the simulator by
// default, on the distributed runtime when a reliability session or a
// cluster is attached (filling channels, the fault queue and per-link
// transport metrics). The caller must hold s.mu.
func (s *Server) execute(feed map[string][]*xmlstream.Element) (map[string]int, error) {
	if s.sess != nil || s.cluster != nil {
		opts := runtime.Options{Session: s.sess, Cluster: s.cluster}
		res, err := runtime.NewWith(s.eng, false, opts).Run(feed)
		if err != nil {
			return nil, err
		}
		s.lastSim = &core.SimResult{Metrics: res.Metrics, Results: res.Results}
		return res.Results, nil
	}
	res, err := s.eng.Simulate(feed, false)
	if err != nil {
		return nil, err
	}
	s.lastSim = res
	return res.Results, nil
}

// feed parses a client-supplied stream document — once, here, whatever the
// backend — and pushes its items through the installed plans. On a cluster
// the document travels on only to the node that owns the stream's tap.
func (s *Server) feed(w io.Writer, r *input, args []string) {
	if len(args) != 1 {
		r.readBody() //nolint:errcheck
		fmt.Fprintln(w, "ERR usage: FEED <stream>")
		return
	}
	doc, err := r.readBody()
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	items, err := s.parseFeedDoc(doc)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	s.issue(w, order{stream: args[0], doc: doc, items: items})
}

// health reports the reliability layer's introspection: one row per
// reliable channel.
func (s *Server) health(w io.Writer) {
	if s.sess == nil {
		fmt.Fprintln(w, "ERR reliability off (start sgd with -reliable)")
		return
	}
	chans := s.sess.ChannelStates()
	fmt.Fprintf(w, "OK %d channels\n", len(chans))
	for _, cs := range chans {
		fmt.Fprintf(w, "  channel %s\n", cs)
	}
}

// failRestore handles FAIL and RESTORE: one topology event, then the repair
// cycle.
func (s *Server) failRestore(w io.Writer, op string, args []string) {
	if len(args) != 1 {
		fmt.Fprintf(w, "ERR usage: %s <peer> | %s <peerA>-<peerB>\n",
			strings.ToUpper(op), strings.ToUpper(op))
		return
	}
	ev, err := adapt.ParseEvent(op + ":" + args[0])
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	s.applyEvents(w, []adapt.Event{ev})
}

// adaptCmd applies a full adaptation schedule from the command line.
func (s *Server) adaptCmd(w io.Writer, args []string) {
	if len(args) == 0 {
		fmt.Fprintln(w, "ERR usage: ADAPT <schedule>")
		return
	}
	events, err := adapt.ParseSchedule(strings.Join(args, " "))
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	if len(events) == 0 {
		fmt.Fprintln(w, "ERR empty schedule")
		return
	}
	s.applyEvents(w, events)
}

// applyEvents applies events in order, each as its own catalog op through
// the path that replays one (the engine's journal hook is off there: an
// unsubscribe event is that event's record, not a second one), commits each
// that applied — Event.String round-trips through adapt.ParseSchedule — and
// prints one report line per affected subscription.
func (s *Server) applyEvents(w io.Writer, events []adapt.Event) {
	s.mu.Lock()
	start := len(s.adm.Reports())
	var err error
	for _, ev := range events {
		op := core.CatalogOp{Kind: core.CatalogAdapt, Detail: ev.String()}
		if err = s.eng.ReplayCatalog([]core.CatalogOp{op}, s.replayAdapt); err != nil {
			break
		}
		s.commit(op.Record(), true)
	}
	reports := s.adm.Reports()[start:]
	s.mu.Unlock()
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		for _, r := range reports {
			fmt.Fprintf(w, "  %s\n", r)
		}
		return
	}
	var repaired, rejected, migrated int
	for _, r := range reports {
		switch r.Outcome {
		case adapt.Repaired:
			repaired++
		case adapt.Rejected:
			rejected++
		case adapt.Migrated:
			migrated++
		}
	}
	fmt.Fprintf(w, "OK %d events: %d repaired, %d rejected, %d migrated\n",
		len(events), repaired, rejected, migrated)
	for _, r := range reports {
		fmt.Fprintf(w, "  %s\n", r)
	}
}

func (s *Server) stats(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(w, "OK %d streams, %d subscriptions\n",
		len(s.eng.Streams()), len(s.eng.Subscriptions()))
	for _, d := range s.eng.Streams() {
		fmt.Fprintf(w, "  stream %s route %v\n", d.ID, d.Route)
	}
	if s.lastSim != nil {
		fmt.Fprintf(w, "  last run: %.0f bytes total traffic, %.0f work units\n",
			s.lastSim.Metrics.TotalBytes(), s.lastSim.Metrics.TotalWork())
	}
}

func (s *Server) peers(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	peers := s.eng.Net.Peers()
	fmt.Fprintf(w, "OK %d peers\n", len(peers))
	for _, p := range peers {
		fmt.Fprintf(w, "  %s neighbors %v\n", p, s.eng.Net.Neighbors(p))
	}
}
