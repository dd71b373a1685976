package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
)

// This file coordinates several sgd processes into one multi-process
// super-peer daemon. Every process builds the same topology and engine;
// WithCluster attaches a runtime.Cluster whose control frames replicate the
// engine mutations and fan runs out:
//
//   - The replicated set is every core.CatalogOp kind — SUBSCRIBE,
//     UNSUBSCRIBE and each event of FAIL, RESTORE and ADAPT — shipped as the
//     op's catalog record: commit journals the record and broadcasts the same
//     bytes, and a receiving node applies them through Engine.ReplayCatalog,
//     as a restart does its journal, and journals them in turn. Identical
//     engines apply identical ops in link order and assign identical ids, and
//     replay checks that they do: a node whose apply fails or whose id
//     differs (two clients mutating through two coordinators) records why and
//     refuses every later work order with that reason.
//   - RUN/FEED send every other node a work order and execute on every
//     process's cluster-attached runtime (each injects only the sources it
//     owns); the remote nodes answer with a "RES" control carrying their
//     locally-delivered counts, which the coordinator merges into the
//     client reply. A RUN order is "RUN <id> <n> <seed>" and every node
//     generates the same feed from it. A FEED order is "FEED <id> <stream>"
//     and has two shapes: the node that owns the stream's tap gets the
//     client's document as the body and parses it; every other node gets no
//     body, parses nothing and takes part through its operators. The
//     coordinator has parsed and checked the document before any order
//     leaves. The formats assume every node runs the same binary: a
//     document the coordinator accepted is one the owner accepts.
//
// Control frames are sequenced and FIFO per link, so a node always sees
// a subscription before the run that uses it. Point client mutations at
// one coordinating node; reads (STATS, HEALTH, METRICS, NODES) are local
// views and can go anywhere.

// remoteRes is one remote node's answer to a fanned-out run.
type remoteRes struct {
	node   string
	counts map[string]int
	err    string
}

// order is one RUN or FEED work order, as a client's command or a
// coordinator's control frame describes it.
type order struct {
	n      int                  // RUN: items per original stream
	seed   int64                // RUN: the first stream's generator seed
	stream string               // FEED: the stream fed ("" for a RUN)
	doc    []byte               // FEED: the document, where this node holds it
	items  []*xmlstream.Element // FEED: the document decoded
}

// WithCluster attaches a cluster: RUN and FEED execute on every process's
// cluster runtime and merge the remote counts, control-plane mutations
// replicate to the other nodes, and NODES reports the membership. The server
// takes ownership: Close tears the cluster's mesh down.
func (s *Server) WithCluster(c *runtime.Cluster) *Server {
	s.cluster = c
	s.waits = map[string]chan remoteRes{}
	c.SetControl(s.handleControl)
	return s
}

// nodesCmd reports the cluster membership, this node's share of the
// placement, and per-link transport state.
func (s *Server) nodesCmd(w io.Writer) {
	if s.cluster == nil {
		fmt.Fprintln(w, "OK 1 nodes")
		fmt.Fprintln(w, "  (single process)")
		return
	}
	peers, cut := s.cluster.Placement()
	nodes := s.cluster.Nodes()
	fmt.Fprintf(w, "OK %d nodes\n", len(nodes))
	self := s.cluster.Node()
	stats := s.cluster.Stats()
	for _, n := range nodes {
		if n == self {
			fmt.Fprintf(w, "  %s self @ %s peers=%d cut=%d\n", n, s.cluster.Addr(), peers, cut)
			continue
		}
		for _, st := range stats {
			if st.Remote == n {
				fmt.Fprintf(w, "  %s %s sent=%d recv=%d reconnects=%d\n",
					n, st.Phase, st.FramesSent, st.FramesRecv, st.Reconnects)
			}
		}
	}
}

// commit is the one sink of control-plane mutations: it journals the op's
// catalog record and, for an op this node originates (the engine's journal
// hook for subscribe and unsubscribe, applyEvents for adaptation events),
// broadcasts the same bytes. It runs under s.mu after the mutation applied —
// write-ahead of the reply, not of the in-memory state: a crash in between
// loses at most the op whose OK the client never saw.
func (s *Server) commit(rec []byte, mirror bool) {
	if s.catWAL != nil {
		s.catWAL.Append(rec[0], rec[1:]) //nolint:errcheck // sticky WAL error resurfaces on Close
	}
	if mirror && s.cluster != nil {
		s.cluster.BroadcastControl(rec) //nolint:errcheck // fails only on a closing mesh
	}
}

// applyMirrored applies and journals one record another node committed,
// inline on the link's dispatcher so the order matches the origin's. A
// subscribe already installed under its id by the same call is a re-dispatch
// (a restarted durable link replays a control whose done mark it lost) and a
// no-op; anything else that does not apply marks this node diverged.
func (s *Server) applyMirrored(from string, rec []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.diverged != "" {
		return
	}
	op, err := core.ParseCatalogRecord(rec[0], rec[1:])
	if err == nil {
		if cur := s.eng.Subscription(op.ID); op.Kind == core.CatalogSubscribe && cur != nil &&
			cur.Trace.Query == op.Query && cur.Target == op.Target && cur.Strategy == op.Strategy {
			return
		}
		err = s.eng.ReplayCatalog([]core.CatalogOp{op}, s.replayAdapt)
	}
	if err != nil {
		s.diverged = fmt.Sprintf("node %s diverged at an op from %s: %v", s.cluster.Node(), from, err)
		s.refuseControl(s.diverged)
		return
	}
	s.stall.Forget(op.ID) // an unsubscribed id; any other is one it never saw
	s.commit(rec, false)
}

// refuseControl leaves the trace of a control frame this node did not act
// on: a flight event with the reason and a counter.
func (s *Server) refuseControl(reason string) {
	s.eng.Obs().Flight.Record("control.refuse", reason)
	s.ctlRefused.Inc()
}

// handleControl dispatches one inbound control frame. A frame that starts
// with a catalog record's kind byte is a mirrored mutation; the rest are
// text. Work orders (RUN, FEED) move to their own goroutine — a run needs
// this link's dispatcher free to deliver data frames.
func (s *Server) handleControl(from string, data []byte) {
	if len(data) > 0 && data[0] < ' ' {
		s.applyMirrored(from, data)
		return
	}
	head, body, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(head)
	switch {
	case len(f) == 4 && f[0] == "RUN":
		n, _ := strconv.Atoi(f[2])
		seed, _ := strconv.ParseInt(f[3], 10, 64)
		go s.remoteWork(from, f[1], order{n: n, seed: seed})
	case len(f) == 3 && f[0] == "FEED":
		go s.remoteWork(from, f[1], order{stream: f[2], doc: []byte(body)})
	case len(f) == 3 && (f[0] == "RES" || f[0] == "ERR"):
		s.cmu.Lock()
		ch := s.waits[f[1]]
		s.cmu.Unlock()
		if ch == nil {
			return
		}
		res := remoteRes{node: f[2]}
		if f[0] == "ERR" {
			res.err = body
			if res.err == "" {
				res.err = "remote run failed"
			}
		} else {
			res.counts = map[string]int{}
			for _, line := range strings.Split(body, "\n") {
				if id, c, ok := strings.Cut(line, " "); ok {
					if n, err := strconv.Atoi(c); err == nil {
						res.counts[id] = n
					}
				}
			}
		}
		ch <- res
	default:
		s.refuseControl(fmt.Sprintf("from %s: unknown or malformed control %q", from, head))
	}
}

// clusterPrepare registers a fan-out run and returns its id, the reply
// channel and the number of remote nodes that will answer. The caller
// releases the registration with clusterRelease on every path.
func (s *Server) clusterPrepare() (string, chan remoteRes, int) {
	peers := len(s.cluster.Nodes()) - 1
	s.cmu.Lock()
	s.runSeq++
	id := fmt.Sprintf("%s.%d", s.cluster.Node(), s.runSeq)
	ch := make(chan remoteRes, peers)
	s.waits[id] = ch
	s.cmu.Unlock()
	return id, ch, peers
}

// clusterRelease forgets a fan-out run; a RES that arrives afterwards finds
// no waiter and is dropped.
func (s *Server) clusterRelease(id string) {
	s.cmu.Lock()
	delete(s.waits, id)
	s.cmu.Unlock()
}

// clusterCollect merges every remote node's counts into counts, or
// returns the first remote failure.
func (s *Server) clusterCollect(ch chan remoteRes, peers int, counts map[string]int) error {
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	for i := 0; i < peers; i++ {
		select {
		case res := <-ch:
			if res.err != "" {
				return fmt.Errorf("cluster node %s: %s", res.node, res.err)
			}
			for k, v := range res.counts {
				counts[k] += v
			}
		case <-timeout.C:
			return fmt.Errorf("cluster: no result from every node within 60s")
		}
	}
	return nil
}

// work executes one work order on this node, the one way an order runs
// whoever issued it; the caller holds s.mu. Every node pushes the feed the
// order describes (orderFeed) through its installed plans. The node a client
// gave the order to coordinates it: it first sends every other node the
// order — a FEED's document only to the owner of the stream's tap — and
// afterwards merges their counts into its own. A diverged node refuses.
func (s *Server) work(o order, feed map[string][]*xmlstream.Element, coordinate bool) (map[string]int, error) {
	if s.diverged != "" {
		return nil, errors.New(s.diverged)
	}
	if !coordinate || s.cluster == nil {
		return s.execute(feed)
	}
	id, ch, peers := s.clusterPrepare()
	defer s.clusterRelease(id)
	head, bodyTo := fmt.Sprintf("RUN %s %d %d", id, o.n, o.seed), ""
	if o.stream != "" {
		head = "FEED " + id + " " + o.stream
		bodyTo = s.cluster.NodeOf(s.eng.Original(o.stream).Tap)
	}
	for _, node := range s.cluster.Nodes() {
		if node == s.cluster.Node() {
			continue
		}
		payload := []byte(head)
		if node == bodyTo {
			payload = append(append(payload, '\n'), o.doc...)
		}
		if err := s.cluster.SendControl(node, payload); err != nil {
			return nil, err
		}
	}
	counts, err := s.execute(feed)
	if err == nil {
		err = s.clusterCollect(ch, peers, counts)
	}
	return counts, err
}

// remoteWork executes a coordinator's work order on this node and answers
// with the locally-delivered counts. A FEED order with a document makes this
// node the owner of the stream's tap: it parses the document and injects the
// items; without one it takes part through its operators only.
func (s *Server) remoteWork(from, id string, o order) {
	var counts map[string]int
	var err error
	if len(o.doc) > 0 {
		o.items, err = s.parseFeedDoc(o.doc)
	}
	if err == nil {
		s.mu.Lock()
		counts, err = s.work(o, s.orderFeed(o), false)
		s.mu.Unlock()
	}
	s.reply(from, id, counts, err)
}

// reply answers a fan-out work order with RES (sorted count lines) or ERR.
func (s *Server) reply(from, id string, counts map[string]int, err error) {
	if err != nil {
		s.cluster.SendControl(from, []byte(fmt.Sprintf("ERR %s %s\n%v", id, s.cluster.Node(), err))) //nolint:errcheck
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "RES %s %s", id, s.cluster.Node())
	ids := make([]string, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, sub := range ids {
		fmt.Fprintf(&b, "\n%s %d", sub, counts[sub])
	}
	s.cluster.SendControl(from, []byte(b.String())) //nolint:errcheck
}

// orderFeed derives what a work order feeds the original streams: a FEED's
// decoded document, or for a RUN the synthetic photons of every original
// stream, one deterministic seed per stream starting at the order's. Every
// node derives the same; the caller holds s.mu.
func (s *Server) orderFeed(o order) map[string][]*xmlstream.Element {
	if o.stream != "" {
		return map[string][]*xmlstream.Element{o.stream: o.items}
	}
	feed := map[string][]*xmlstream.Element{}
	seed := o.seed
	for _, d := range s.eng.Streams() {
		if !d.Original {
			continue
		}
		feed[d.Input.Stream] = photons.NewGenerator(s.cfg, seed).Generate(o.n)
		seed++
	}
	s.seed = seed
	return feed
}

// parseFeedDoc decodes one client-supplied stream document into items,
// converting attributes to elements (§2), and counts it: a document per
// call, its items when it decodes, and whether it left the decoder's fast
// lane.
func (s *Server) parseFeedDoc(doc []byte) ([]*xmlstream.Element, error) {
	s.feedDocs.Inc()
	dec := xmlstream.NewDecoder(bytes.NewReader(doc)).ConvertAttributes()
	var items []*xmlstream.Element
	for {
		item, err := dec.Next()
		if err == nil {
			items = append(items, item)
			continue
		}
		if dec.FellBack() {
			s.feedFallback.Inc()
		}
		if err != io.EOF {
			return nil, err
		}
		s.feedItems.Add(float64(len(items)))
		return items, nil
	}
}
