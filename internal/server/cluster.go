package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
)

// This file coordinates several sgd processes into one multi-process
// super-peer daemon. Every process builds the same topology and engine;
// WithCluster attaches a runtime.Cluster whose control frames mirror the
// engine mutations and fan runs out:
//
//   - SUBSCRIBE/UNSUBSCRIBE on the coordinating node broadcast a
//     "SUB"/"UNSUB" control to every other node. Identical engines apply
//     identical mutations in link order and assign identical ids, so no
//     id translation is needed.
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
//     leaves. Like SUB/UNSUB, the format assumes every node runs the same
//     binary: a document the coordinator accepted is one the owner accepts.
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

// WithCluster attaches a cluster: RUN and FEED execute on every process's
// cluster runtime and merge the remote counts, SUBSCRIBE/UNSUBSCRIBE
// mirror to the other nodes, and NODES reports the membership. The server
// takes ownership: Close tears the cluster's mesh down.
func (s *Server) WithCluster(c *runtime.Cluster) *Server {
	s.cluster = c
	s.waits = map[string]chan remoteRes{}
	c.SetControl(s.handleControl)
	return s
}

// nodesCmd reports the cluster membership and per-link transport state.
func (s *Server) nodesCmd(w io.Writer) {
	if s.cluster == nil {
		fmt.Fprintln(w, "OK 1 nodes")
		fmt.Fprintln(w, "  (single process)")
		return
	}
	nodes := s.cluster.Nodes()
	fmt.Fprintf(w, "OK %d nodes\n", len(nodes))
	self := s.cluster.Node()
	stats := s.cluster.Stats()
	for _, n := range nodes {
		if n == self {
			fmt.Fprintf(w, "  %s self @ %s\n", n, s.cluster.Addr())
			continue
		}
		for _, st := range stats {
			if st.Remote == n {
				fmt.Fprintf(w, "  %s %s seeded=%d sent=%d recv=%d reconnects=%d\n",
					n, st.Phase, st.SeededNames, st.FramesSent, st.FramesRecv, st.Reconnects)
			}
		}
	}
}

// handleControl dispatches one inbound control frame. Mutations (SUB,
// UNSUB) apply inline on the dispatcher goroutine so their order matches
// the coordinator's; work orders (RUN, FEED) move to their own goroutine
// — a run needs this link's dispatcher free to deliver data frames.
func (s *Server) handleControl(from string, data []byte) {
	head, body, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(head)
	if len(f) == 0 {
		return
	}
	switch f[0] {
	case "SUB":
		if len(f) != 3 {
			return
		}
		strat, err := parseStrategy(f[2])
		if err != nil {
			return
		}
		s.mu.Lock()
		s.eng.Subscribe(body, network.PeerID(f[1]), strat) //nolint:errcheck
		s.mu.Unlock()
	case "UNSUB":
		if len(f) != 2 {
			return
		}
		s.mu.Lock()
		s.eng.Unsubscribe(f[1]) //nolint:errcheck
		s.stall.Forget(f[1])
		s.mu.Unlock()
	case "RUN":
		if len(f) != 4 {
			return
		}
		n, _ := strconv.Atoi(f[2])
		seed, _ := strconv.ParseInt(f[3], 10, 64)
		go s.remoteRun(from, f[1], n, seed)
	case "FEED":
		if len(f) != 3 {
			return
		}
		go s.remoteFeed(from, f[1], f[2], body)
	case "RES", "ERR":
		if len(f) != 3 {
			return
		}
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
	}
}

// mirror broadcasts one engine mutation to the other nodes. Callers hold
// s.mu (the local mutation and its mirror are one critical section).
func (s *Server) mirror(payload string) {
	if s.cluster == nil {
		return
	}
	s.cluster.BroadcastControl([]byte(payload)) //nolint:errcheck
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

// executeCluster fans one feed out across the cluster: it sends every other
// node the work order, executes locally (the runtime injects only
// locally-owned sources and exchanges batches over the mesh), and merges
// the remote counts. The caller holds s.mu; order is the op head line ("RUN
// n seed" or "FEED stream", the run id goes in after the op) and feed what
// it describes; body — a FEED document — goes to node bodyTo alone.
func (s *Server) executeCluster(order string, feed map[string][]*xmlstream.Element, body, bodyTo string) (map[string]int, error) {
	id, ch, peers := s.clusterPrepare()
	defer s.clusterRelease(id)
	op, args, _ := strings.Cut(order, " ")
	order = op + " " + id + " " + args
	for _, node := range s.cluster.Nodes() {
		if node == s.cluster.Node() {
			continue
		}
		payload := order
		if node == bodyTo {
			payload += "\n" + body
		}
		if err := s.cluster.SendControl(node, []byte(payload)); err != nil {
			return nil, err
		}
	}
	counts, err := s.execute(feed)
	if err != nil {
		return nil, err
	}
	if err := s.clusterCollect(ch, peers, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// remoteRun executes a coordinator's RUN order on this node and answers
// with the locally-delivered counts.
func (s *Server) remoteRun(from, id string, n int, seed int64) {
	s.mu.Lock()
	feed := s.buildFeed(n, seed)
	counts, err := s.execute(feed)
	s.mu.Unlock()
	s.reply(from, id, counts, err)
}

// remoteFeed executes a coordinator's FEED order on this node. An order
// with a document makes this node the owner of the stream's tap: it parses
// the document and injects the items. An order without one parses nothing;
// the node takes part through its operators.
func (s *Server) remoteFeed(from, id, stream, doc string) {
	var items []*xmlstream.Element
	var err error
	if doc != "" {
		items, err = s.parseFeedDoc(doc)
	}
	var counts map[string]int
	if err == nil {
		s.mu.Lock()
		counts, err = s.execute(map[string][]*xmlstream.Element{stream: items})
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

// buildFeed generates the synthetic photon feed for every original
// stream, one deterministic seed per stream starting at base. Each node
// derives the same feed; the runtime injects only locally-owned taps.
// The caller holds s.mu.
func (s *Server) buildFeed(n int, base int64) map[string][]*xmlstream.Element {
	feed := map[string][]*xmlstream.Element{}
	seed := base
	for _, d := range s.eng.Streams() {
		if !d.Original {
			continue
		}
		feed[d.Input.Stream] = photons.NewGenerator(s.cfg, seed).Generate(n)
		seed++
	}
	s.seed = seed
	return feed
}

// parseFeedDoc decodes one client-supplied stream document into items,
// converting attributes to elements (§2), and counts it: a document per
// call, its items when it decodes, and whether it left the decoder's fast
// lane.
func (s *Server) parseFeedDoc(doc string) ([]*xmlstream.Element, error) {
	s.feedDocs.Inc()
	dec := xmlstream.NewDecoder(strings.NewReader(doc)).ConvertAttributes()
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
