package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// WithCluster attaches a runtime.Cluster whose control frames carry the
// catalog and fan runs out:
//
//   - One node writes the control log: the sequencer, the smallest node
//     name. It applies every core.CatalogOp — SUBSCRIBE, UNSUBSCRIBE and
//     each event of FAIL, RESTORE and ADAPT — and sends every other node the
//     op's catalog record with its position. Every other node forwards those
//     commands, RUN and FEED to it (forward) and applies records in position
//     order, as a restart does its journal. A node's position is the count
//     of records it applied and a running digest of them.
//   - RUN/FEED send every other node a work order and execute on every
//     process's cluster-attached runtime (each injects only the sources it
//     owns); the remote nodes answer with a "RES" control carrying their
//     locally-delivered counts, which the coordinator merges into the
//     client reply. A RUN order is "RUN <id> <n> <seed> <position>" and
//     every node generates the same feed from it. A FEED order is
//     "FEED <id> <stream> <position>" and has two shapes: the node that owns
//     the stream's tap gets the client's document as the body and parses
//     it; every other node gets no body, parses nothing and takes part
//     through its operators. A node at another position refuses the order.
//     The coordinator has parsed and checked the document before any order
//     leaves. The formats assume every node runs the same binary: a
//     document the coordinator accepted is one the owner accepts.
//
// Control frames are sequenced and FIFO per link, so a node applies a
// record before the reply or the run that follows it. Reads (STATS,
// HEALTH, METRICS, NODES) are local views and can go anywhere.

// forwarded holds the commands a node other than the sequencer hands to
// it; true marks the two whose body follows the command line.
var forwarded = map[string]bool{"SUBSCRIBE": true, "FEED": true,
	"UNSUBSCRIBE": false, "FAIL": false, "RESTORE": false, "ADAPT": false, "RUN": false}

// remoteRes is one remote node's answer to a fanned-out run or a forward.
type remoteRes struct {
	node, body, err string
}

// order is one RUN or FEED work order, as a client's command or a
// coordinator's control frame describes it.
type order struct {
	n      int                  // RUN: items per original stream
	seed   int64                // RUN: the first stream's generator seed
	stream string               // FEED: the stream fed ("" for a RUN)
	pos    string               // the coordinator's position ("" on it)
	doc    []byte               // FEED: the document, where this node holds it
	items  []*xmlstream.Element // FEED: the document decoded
}

// WithCluster attaches a cluster: RUN and FEED execute on every process's
// cluster runtime and merge the remote counts, the sequencer's catalog
// records reach the other nodes, and NODES reports the membership. The server
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

// sequencer is the node that writes the control log: the smallest name,
// the one that dials every other.
func (s *Server) sequencer() string { return s.cluster.Nodes()[0] }

// position renders this node's catalog position; the caller holds s.mu.
func (s *Server) position() string { return fmt.Sprintf("%d:%016x", s.logLen, s.logSum.Sum64()) }

// apply is the one way the catalog changes: a client's op on the sequencer
// (or a single process), a record the sequencer sent, or a journal record a
// restart replays. It applies the op, journals its record and counts it into
// the position; the sequencer also sends the record, with its position
// appended, to every other node. It runs under s.mu — write-ahead of the
// reply, not of the in-memory state: a crash in between loses at most the
// op whose OK the client never saw.
func (s *Server) apply(op core.CatalogOp) (string, error) {
	id, err := s.eng.Apply(op, s.replayAdapt)
	if err != nil {
		return "", err
	}
	s.stall.Forget(id)
	op.ID = id
	rec := op.Record()
	s.logLen++
	s.logSum.Write(rec) //nolint:errcheck // a hash never fails
	if s.catWAL != nil {
		s.catWAL.Append(rec[0], rec[1:]) //nolint:errcheck // sticky WAL error resurfaces on Close
	}
	if s.cluster != nil && s.sequencer() == s.cluster.Node() {
		s.cluster.BroadcastControl(binary.BigEndian.AppendUint64(rec, uint64(s.logLen))) //nolint:errcheck // fails only on a closing mesh
	}
	return id, nil
}

// applyMirrored applies one record the sequencer sent, inline on the link's
// dispatcher so records apply in position order. A record at or below this
// node's position is a duplicate (a durable link re-dispatched a control
// whose done mark a crash lost) and is skipped; one past the next position,
// or one that does not apply, is refused, and the node stays where it is.
func (s *Server) applyMirrored(from string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(data) - 8
	if n < 1 {
		s.refuseControl(fmt.Sprintf("from %s: short record %q", from, data))
		return
	}
	pos := int(binary.BigEndian.Uint64(data[n:]))
	if pos <= s.logLen {
		return
	}
	op, err := core.ParseCatalogRecord(data[0], data[1:n])
	if pos > s.logLen+1 {
		err = errors.New("a record is missing before it")
	} else if err == nil {
		_, err = s.apply(op)
	}
	if err != nil {
		s.refuseControl(fmt.Sprintf("record %d from %s: %v; node %s stays at position %s",
			pos, from, err, s.cluster.Node(), s.position()))
	}
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
	case len(f) == 5 && f[0] == "RUN":
		n, _ := strconv.Atoi(f[2])
		seed, _ := strconv.ParseInt(f[3], 10, 64)
		go s.remoteWork(from, f[1], order{n: n, seed: seed, pos: f[4]})
	case len(f) == 4 && f[0] == "FEED":
		go s.remoteWork(from, f[1], order{stream: f[2], pos: f[3], doc: []byte(body)})
	case len(f) >= 3 && f[0] == "FWD":
		go s.serveForward(from, f[1], strings.ToUpper(f[2]), f[3:], body)
	case len(f) == 3 && (f[0] == "RES" || f[0] == "ERR"):
		s.cmu.Lock()
		ch := s.waits[f[1]]
		s.cmu.Unlock()
		if ch == nil {
			return
		}
		res := remoteRes{node: f[2], body: body}
		if f[0] == "ERR" {
			res.err = body
			if res.err == "" {
				res.err = "remote run failed"
			}
		}
		ch <- res
	default:
		s.refuseControl(fmt.Sprintf("from %s: unknown or malformed control %q", from, head))
	}
}

// clusterPrepare registers a fan-out run or a forward and returns its id,
// the reply channel and the number of remote nodes a fan-out hears from. The caller
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

// clusterCollect hands the body of each of peers answers to got, or returns
// the first remote failure.
func (s *Server) clusterCollect(ch chan remoteRes, peers int, got func(body string)) error {
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	for i := 0; i < peers; i++ {
		select {
		case res := <-ch:
			if res.err != "" {
				return fmt.Errorf("cluster node %s: %s", res.node, res.err)
			}
			got(res.body)
		case <-timeout.C:
			return fmt.Errorf("cluster: no result from every node within 60s")
		}
	}
	return nil
}

// work executes one work order on this node, the one way an order runs
// whoever issued it; the caller holds s.mu. Every node pushes the feed the
// order describes (orderFeed) through its installed plans. The sequencer
// coordinates it: it first sends every other node the order with its
// position — a FEED's document only to the owner of the stream's tap — and
// afterwards merges their counts into its own. A node at another position
// refuses the order.
func (s *Server) work(o order, feed map[string][]*xmlstream.Element, coordinate bool) (map[string]int, error) {
	if pos := s.position(); o.pos != "" && o.pos != pos {
		return nil, fmt.Errorf("node %s is at catalog position %s, the order's is %s", s.cluster.Node(), pos, o.pos)
	}
	if !coordinate || s.cluster == nil {
		return s.execute(feed)
	}
	id, ch, peers := s.clusterPrepare()
	defer s.clusterRelease(id)
	head, bodyTo := fmt.Sprintf("RUN %s %d %d %s", id, o.n, o.seed, s.position()), ""
	if o.stream != "" {
		head = fmt.Sprintf("FEED %s %s %s", id, o.stream, s.position())
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
		err = s.clusterCollect(ch, peers, func(body string) {
			for _, line := range strings.Split(body, "\n") {
				if id, c, ok := strings.Cut(line, " "); ok {
					n, _ := strconv.Atoi(c)
					counts[id] += n
				}
			}
		})
	}
	return counts, err
}

// forward hands a client's command to the sequencer as one control frame,
// "FWD <id> <command line>" and the body, and writes the sequencer's reply.
// It holds no lock while it waits: the op's record comes first on the same
// link and applies here before the reply does.
func (s *Server) forward(w io.Writer, r *input, cmd string, args []string) {
	id, ch, _ := s.clusterPrepare()
	defer s.clusterRelease(id)
	msg := []byte(strings.Join(append([]string{"FWD", id, cmd}, args...), " ") + "\n")
	if forwarded[cmd] {
		body, err := r.readBody()
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		msg = append(msg, body...)
	}
	err := s.cluster.SendControl(s.sequencer(), msg)
	if err == nil {
		err = s.clusterCollect(ch, 1, func(body string) { io.WriteString(w, body) }) //nolint:errcheck // the session's flush reports it
	}
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
	}
}

// serveForward runs a command another node forwarded through the dispatch a
// client session uses, in its own goroutine — a forwarded FEED needs the
// link's dispatcher free for data frames — and sends the reply text back.
func (s *Server) serveForward(from, id, cmd string, args []string, body string) {
	var b strings.Builder
	s.dispatch(&b, &input{Reader: bufio.NewReader(strings.NewReader(body + ".\n"))}, cmd, args)
	s.cluster.SendControl(from, []byte("RES "+id+" "+s.cluster.Node()+"\n"+b.String())) //nolint:errcheck // fails only on a closing mesh
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
