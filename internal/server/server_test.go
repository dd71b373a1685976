package server

import (
	"bufio"
	"fmt"
	"net"
	"regexp"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
)

const velaQ = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0
  return <vela> { $p/coord/cel/ra } { $p/en } </vela> }
</photons>`

// lineEngine registers the photon stream at SP0 of a three-peer line; twin
// calls are identical.
func lineEngine(t *testing.T) *core.Engine {
	t.Helper()
	n := network.New()
	for _, id := range []network.PeerID{"SP0", "SP1", "SP2"} {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 20000, PerfIndex: 1})
	}
	n.Connect("SP0", "SP1", 12_500_000)
	n.Connect("SP1", "SP2", 12_500_000)
	eng := core.NewEngine(n, core.Config{})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 3, 500)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	return eng
}

func startServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	srv := New(lineEngine(t), photons.DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }
}

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

// cmd sends a command (plus optional body) and reads the status line with
// its indented continuation lines, up to the "." terminator.
func (c *client) cmd(t *testing.T, line, body string) (status string, cont []string) {
	t.Helper()
	fmt.Fprintf(c.conn, "%s\n", line)
	if body != "" {
		fmt.Fprintf(c.conn, "%s\n.\n", body)
	}
	return c.reply(t)
}

// reply reads one reply: the status line and the continuation lines.
func (c *client) reply(t *testing.T) (status string, cont []string) {
	t.Helper()
	raw, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	status = strings.TrimSpace(raw)
	for {
		l, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(l) == "." {
			return status, cont
		}
		cont = append(cont, strings.TrimSpace(l))
	}
}

func TestServerProtocol(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)

	status, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ)
	if status != "OK q1" {
		t.Fatalf("subscribe = %q", status)
	}

	status, cont := c.cmd(t, "EXPLAIN q1", "")
	if !strings.HasPrefix(status, "OK") || len(cont) == 0 {
		t.Fatalf("explain = %q %v", status, cont)
	}
	if !strings.Contains(strings.Join(cont, "\n"), "photons") {
		t.Errorf("explain lacks plan detail: %v", cont)
	}

	status, cont = c.cmd(t, "RUN 400", "")
	if !strings.HasPrefix(status, "OK") {
		t.Fatalf("run = %q", status)
	}
	found := false
	for _, l := range cont {
		if strings.HasPrefix(l, "q1 ") && !strings.HasSuffix(l, " 0") {
			found = true
		}
	}
	if !found {
		t.Errorf("run results = %v", cont)
	}

	status, cont = c.cmd(t, "STATS", "")
	if !strings.HasPrefix(status, "OK 2 streams, 1 subscriptions") {
		t.Fatalf("stats = %q", status)
	}
	if len(cont) < 2 {
		t.Errorf("stats continuation = %v", cont)
	}

	status, cont = c.cmd(t, "PEERS", "")
	if status != "OK 3 peers" || len(cont) != 3 {
		t.Fatalf("peers = %q %v", status, cont)
	}

	status, _ = c.cmd(t, "UNSUBSCRIBE q1", "")
	if !strings.HasPrefix(status, "OK") {
		t.Fatalf("unsubscribe = %q", status)
	}
	status, _ = c.cmd(t, "UNSUBSCRIBE q1", "")
	if !strings.HasPrefix(status, "ERR") {
		t.Fatalf("double unsubscribe = %q", status)
	}

	status, _ = c.cmd(t, "QUIT", "")
	if status != "OK bye" {
		t.Fatalf("quit = %q", status)
	}
}

// TestServerRunsStartClean: successive RUNs on the simulator backend each
// deliver, for a coarse window recomposed from a shared fine one, what a
// fresh engine delivers from the same photons — a RUN does not inherit the
// merge position the one before it left behind.
func TestServerRunsStartClean(t *testing.T) {
	queries := []string{
		`<photons>{ for $w in stream("photons")/photons/photon |det_time diff 10 step 10| let $a := sum($w/en) return <fine>{ $a }</fine> }</photons>`,
		`<photons>{ for $w in stream("photons")/photons/photon |det_time diff 40 step 20| let $a := sum($w/en) return <coarse>{ $a }</coarse> }</photons>`,
	}
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	for _, q := range queries {
		if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", q); !strings.HasPrefix(s, "OK") {
			t.Fatalf("subscribe = %q", s)
		}
	}
	if _, cont := c.cmd(t, "EXPLAIN q2", ""); !strings.Contains(strings.Join(cont, "\n"), "window-merge") {
		t.Fatalf("q2 is not recomposed from q1's windows: %v", cont)
	}
	for k := 1; k <= 2; k++ {
		_, cont := c.cmd(t, "RUN 400", "")
		fresh := lineEngine(t)
		for _, q := range queries {
			if _, err := fresh.Subscribe(q, "SP2", core.StreamSharing); err != nil {
				t.Fatal(err)
			}
		}
		// RUN k feeds the generator seeded k (the server starts at seed 1).
		feed := photons.NewGenerator(photons.DefaultConfig(), int64(k)).Generate(400)
		ref, err := fresh.Simulate(map[string][]*xmlstream.Element{"photons": feed}, false)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("q2 %d", ref.Results["q2"])
		if ref.Results["q2"] == 0 || !slices.Contains(cont, want) {
			t.Errorf("RUN %d = %v, fresh engine %q", k, cont, want)
		}
	}
}

func TestServerFeed(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); !strings.HasPrefix(s, "OK") {
		t.Fatalf("subscribe = %q", s)
	}
	status, cont := c.cmd(t, "FEED photons", feedDoc)
	if status != "OK fed 2 items into photons" {
		t.Fatalf("feed = %q", status)
	}
	// Only the in-box photon passes the vela ra filter.
	if len(cont) != 1 || cont[0] != "q1 1" {
		t.Errorf("feed results = %v", cont)
	}
	// Malformed feed is rejected but the session survives.
	if s, _ := c.cmd(t, "FEED photons", "<photons><broken>"); !strings.HasPrefix(s, "ERR") {
		t.Errorf("broken feed = %q", s)
	}
	if s, _ := c.cmd(t, "PEERS", ""); !strings.HasPrefix(s, "OK") {
		t.Errorf("session after broken feed = %q", s)
	}
	// Feeding an unregistered stream fails cleanly, and the same way
	// whichever backend would have executed it.
	saddr, sstop := startSessionServer(t)
	defer sstop()
	caddr, _, cstop := startClusterServers(t)
	defer cstop()
	for backend, a := range map[string]string{"simulator": addr, "session": saddr, "cluster": caddr} {
		if s, _ := dial(t, a).cmd(t, "FEED nope", "<r></r>"); s != "ERR unknown stream nope" {
			t.Errorf("%s: unknown stream feed = %q", backend, s)
		}
	}
}

// TestFeedBodyLineEndings: a FEED body is read into the session's buffer up
// to a line holding only "." once spaces are trimmed, so CRLF line ends,
// trailing spaces, a padded terminator and a one-line document longer than
// the reader's buffer all decode to the items of the plain document, and the
// session reads the next command where the body ended.
func TestFeedBodyLineEndings(t *testing.T) {
	srv := New(lineEngine(t), photons.DefaultConfig())
	items := photons.NewGenerator(photons.DefaultConfig(), 5).Generate(40)
	lines := []string{"<photons>"}
	for _, it := range items {
		lines = append(lines, xmlstream.Marshal(it))
	}
	lines = append(lines, "</photons>")
	for name, body := range map[string]string{
		"lf":            strings.Join(lines, "\n") + "\n.\n",
		"crlf":          strings.Join(lines, "\r\n") + "\r\n.\r\n",
		"trailing":      strings.Join(lines, "  \n") + "  \n . \t\n",
		"one long line": strings.Join(lines, "") + "\n.\n",
	} {
		in := &input{Reader: bufio.NewReaderSize(strings.NewReader(body+"PEERS\n"), 16)}
		doc, err := in.readBody()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := srv.parseFeedDoc(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(items) {
			t.Fatalf("%s: %d items, want %d", name, len(got), len(items))
		}
		for i := range items {
			if !got[i].Equal(items[i]) {
				t.Fatalf("%s item %d: %s, want %s", name, i, xmlstream.Marshal(got[i]), xmlstream.Marshal(items[i]))
			}
		}
		if next, err := in.ReadString('\n'); next != "PEERS\n" || err != nil {
			t.Fatalf("%s: next command %q (%v)", name, next, err)
		}
	}
	// A body cut off before its terminator is an error.
	in := &input{Reader: bufio.NewReader(strings.NewReader("<photons>\n</photons>\n"))}
	if _, err := in.readBody(); err == nil {
		t.Error("a body without a terminator was accepted")
	}
}

func TestServerErrors(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)

	if s, _ := c.cmd(t, "FROBNICATE", ""); !strings.HasPrefix(s, "ERR unknown command") {
		t.Errorf("unknown command = %q", s)
	}
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 teleport", "whatever"); !strings.HasPrefix(s, "ERR unknown strategy") {
		t.Errorf("bad strategy = %q", s)
	}
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", "not a query"); !strings.HasPrefix(s, "ERR") {
		t.Errorf("bad query = %q", s)
	}
	typo := `<photons>{ for $w in stream("photons")/photons/photon |det_time diff 20 step 20| let $a := averag($w/en) return <fine>{ $a }</fine> }</photons>`
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", typo); !strings.HasPrefix(s, "ERR") || !strings.Contains(s, "averag") {
		t.Errorf("unknown aggregate = %q", s)
	}
	if s, _ := c.cmd(t, "EXPLAIN nope", ""); !strings.HasPrefix(s, "ERR") {
		t.Errorf("bad explain = %q", s)
	}
	if s, _ := c.cmd(t, "RUN many", ""); !strings.HasPrefix(s, "ERR") {
		t.Errorf("bad run = %q", s)
	}
	// The connection stays usable after errors.
	if s, _ := c.cmd(t, "PEERS", ""); !strings.HasPrefix(s, "OK") {
		t.Errorf("peers after errors = %q", s)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	done := make(chan string, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c := dial(t, addr)
			s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ)
			done <- s
		}()
	}
	ids := map[string]bool{}
	for i := 0; i < 4; i++ {
		s := <-done
		if !strings.HasPrefix(s, "OK q") {
			t.Fatalf("concurrent subscribe = %q", s)
		}
		if ids[s] {
			t.Fatalf("duplicate subscription id %q", s)
		}
		ids[s] = true
	}
}

// explainGolden is the expected shape of an enriched EXPLAIN reply, one
// pattern per continuation line: the installed plan first, then the full
// planning decision with every candidate, match outcome and cost breakdown.
// Volatile fields (timings, cost values) are matched structurally.
var explainGolden = []string{
	`^q2 at SP2$`,
	`^input photons: shared stream s1\(q1 via orig:photons@SP0\), operators \[.*\] at SP\d, routed \[SP2\](, post-processing \[.*\] at SP2)?$`,
	`^decision q2 strategy="Stream Sharing" target=SP2 ok \(.* compute, \d+ messages, \d+ peers visited\)$`,
	`^input photons visited=\[SP0 SP2\] candidates=2$`,
	`^candidate orig:photons found=SP0 outcome=match tap=SP0 route=\[SP0 SP1 SP2\] residual=\[.*\] traffic=[0-9.e+-]+ load=[0-9.e+-]+ penalty=[0-9.e+-]+ total=[0-9.e+-]+$`,
	`^candidate s1\(q1 via orig:photons@SP0\) found=SP0 outcome=match tap=SP2 route=\[SP2\] residual=\[\] traffic=[0-9.e+-]+ load=[0-9.e+-]+ penalty=[0-9.e+-]+ total=[0-9.e+-]+ selected$`,
}

func matchLines(t *testing.T, what string, got []string, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d:\n%s", what, len(got), len(want), strings.Join(got, "\n"))
	}
	for i, pat := range want {
		if !regexp.MustCompile(pat).MatchString(got[i]) {
			t.Errorf("%s line %d = %q, want match for %s", what, i, got[i], pat)
		}
	}
}

// TestServerExplainGolden registers two identical sharing subscriptions so
// the second reuses the first's stream, and checks EXPLAIN's full candidate
// table: the original stream (priced but not chosen) and the shared stream
// (selected).
func TestServerExplainGolden(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	for i, want := range []string{"OK q1", "OK q2"} {
		if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != want {
			t.Fatalf("subscribe %d = %q", i+1, s)
		}
	}
	status, cont := c.cmd(t, "EXPLAIN q2", "")
	if status != "OK q2" {
		t.Fatalf("explain = %q", status)
	}
	matchLines(t, "EXPLAIN q2", cont, explainGolden)
}

// TestServerExplainRejectionReason checks that a candidate whose properties
// do not match shows up in EXPLAIN with its Algorithm 2 rejection reason.
func TestServerExplainRejectionReason(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}
	// Different predicate: q1's selection stream cannot serve it.
	enQ := `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3
  return <hit> { $p/en } </hit> }
</photons>`
	if s, _ := c.cmd(t, "SUBSCRIBE SP1 sharing", enQ); s != "OK q2" {
		t.Fatalf("subscribe 2 = %q", s)
	}
	_, cont := c.cmd(t, "EXPLAIN q2", "")
	joined := strings.Join(cont, "\n")
	if !strings.Contains(joined, `outcome=no-match reason="subscription predicates do not imply the stream's selection`) {
		t.Errorf("EXPLAIN q2 lacks the rejection reason:\n%s", joined)
	}
	if !strings.Contains(joined, "candidate orig:photons found=SP0 outcome=match") {
		t.Errorf("EXPLAIN q2 lacks the original-stream candidate:\n%s", joined)
	}
}

// TestServerMetricsGolden checks the METRICS snapshot: deterministic counter
// and gauge series produced by two registrations, one run and two fed
// documents, one of them with an attribute.
func TestServerMetricsGolden(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	for _, want := range []string{"OK q1", "OK q2"} {
		if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != want {
			t.Fatalf("subscribe = %q", s)
		}
	}
	if s, _ := c.cmd(t, "RUN 100", ""); !strings.HasPrefix(s, "OK") {
		t.Fatalf("run = %q", s)
	}
	for _, doc := range []string{feedDoc, `<photons><photon id="7"><en>1</en></photon></photons>`} {
		if s, _ := c.cmd(t, "FEED photons", doc); !strings.HasPrefix(s, "OK") {
			t.Fatalf("feed = %q", s)
		}
	}
	status, cont := c.cmd(t, "METRICS", "")
	if !regexp.MustCompile(`^OK \d+ series$`).MatchString(status) {
		t.Fatalf("metrics status = %q", status)
	}
	got := map[string]bool{}
	for _, l := range cont {
		got[l] = true
	}
	for _, want := range []string{
		"counter core.streams.registered 1",
		"counter core.subscribe.total 2",
		"counter core.subscribe.installed 2",
		"counter sim.runs 3",
		"counter server.feed.docs 2",
		"counter server.feed.items 3",
		"counter server.feed.docs.fallback 1",
		"gauge core.subscriptions.active 2",
	} {
		if !got[want] {
			t.Errorf("METRICS lacks %q in:\n%s", want, strings.Join(cont, "\n"))
		}
	}
	// The simulator's published traffic counter exists and is positive.
	found := false
	for _, l := range cont {
		if m := regexp.MustCompile(`^counter sim\.traffic\.bytes ([0-9.e+]+)$`).FindStringSubmatch(l); m != nil && m[1] != "0" {
			found = true
		}
	}
	if !found {
		t.Errorf("METRICS lacks a positive sim.traffic.bytes:\n%s", strings.Join(cont, "\n"))
	}
}

// TestServerTrace checks TRACE replay: listing, by-id lookup with the full
// candidate table, and the unknown-id error.
func TestServerTrace(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	for _, want := range []string{"OK q1", "OK q2"} {
		if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != want {
			t.Fatalf("subscribe = %q", s)
		}
	}
	status, cont := c.cmd(t, "TRACE", "")
	if status != "OK 2 traces" || len(cont) != 2 {
		t.Fatalf("trace list = %q %v", status, cont)
	}
	if !strings.HasPrefix(cont[0], "decision q1 ") || !strings.HasPrefix(cont[1], "decision q2 ") {
		t.Errorf("trace list lines = %v", cont)
	}
	status, cont = c.cmd(t, "TRACE q2", "")
	if status != "OK q2" {
		t.Fatalf("trace q2 = %q", status)
	}
	matchLines(t, "TRACE q2", cont, explainGolden[2:])
	if s, _ := c.cmd(t, "TRACE nope", ""); !strings.HasPrefix(s, "ERR no trace") {
		t.Errorf("trace nope = %q", s)
	}
}

// TestServerCloseTerminatesSessions is the shutdown regression test: Close
// must terminate in-flight sessions (idle readers included), return without
// hanging, and leave no session goroutines behind.
func TestServerCloseTerminatesSessions(t *testing.T) {
	before := goruntime.NumGoroutine()
	addr, stop := startServer(t)
	clients := make([]*client, 3)
	for i := range clients {
		clients[i] = dial(t, addr)
		if s, _ := clients[i].cmd(t, "PEERS", ""); !strings.HasPrefix(s, "OK") {
			t.Fatalf("peers = %q", s)
		}
	}
	// All three sessions are now idle, blocked in ReadString.
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while sessions were open")
	}
	// Every client connection was terminated.
	for i, c := range clients {
		c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.r.ReadString('\n'); err == nil {
			t.Errorf("client %d: connection still open after Close", i)
		}
	}
	// No leaked goroutines: accept loop and all sessions have exited.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && goruntime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after Close", before, after)
	}
}

// TestServerCloseBeforeServe checks the races around a Close racing Serve:
// closing first must make Serve return immediately.
func TestServerCloseBeforeServe(t *testing.T) {
	n := network.New()
	n.AddPeer(network.Peer{ID: "SP0", Super: true, Capacity: 1000, PerfIndex: 1})
	srv := New(core.NewEngine(n, core.Config{}), photons.DefaultConfig())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return on a closed server")
	}
}

// buildDetourEngine builds a topology with a short route SP0-SP1-SP2 and a
// longer backup route SP0-SP3-SP4-SP2, so failing SP1 leaves a repair path.
func buildDetourEngine(t *testing.T) *core.Engine {
	t.Helper()
	n := network.New()
	for _, id := range []network.PeerID{"SP0", "SP1", "SP2", "SP3", "SP4"} {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 20000, PerfIndex: 1})
	}
	n.Connect("SP0", "SP1", 12_500_000)
	n.Connect("SP1", "SP2", 12_500_000)
	n.Connect("SP0", "SP3", 12_500_000)
	n.Connect("SP3", "SP4", 12_500_000)
	n.Connect("SP4", "SP2", 12_500_000)
	eng := core.NewEngine(n, core.Config{})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 3, 500)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	return eng
}

// startDetourServer serves buildDetourEngine from one process.
func startDetourServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	srv := New(buildDetourEngine(t), photons.DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }
}

// TestServerFailRepairs drives the adaptation commands end to end: FAIL a
// relay, observe the repair report, check the plan moved to the backup route
// and still delivers, then RESTORE and apply a schedule via ADAPT.
func TestServerFailRepairs(t *testing.T) {
	addr, stop := startDetourServer(t)
	defer stop()
	c := dial(t, addr)
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}

	status, cont := c.cmd(t, "FAIL SP1", "")
	if status != "OK 1 events: 1 repaired, 0 rejected, 0 migrated" {
		t.Fatalf("fail = %q", status)
	}
	if len(cont) != 1 || !strings.Contains(cont[0], "q1 repaired") {
		t.Errorf("fail reports = %v", cont)
	}

	_, cont = c.cmd(t, "EXPLAIN q1", "")
	if joined := strings.Join(cont, "\n"); !strings.Contains(joined, "SP3") {
		t.Errorf("repaired plan does not use the backup route:\n%s", joined)
	}

	status, cont = c.cmd(t, "RUN 200", "")
	if !strings.HasPrefix(status, "OK") {
		t.Fatalf("run after repair = %q", status)
	}
	delivered := false
	for _, l := range cont {
		if strings.HasPrefix(l, "q1 ") && !strings.HasSuffix(l, " 0") {
			delivered = true
		}
	}
	if !delivered {
		t.Errorf("repaired plan delivered nothing: %v", cont)
	}

	if s, _ := c.cmd(t, "RESTORE SP1", ""); !strings.HasPrefix(s, "OK 1 events:") {
		t.Fatalf("restore = %q", s)
	}
	// A full schedule through ADAPT; the repaired plan does not use SP0-SP1,
	// so the events apply cleanly with nothing to repair.
	if s, _ := c.cmd(t, "ADAPT fail:SP0-SP1; restore:SP0-SP1, reopt", ""); !strings.HasPrefix(s, "OK 3 events:") {
		t.Fatalf("adapt = %q", s)
	}
}

// TestServerFailRejects covers the no-repair-path case on the chain
// topology: the subscription is explicitly rejected and torn down, and
// resubscription after RESTORE succeeds.
func TestServerFailRejects(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}

	status, cont := c.cmd(t, "FAIL SP1", "")
	if status != "OK 1 events: 0 repaired, 1 rejected, 0 migrated" {
		t.Fatalf("fail = %q", status)
	}
	if len(cont) != 1 || !strings.Contains(cont[0], "q1 rejected") {
		t.Errorf("fail reports = %v", cont)
	}
	if s, _ := c.cmd(t, "STATS", ""); !strings.HasPrefix(s, "OK 1 streams, 0 subscriptions") {
		t.Errorf("stats after rejection = %q", s)
	}

	if s, _ := c.cmd(t, "RESTORE SP1", ""); !strings.HasPrefix(s, "OK 1 events: 0 repaired") {
		t.Fatalf("restore = %q", s)
	}
	// The freed id is reused: the engine numbers by live-subscription count.
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); !strings.HasPrefix(s, "OK q") {
		t.Fatalf("resubscribe after restore = %q", s)
	}
}

// TestServerAdaptErrors checks the error paths of the adaptation commands;
// the session must stay usable after each.
func TestServerAdaptErrors(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	for _, bad := range []string{
		"FAIL",
		"FAIL nope",
		"FAIL SP0-nope",
		"RESTORE",
		"RESTORE nope",
		"ADAPT",
		"ADAPT frobnicate:SP0",
		"ADAPT fail:",
	} {
		if s, _ := c.cmd(t, bad, ""); !strings.HasPrefix(s, "ERR") {
			t.Errorf("%q = %q, want ERR", bad, s)
		}
	}
	if s, _ := c.cmd(t, "PEERS", ""); !strings.HasPrefix(s, "OK") {
		t.Errorf("session after errors = %q", s)
	}
}

// startLagServer is startServer with every source item span-sampled, so LAG
// has watermarks to report after a single RUN.
func startLagServer(t *testing.T) (addr string, eng *core.Engine, stop func()) {
	t.Helper()
	n := network.New()
	for _, id := range []network.PeerID{"SP0", "SP1", "SP2"} {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 20000, PerfIndex: 1})
	}
	n.Connect("SP0", "SP1", 12_500_000)
	n.Connect("SP1", "SP2", 12_500_000)
	eng = core.NewEngine(n, core.Config{})
	eng.Obs().Latency.SetRate(1)
	_, st := photons.Stream("photons", photons.DefaultConfig(), 3, 500)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, photons.DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), eng, func() { srv.Close() }
}

// TestServerLag drives the LAG command end to end: before any run the
// subscription has no watermark, after a fully sampled run it reports the
// watermark with quantiles, and polling LAG while no new items arrive makes
// the lag grow monotonically until the stall detector raises STALLED.
// Unsubscribing drops the stall history.
func TestServerLag(t *testing.T) {
	addr, _, stop := startLagServer(t)
	defer stop()
	c := dial(t, addr)
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); s != "OK q1" {
		t.Fatalf("subscribe = %q", s)
	}

	status, cont := c.cmd(t, "LAG", "")
	if status != "OK 1 subscriptions" {
		t.Fatalf("lag before run = %q", status)
	}
	if len(cont) != 1 || cont[0] != "q1 watermark=none sampled=0" {
		t.Fatalf("lag before run lines = %v", cont)
	}

	if s, _ := c.cmd(t, "RUN 100", ""); !strings.HasPrefix(s, "OK") {
		t.Fatalf("run = %q", s)
	}
	lagRow := regexp.MustCompile(`^q1 watermark=\S+ lag=\d+\.\d+s p50=\d+\.\d+s p99=\d+\.\d+s sampled=[1-9]\d*( STALLED)?$`)
	// No new deliveries arrive between polls, so lag over the fixed
	// watermark grows strictly with the wall clock; the default window-3
	// detector must flag the subscription within a handful of polls.
	stalled := false
	for i := 0; i < 8; i++ {
		time.Sleep(2 * time.Millisecond)
		status, cont = c.cmd(t, "LAG", "")
		if status != "OK 1 subscriptions" {
			t.Fatalf("lag poll %d = %q", i, status)
		}
		if len(cont) != 1 || !lagRow.MatchString(cont[0]) {
			t.Fatalf("lag poll %d row = %v", i, cont)
		}
		if strings.HasSuffix(cont[0], " STALLED") {
			stalled = true
			break
		}
	}
	if !stalled {
		t.Error("stall detector never flagged an idle subscription")
	}

	// Unsubscribe forgets the stall history; a fresh identical subscription
	// starts clean (watermark survives in the registry, flag does not).
	if s, _ := c.cmd(t, "UNSUBSCRIBE q1", ""); !strings.HasPrefix(s, "OK") {
		t.Fatalf("unsubscribe = %q", s)
	}
	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); !strings.HasPrefix(s, "OK q") {
		t.Fatalf("resubscribe = %q", s)
	}
	_, cont = c.cmd(t, "LAG", "")
	if len(cont) != 1 || strings.HasSuffix(cont[0], " STALLED") {
		t.Errorf("stall history survived unsubscribe: %v", cont)
	}
}

// startSessionServer is startServer with a reliability session attached
// (sgd -reliable): RUN and FEED execute on the session-backed runtime.
func startSessionServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	n := network.New()
	for _, id := range []network.PeerID{"SP0", "SP1", "SP2"} {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 20000, PerfIndex: 1})
	}
	n.Connect("SP0", "SP1", 12_500_000)
	n.Connect("SP1", "SP2", 12_500_000)
	eng := core.NewEngine(n, core.Config{Reliable: true})
	_, st := photons.Stream("photons", photons.DefaultConfig(), 3, 500)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, photons.DefaultConfig()).WithSession(runtime.NewSession(runtime.SessionOptions{}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }
}

// TestServerHealth exercises the HEALTH command: without a session it
// errors, with one it reports per-channel rows, and nothing else, after a
// session-backed RUN.
func TestServerHealth(t *testing.T) {
	addr, stop := startServer(t)
	c := dial(t, addr)
	if s, _ := c.cmd(t, "HEALTH", ""); !strings.HasPrefix(s, "ERR reliability off") {
		t.Errorf("HEALTH without session = %q", s)
	}
	stop()

	addr, stop = startSessionServer(t)
	defer stop()
	c = dial(t, addr)

	if s, _ := c.cmd(t, "SUBSCRIBE SP2 sharing", velaQ); !strings.HasPrefix(s, "OK q") {
		t.Fatalf("subscribe = %q", s)
	}
	if s, _ := c.cmd(t, "RUN 50", ""); !strings.HasPrefix(s, "OK") {
		t.Fatalf("run = %q", s)
	}
	status, cont := c.cmd(t, "HEALTH", "")
	if !strings.HasPrefix(status, "OK") {
		t.Fatalf("HEALTH = %q", status)
	}
	chanRow := regexp.MustCompile(`^channel .+ epoch=\d+ next=\d+ cumack=\d+ replay=\d+ credits=\S+ (up|broken)$`)
	for _, l := range cont {
		if !chanRow.MatchString(l) {
			t.Errorf("HEALTH line %q is not a channel row", l)
		}
	}
	if len(cont) == 0 || status != fmt.Sprintf("OK %d channels", len(cont)) {
		t.Errorf("HEALTH = %q with %d channel rows after a session run", status, len(cont))
	}
}
