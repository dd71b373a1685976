package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"streamshare/internal/obs"
)

// cleanup tracks everything the benchmark must not leave behind: child
// processes and temp directories. run registers both as it creates them and
// releases them on every exit path; a signal handler does the same.
var cleanup = struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
	dirs  map[string]struct{}
}{procs: map[*exec.Cmd]struct{}{}, dirs: map[string]struct{}{}}

func trackProc(c *exec.Cmd) {
	cleanup.mu.Lock()
	cleanup.procs[c] = struct{}{}
	cleanup.mu.Unlock()
}

func trackDir(d string) {
	cleanup.mu.Lock()
	cleanup.dirs[d] = struct{}{}
	cleanup.mu.Unlock()
}

// untrackProc forgets a child and reports whether it was still tracked.
func untrackProc(c *exec.Cmd) bool {
	cleanup.mu.Lock()
	defer cleanup.mu.Unlock()
	_, live := cleanup.procs[c]
	delete(cleanup.procs, c)
	return live
}

// stopProc ends a child and waits until it has ended. SIGTERM first: sgd
// dies of it, and a child benchmark (all-workloads mode) takes its own
// children down before it exits; SIGKILL if that takes too long.
func stopProc(c *exec.Cmd) {
	if !untrackProc(c) {
		return
	}
	c.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	done := make(chan struct{})
	go func() {
		c.Wait() //nolint:errcheck // stopped on purpose: the exit status carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		c.Process.Kill() //nolint:errcheck
		<-done
	}
}

func removeDir(d string) {
	cleanup.mu.Lock()
	delete(cleanup.dirs, d)
	cleanup.mu.Unlock()
	os.RemoveAll(d) //nolint:errcheck // best effort; out/ is ignored by git
}

// cleanupAll stops every tracked child and removes every tracked directory.
func cleanupAll() {
	cleanup.mu.Lock()
	procs := make([]*exec.Cmd, 0, len(cleanup.procs))
	for c := range cleanup.procs {
		procs = append(procs, c)
	}
	dirs := make([]string, 0, len(cleanup.dirs))
	for d := range cleanup.dirs {
		dirs = append(dirs, d)
	}
	cleanup.mu.Unlock()
	for _, c := range procs {
		stopProc(c)
	}
	for _, d := range dirs {
		removeDir(d)
	}
}

// cleanupOnSignal makes SIGINT/SIGTERM/SIGHUP take the children and temp
// files down before the benchmark exits.
func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-ch
		cleanupAll()
		os.Exit(130)
	}()
}

// repoRoot finds the streamshare checkout the benchmark sits in: the
// working directory is bench/ under `go run -C bench` and under `go test`.
func repoRoot() (string, error) {
	for _, dir := range []string{"..", "."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sgd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find the streamshare checkout (run from the repo root or from bench/)")
}

// outDir returns bench/out, created on demand; everything the benchmark
// writes goes under it.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// buildSGD compiles cmd/sgd from the checkout into bench/out. The build is
// not part of any metric.
func buildSGD() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	out, err := outDir()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(out, "sgd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sgd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/sgd: %v\n%s", err, msg)
	}
	return bin, nil
}

// sgdNode is one running sgd process.
type sgdNode struct {
	name       string
	cmd        *exec.Cmd
	clientAddr string // line-protocol listener
	meshAddr   string
	httpAddr   string // introspection endpoint, traced runs only

	logMu sync.Mutex
	log   []string
	lines chan string
}

var (
	meshRe   = regexp.MustCompile(`mesh on (\S+),`)
	listenRe = regexp.MustCompile(`listening on (\S+)$`)
)

// startSGD starts one sgd process and collects its log; waitLog reads the
// addresses it binds out of it.
func startSGD(bin, name string, args ...string) (*sgdNode, error) {
	n := &sgdNode{name: name, lines: make(chan string, 64)} // log lines are few; 64 never fills before a reader looks
	n.cmd = exec.Command(bin, args...)
	stderr, err := n.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := n.cmd.Start(); err != nil {
		return nil, err
	}
	trackProc(n.cmd)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			n.logMu.Lock()
			n.log = append(n.log, line)
			n.logMu.Unlock()
			select {
			case n.lines <- line:
			default: // nobody is waiting for a log line any more
			}
		}
		close(n.lines)
	}()
	return n, nil
}

// waitLog waits for a log line matching re and returns its first group.
func (n *sgdNode) waitLog(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-n.lines:
			if !ok {
				return "", fmt.Errorf("sgd %s exited: %s", n.name, n.lastLog())
			}
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1], nil
			}
		case <-deadline:
			return "", fmt.Errorf("sgd %s: no %q within %v: %s", n.name, re, timeout, n.lastLog())
		}
	}
}

func (n *sgdNode) lastLog() string {
	n.logMu.Lock()
	defer n.logMu.Unlock()
	return strings.Join(n.log[max(0, len(n.log)-5):], " | ")
}

// procField reads the first number after "key:" in a /proc/<pid> file
// (0 when the file or the key is missing).
func procField(pid int, file, key string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// peakRSSMB is a process's resident-set high-water mark (VmHWM, in kB).
func peakRSSMB(pid int) float64 { return procField(pid, "status", "VmHWM") / 1024 }

// procWriteBytes is the bytes a process caused to be sent to the storage
// layer so far: journal writes, not sockets.
func procWriteBytes(pid int) float64 { return procField(pid, "io", "write_bytes") }

// clusterOpts selects how the two sgd processes are started.
type clusterOpts struct {
	bin     string
	grid    int
	durable bool // -data <tmp> -data-sync interval on both nodes
	traced  bool // -span-every 16 and an -http introspection port
}

// cluster is two meshed sgd processes and one client connection to n0.
type cluster struct {
	nodes   [2]*sgdNode // n0 (coordinator), n1
	dataDir string
	cl      *lineClient
}

// freePort asks the kernel for an unused loopback port. sgd logs the -http
// address as given, so ":0" would leave the bound port unknown.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startCluster starts n1 (accepting) then n0 (dialing) on ephemeral ports,
// waits for the mesh and both client listeners, and connects to n0.
func startCluster(o clusterOpts) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.stop()
		}
	}()
	if o.durable {
		out, err := outDir()
		if err != nil {
			return nil, err
		}
		if c.dataDir, err = os.MkdirTemp(out, "data-"); err != nil {
			return nil, err
		}
		trackDir(c.dataDir)
	}
	start := func(i int, name, join string) (*sgdNode, error) {
		a := []string{"-grid", strconv.Itoa(o.grid), "-node", name,
			"-cluster-listen", "127.0.0.1:0", "-join", join, "-listen", "127.0.0.1:0"}
		if o.durable {
			a = append(a, "-data", filepath.Join(c.dataDir, name), "-data-sync", "interval")
		}
		httpAddr := ""
		if o.traced {
			var err error
			if httpAddr, err = freePort(); err != nil {
				return nil, err
			}
			a = append(a, "-span-every", "16", "-http", httpAddr)
		}
		n, err := startSGD(o.bin, name, a...)
		if err != nil {
			return nil, err
		}
		n.httpAddr = httpAddr
		c.nodes[i] = n
		return n, nil
	}
	n1, err := start(1, "n1", "n0=")
	if err != nil {
		return nil, err
	}
	if n1.meshAddr, err = n1.waitLog(meshRe, 20*time.Second); err != nil {
		return nil, err
	}
	n0, err := start(0, "n0", "n1="+n1.meshAddr)
	if err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		if n.clientAddr, err = n.waitLog(listenRe, 30*time.Second); err != nil {
			return nil, err
		}
	}
	if c.cl, err = dialLine(n0.clientAddr); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// peakRSSMB sums the resident-set high-water marks of both processes.
func (c *cluster) peakRSSMB() float64 {
	total := 0.0
	for _, n := range c.nodes {
		if n != nil {
			total += peakRSSMB(n.cmd.Process.Pid)
		}
	}
	return total
}

func (c *cluster) writeBytes() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += procWriteBytes(n.cmd.Process.Pid)
	}
	return total
}

// stop closes the client, kills both processes, waits for them and removes
// the data directory.
func (c *cluster) stop() {
	if c.cl != nil {
		c.cl.close()
	}
	for _, n := range c.nodes {
		if n != nil {
			stopProc(n.cmd)
		}
	}
	if c.dataDir != "" {
		removeDir(c.dataDir)
	}
}

// lineClient speaks the sgd line protocol over one TCP connection.
type lineClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialLine(addr string) (*lineClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &lineClient{conn: conn, r: bufio.NewReaderSize(conn, 1<<16), w: bufio.NewWriterSize(conn, 1<<16)}, nil
}

func (c *lineClient) close() { c.conn.Close() }

// send writes one command; body, when non-empty, is the query text or
// stream document that follows, terminated here by the lone ".".
func (c *lineClient) send(cmd string, body []byte) error {
	c.w.WriteString(cmd)
	c.w.WriteByte('\n')
	if body != nil {
		c.w.Write(body)
		if len(body) == 0 || body[len(body)-1] != '\n' {
			c.w.WriteByte('\n')
		}
		c.w.WriteString(".\n")
	}
	return c.w.Flush()
}

// reply is one protocol response: the "OK …"/"ERR …" head and the indented
// continuation lines, trimmed.
type reply struct {
	head  string
	lines []string
}

func (r reply) err() error {
	if strings.HasPrefix(r.head, "OK") {
		return nil
	}
	return errors.New(r.head)
}

// recv reads one response up to its "." terminator.
func (c *lineClient) recv(timeout time.Duration) (reply, error) {
	c.conn.SetReadDeadline(time.Now().Add(timeout)) //nolint:errcheck // a failed deadline surfaces as a read error
	var rep reply
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return rep, err
		}
		line = strings.TrimSpace(line)
		if line == "." {
			return rep, nil
		}
		if rep.head == "" {
			rep.head = line
		} else {
			rep.lines = append(rep.lines, line)
		}
	}
}

// do sends one command and reads its response.
func (c *lineClient) do(cmd string, body []byte) (reply, error) {
	if err := c.send(cmd, body); err != nil {
		return reply{}, err
	}
	return c.recv(replyTimeout)
}

// replyTimeout bounds any single protocol round trip; a slower reply counts
// as a failed operation.
const replyTimeout = 30 * time.Second

// counts parses "<id> <count>" continuation lines (RUN/FEED replies).
func (r reply) counts() map[string]int {
	m := make(map[string]int, len(r.lines))
	for _, l := range r.lines {
		id, c, ok := strings.Cut(l, " ")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(c); err == nil {
			m[id] = n
		}
	}
	return m
}

// subscribe registers one sharing query and returns its id.
func (c *lineClient) subscribe(q query) (string, error) {
	rep, err := c.do(fmt.Sprintf("SUBSCRIBE %s sharing", q.target), []byte(q.src))
	if err != nil {
		return "", err
	}
	if err := rep.err(); err != nil {
		return "", err
	}
	return strings.TrimPrefix(rep.head, "OK "), nil
}

// nodeVars is what sgd's /debug/vars exposes that the ledger reads: the
// engine's metrics snapshot and the Go runtime's memory statistics.
type nodeVars struct {
	Streamshare obs.Snapshot `json:"streamshare"`
	Memstats    struct {
		Mallocs      uint64
		TotalAlloc   uint64
		PauseTotalNs uint64
	} `json:"memstats"`
}

// vars fetches the node's /debug/vars (traced runs only).
func (n *sgdNode) vars() (nodeVars, error) {
	var v nodeVars
	resp, err := http.Get("http://" + n.httpAddr + "/debug/vars")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(data, &v)
}
