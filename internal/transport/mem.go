package transport

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// Mem is the in-process Transport: the same encoded frame payloads travel
// through Go channels instead of sockets, so the codec and the link
// protocol are exercised byte-for-byte without the network — it is the
// equivalence oracle the TCP path is diffed against, and what tests use
// when they need deterministic, port-free links.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	next      int
}

// NewMem returns an empty in-process transport. Addresses are scoped to
// this instance.
func NewMem() *Mem { return &Mem{listeners: map[string]*memListener{}} }

// Listen binds a listener at addr; an empty addr allocates "mem:N".
func (t *Mem) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		t.next++
		addr = fmt.Sprintf("mem:%d", t.next)
	}
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %s in use", addr)
	}
	l := &memListener{t: t, addr: addr, accept: make(chan Conn, 8), done: make(chan struct{})}
	t.listeners[addr] = l
	return l, nil
}

// Dial connects to a listener previously bound on this transport.
func (t *Mem) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l := t.listeners[addr]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: connection refused: %s", addr)
	}
	a, b := memPair()
	select {
	case l.accept <- b:
		return a, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: connection refused: %s", addr)
	}
}

type memListener struct {
	t      *Mem
	addr   string
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Addr() string { return l.addr }

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		delete(l.t.listeners, l.addr)
		l.t.mu.Unlock()
	})
	return nil
}

// memPair returns the two ends of an in-process connection: two directed
// frame queues and one shared close signal, so closing either end breaks
// both directions like a socket teardown does.
func memPair() (Conn, Conn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &memConn{in: ba, out: ab, done: done, once: once}
	b := &memConn{in: ab, out: ba, done: done, once: once}
	return a, b
}

type memConn struct {
	in   chan []byte
	out  chan []byte
	done chan struct{}
	once *sync.Once

	mu  sync.Mutex
	rdl time.Time
}

func (c *memConn) WriteFrame(payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrTooLarge
	}
	// Copy: the contract says payloads are not retained, and the reader
	// receives an owned slice just as it would from a socket read.
	p := make([]byte, len(payload))
	copy(p, payload)
	select {
	case c.out <- p:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

func (c *memConn) ReadFrame() ([]byte, error) {
	// Drain frames already in flight before honoring the close, the way
	// delivered TCP segments remain readable after a peer close.
	select {
	case p := <-c.in:
		return p, nil
	default:
	}
	expire, stop, err := c.expiry()
	if err != nil {
		return nil, err
	}
	defer stop()
	select {
	case p := <-c.in:
		return p, nil
	case <-expire:
		return nil, os.ErrDeadlineExceeded
	case <-c.done:
		return nil, ErrClosed
	}
}

// expiry maps the read deadline to a timer channel for ReadFrame's blocking
// select: nil (blocks never) when no deadline is set, an immediate error
// when it already passed. stop releases the timer.
func (c *memConn) expiry() (<-chan time.Time, func(), error) {
	c.mu.Lock()
	t := c.rdl
	c.mu.Unlock()
	if t.IsZero() {
		return nil, func() {}, nil
	}
	d := time.Until(t)
	if d <= 0 {
		return nil, nil, os.ErrDeadlineExceeded
	}
	tm := time.NewTimer(d)
	return tm.C, func() { tm.Stop() }, nil
}

// SetReadDeadline bounds future ReadFrame calls, mirroring net.Conn
// deadline semantics on the in-process transport.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl = t
	c.mu.Unlock()
	return nil
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
