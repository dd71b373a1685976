package transport

import (
	"bufio"
	"net"
	"time"
)

// TCP is the Transport over real sockets: length-prefixed frames on a
// net.Conn, buffered reads, one flush per frame. The zero value is ready.
type TCP struct{}

// NewTCP returns the TCP transport.
func NewTCP() *TCP { return &TCP{} }

// Listen binds a TCP listener (addr as for net.Listen, e.g.
// "127.0.0.1:0").
func (t *TCP) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln}, nil
}

// Dial opens a TCP connection to a listener's address.
func (t *TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

type tcpListener struct{ ln net.Listener }

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

func (l *tcpListener) Close() error { return l.ln.Close() }

// tcpConn frames one net.Conn. It has one writer and one reader at a time
// (a handshake half, then the link's writer and reader), so it takes no
// lock of its own.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newTCPConn(c net.Conn) *tcpConn {
	if t, ok := c.(*net.TCPConn); ok {
		// Frames are flushed whole; batching already happened upstream.
		t.SetNoDelay(true)
	}
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}
}

func (c *tcpConn) WriteFrame(payload []byte) error {
	if err := WriteFramePayload(c.bw, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *tcpConn) ReadFrame() ([]byte, error) { return ReadFramePayload(c.br) }

// SetReadDeadline delegates to the socket. Bytes already buffered read
// without a deadline check; the next socket read honors it.
func (c *tcpConn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

func (c *tcpConn) Close() error { return c.c.Close() }
