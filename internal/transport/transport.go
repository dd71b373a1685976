package transport

import (
	"errors"
	"time"
)

// ErrClosed reports an operation on a closed conn, listener, link or mesh.
var ErrClosed = errors.New("transport: closed")

// Transport abstracts how nodes reach each other: TCP between OS
// processes, or the in-process implementation that carries the same
// encoded frames over Go channels (the byte-for-byte equivalence oracle
// for the wire path).
type Transport interface {
	// Listen binds a listener at addr. The in-process transport accepts
	// any string as an address; an empty addr picks a fresh one.
	Listen(addr string) (Listener, error)
	// Dial opens a connection to a listener's address.
	Dial(addr string) (Conn, error)
}

// Listener accepts inbound connections at one address.
type Listener interface {
	// Accept blocks until the next inbound connection (or the listener
	// closes).
	Accept() (Conn, error)
	// Addr returns the bound address, usable with Dial.
	Addr() string
	// Close stops accepting; a blocked Accept returns ErrClosed.
	Close() error
}

// Conn is one framed bidirectional connection. A conn is written by its
// handshake, then by its link's writer, never by both, and read likewise,
// so implementations need not serialize callers.
type Conn interface {
	// WriteFrame sends one encoded frame payload, length-prefixed. The
	// payload is not retained.
	WriteFrame(payload []byte) error
	// ReadFrame returns the next frame payload.
	ReadFrame() ([]byte, error)
	// SetReadDeadline bounds future ReadFrame calls: a read still blocked
	// at t fails, after which the conn is good only for teardown. The zero
	// time clears the deadline. The mesh arms it during handshakes, so a
	// half-open peer cannot pin a handshake forever.
	SetReadDeadline(t time.Time) error
	// Close tears the connection down; blocked reads and writes on either
	// end return errors.
	Close() error
}
