package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"streamshare/internal/wire"
	"streamshare/internal/xmlstream"
)

// This file is the wire format: one Frame struct covering every message
// kind the inter-node protocol carries, encoded as a length-prefixed
// payload. The layout is
//
//	uint32 big-endian payload length │ payload
//
// and the payload is
//
//	byte frame type │ uvarint link seq │ type-specific body
//
// where strings and byte blobs are uvarint length + bytes. The link seq is
// the per-connection replay sequence (assigned by Link.Send); control
// frames that bypass the replay buffer — Hello, Welcome, LinkAck — carry
// seq 0. Decoding validates every claimed length against the bytes actually
// present, so truncated, oversized or corrupt inputs error out without
// panicking or allocating beyond the input size (FuzzFrame holds it to that).

// ProtocolVersion is the handshake version this build speaks. Hello and
// Welcome carry it; a mismatch fails the handshake. docs/WIRE.md §5 says
// what an older peer sees: version 1 could put plain Batch frames on a conn,
// version 2 places super-peers on nodes by another rule, version 3 may put
// the reserved type 6 on a conn, and version 4 seeds a conn's dictionaries
// from the handshake, where this build starts them empty.
const ProtocolVersion = 5

// MaxFrameSize bounds one frame payload on the wire (16 MiB). ReadFramePayload
// rejects larger length prefixes before allocating.
const MaxFrameSize = 16 << 20

// FrameType tags one frame's kind.
type FrameType uint8

// Frame kinds. Hello/Welcome are the connection handshake, Batch is a
// message's items inside a process and in a durable link's journal, BatchBin
// the same batch on a conn (its items one wire-codec payload), Ack a
// channel-consumer cumulative ack, LinkAck the link-level replay-buffer ack,
// and Control an opaque coordination payload (the server layer's
// subscription/run replication).
const (
	FrameHello FrameType = iota + 1
	FrameWelcome
	FrameBatch
	FrameAck
	FrameLinkAck
	// frameReserved is type 6, protocol version 3's heartbeat: DecodeFrame
	// rejects it.
	frameReserved
	FrameControl
	FrameBatchBin
)

// String names the frame type for logs and state dumps.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameBatch:
		return "batch"
	case FrameAck:
		return "ack"
	case FrameLinkAck:
		return "linkack"
	case FrameControl:
		return "control"
	case FrameBatchBin:
		return "batchbin"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// ErrFrame reports a malformed frame payload.
var ErrFrame = errors.New("transport: malformed frame")

// ErrTooLarge reports a frame whose length prefix exceeds MaxFrameSize.
var ErrTooLarge = errors.New("transport: frame exceeds size limit")

// Frame is one decoded wire message. Only the fields of its Type are
// meaningful; the rest stay zero.
type Frame struct {
	// Type tags which message this is.
	Type FrameType
	// Seq is the link-level replay sequence (0 for unsequenced control
	// frames).
	Seq uint64

	// Version is the protocol version (Hello, Welcome).
	Version uint32
	// Node is the sender's node name (Hello, Welcome).
	Node string
	// Resume is the next link sequence the sender expects to receive —
	// the peer replays its journal from here (Hello, Welcome).
	Resume uint64

	// Stream is the deployed stream id (Batch, Ack).
	Stream string
	// Hop is the route hop the batch is addressed to (Batch).
	Hop int
	// Epoch is the plan epoch stamped on the batch (Batch).
	Epoch uint64
	// SeqLo is the channel sequence of the batch's first unit (Batch).
	SeqLo uint64
	// EOS marks the end-of-stream batch (Batch).
	EOS bool
	// Span is the serialized provenance span header, empty when the batch
	// carries none (Batch).
	Span []byte
	// Elems are the batch's items as element trees (Batch), shared
	// read-only. A link's writer encodes them into a BatchBin payload for
	// the conn and the peer's reader decodes that back into Elems; the
	// Batch encoding below, each item as its canonical XML, is what a
	// durable link's journal stores and is never put on a conn.
	Elems []*xmlstream.Element

	// Consumer is the acking channel consumer (Ack).
	Consumer string
	// Ack is the cumulative acked sequence: a channel sequence in Ack
	// frames, a link sequence in LinkAck frames.
	Ack uint64

	// Data is the opaque coordination payload (Control) or the wire-codec
	// item payload (BatchBin).
	Data []byte
}

// AppendFrame appends the frame's encoded payload (without the length
// prefix) to b and returns the extended slice.
func AppendFrame(b []byte, f *Frame) []byte {
	b = append(b, byte(f.Type))
	b = binary.AppendUvarint(b, f.Seq)
	switch f.Type {
	case FrameHello, FrameWelcome:
		b = binary.AppendUvarint(b, uint64(f.Version))
		b = appendString(b, f.Node)
		b = binary.AppendUvarint(b, f.Resume)
		b = append(b, 0) // the capability map, empty since version 5
	case FrameBatch:
		b = appendBatchHead(b, f)
		b = binary.AppendUvarint(b, uint64(len(f.Elems)))
		for _, e := range f.Elems {
			b = binary.AppendUvarint(b, uint64(xmlstream.MarshalSize(e)))
			b = xmlstream.AppendMarshal(b, e)
		}
	case FrameAck:
		b = appendString(b, f.Stream)
		b = appendString(b, f.Consumer)
		b = binary.AppendUvarint(b, f.Ack)
	case FrameLinkAck:
		b = binary.AppendUvarint(b, f.Ack)
	case FrameControl:
		b = appendBytes(b, f.Data)
	case FrameBatchBin:
		b = appendBatchHead(b, f)
		b = appendBytes(b, f.Data)
	}
	return b
}

// appendBatchHead appends the fields Batch and BatchBin bodies share.
func appendBatchHead(b []byte, f *Frame) []byte {
	b = appendString(b, f.Stream)
	b = binary.AppendUvarint(b, uint64(f.Hop))
	b = binary.AppendUvarint(b, f.Epoch)
	b = binary.AppendUvarint(b, f.SeqLo)
	if f.EOS {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendBytes(b, f.Span)
}

// EncodeFrame returns the frame's encoded payload.
func EncodeFrame(f *Frame) []byte { return AppendFrame(nil, f) }

// DecodeFrame parses one frame payload. The returned frame's byte-slice
// fields alias b; callers that retain the frame past the buffer's life
// must copy (a Batch's element trees alias nothing: xmlstream.UnmarshalBytes).
// Malformed input, an item that is not XML included, returns ErrFrame
// (wrapped with detail).
func DecodeFrame(b []byte) (*Frame, error) {
	d := wire.Cursor{B: b, Err: ErrFrame}
	f := &Frame{}
	t, err := d.Byte()
	if err != nil {
		return nil, err
	}
	f.Type = FrameType(t)
	if f.Type < FrameHello || f.Type > FrameBatchBin || f.Type == frameReserved {
		return nil, fmt.Errorf("%w: unknown type %d", ErrFrame, t)
	}
	if f.Seq, err = d.Uvarint(); err != nil {
		return nil, err
	}
	switch f.Type {
	case FrameHello, FrameWelcome:
		v, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<31 {
			return nil, fmt.Errorf("%w: version %d out of range", ErrFrame, v)
		}
		f.Version = uint32(v)
		if f.Node, err = d.Str(); err != nil {
			return nil, err
		}
		if f.Resume, err = d.Uvarint(); err != nil {
			return nil, err
		}
		// The capability map of an older Hello or Welcome is skipped, so
		// the handshake can refuse it by version and say so.
		n, err := d.Count()
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2*n; i++ {
			if _, err := d.Blob(); err != nil {
				return nil, err
			}
		}
	case FrameBatch:
		if err := batchHead(&d, f); err != nil {
			return nil, err
		}
		n, err := d.Count()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			f.Elems = make([]*xmlstream.Element, 0, n)
		}
		for i := 0; i < n; i++ {
			it, err := d.Blob()
			if err != nil {
				return nil, err
			}
			e, err := xmlstream.UnmarshalBytes(it)
			if err != nil {
				return nil, fmt.Errorf("%w: item %d: %v", ErrFrame, i, err)
			}
			f.Elems = append(f.Elems, e)
		}
	case FrameAck:
		if f.Stream, err = d.Str(); err != nil {
			return nil, err
		}
		if f.Consumer, err = d.Str(); err != nil {
			return nil, err
		}
		if f.Ack, err = d.Uvarint(); err != nil {
			return nil, err
		}
	case FrameLinkAck:
		if f.Ack, err = d.Uvarint(); err != nil {
			return nil, err
		}
	case FrameControl:
		if f.Data, err = d.Blob(); err != nil {
			return nil, err
		}
	case FrameBatchBin:
		if err := batchHead(&d, f); err != nil {
			return nil, err
		}
		if f.Data, err = d.Blob(); err != nil {
			return nil, err
		}
	}
	if len(d.B) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(d.B))
	}
	return f, nil
}

// batchHead reads the fields Batch and BatchBin bodies share.
func batchHead(d *wire.Cursor, f *Frame) (err error) {
	if f.Stream, err = d.Str(); err != nil {
		return err
	}
	hop, err := d.Uvarint()
	if err != nil {
		return err
	}
	if hop > 1<<20 {
		return fmt.Errorf("%w: hop %d out of range", ErrFrame, hop)
	}
	f.Hop = int(hop)
	if f.Epoch, err = d.Uvarint(); err != nil {
		return err
	}
	if f.SeqLo, err = d.Uvarint(); err != nil {
		return err
	}
	eos, err := d.Byte()
	if err != nil {
		return err
	}
	if eos > 1 {
		return fmt.Errorf("%w: bad eos byte %d", ErrFrame, eos)
	}
	f.EOS = eos == 1
	f.Span, err = d.Blob()
	return err
}

// WriteFramePayload writes one length-prefixed frame payload to w.
func WriteFramePayload(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFramePayload reads one length-prefixed frame payload from r,
// rejecting lengths above MaxFrameSize before allocating.
func ReadFramePayload(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}
