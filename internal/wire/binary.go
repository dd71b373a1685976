// Package wire is the item codec of a connection between two super-peer
// processes: a dictionary-compressed flat encoding of batches of element
// trees. An item is an *xmlstream.Element everywhere inside a process and
// one node of a payload on a socket; canonical XML is never built in
// between. The contract is tree-losslessness — DecodeElems(EncodeElems(ts))
// is Equal to ts, tree for tree (FuzzWireElems) — which is what keeps a
// distributed run item-identical to the in-process simulator.
//
// The payload grammar (specified normatively in docs/WIRE.md, with a worked
// example decoded by a test) is
//
//	payload := uvarint deltaCount, deltaCount × delta,
//	           uvarint itemCount,  itemCount × item
//	delta   := uvarint nameLen, nameLen bytes      (name appended to the
//	                                                dictionary; ids are the
//	                                                append positions, 0-based)
//	item    := node | raw
//	raw     := uvarint head(=kindRaw), uvarint len, len bytes (canonical XML)
//	node    := uvarint head, body
//	head    := nameID<<2 | kind
//	body    := kind 0 (empty leaf  <name/>)        : nothing
//	           kind 1 (text leaf   <name>t</name>) : uvarint len, len bytes
//	           kind 2 (interior)                   : uvarint n (≥1), n × node
//
// An item the node grammar cannot carry — nested past maxNodeDepth, or met
// when the dictionary is full — ships as a raw blob of its canonical XML
// (xmlstream.AppendMarshal), the one place this package materializes it.
//
// Dictionary state is per encoder/decoder pair (one direction of one
// connection) and monotonic: deltas only append, ids never rebind. A decode
// error rolls the dictionary back to its pre-payload length; the transport
// then tears the conn down, and the replay runs through the fresh pair the
// next conn mints. Encoders and decoders are not safe for concurrent use.
package wire

import (
	"encoding/binary"
	"fmt"

	"streamshare/internal/xmlstream"
)

// Binary encoding constants.
const (
	// kind codes in a node head's low two bits.
	kindEmpty = 0 // <name/>
	kindText  = 1 // <name>text</name>
	kindTree  = 2 // interior element with ≥1 children
	kindRaw   = 3 // canonical XML blob; only at item top level, nameID 0

	// MaxDictNames bounds a link dictionary. A conforming encoder falls
	// back to raw items once full; a decoder errors on payloads that grow
	// past it.
	MaxDictNames = 1 << 20

	// MaxDecodedBytes bounds the canonical XML a single payload may expand
	// to (mirrors transport.MaxFrameSize), so a small corrupt payload with
	// long dictionary names cannot amplify into an allocation bomb.
	MaxDecodedBytes = 16 << 20

	// maxNodeDepth bounds element nesting on both sides: the encoder falls
	// back to raw beyond it, the decoder rejects, keeping recursion depth
	// (and stack growth) bounded on crafted input.
	maxNodeDepth = 4096
)

// ErrBinary reports a malformed binary codec payload.
var ErrBinary = fmt.Errorf("wire: malformed binary payload")

// BinaryEncoder encodes batches of element trees with a growing interned
// name dictionary. Payloads are order-sensitive: the receiver must decode
// them in the exact sequence they were encoded, which the transport
// guarantees by giving every connection its own encoder and decoder,
// encoding on the link's single writer as frames go out, and decoding every
// payload a connection delivers in arrival order. Not safe for concurrent
// use; one instance per connection direction.
type BinaryEncoder struct {
	ids     map[string]uint64
	pending []string // names assigned but not yet shipped as deltas
	scratch []byte   // reused per-batch node buffer
}

// NewBinaryEncoder returns an encoder with an empty dictionary.
func NewBinaryEncoder() *BinaryEncoder {
	return &BinaryEncoder{ids: map[string]uint64{}}
}

// SeedShared pre-loads the dictionary with names agreed out of band, WITHOUT
// queueing deltas: a decoder seeded with the identical list assigns the same
// ids, so payloads carry no deltas for that vocabulary. Mesh conns never
// seed (their dictionaries start empty, docs/WIRE.md §3.1); the benchmark's
// codec kernel does. Must be
// called on a fresh encoder, before any EncodeElems, exactly once. Empty
// names and duplicates are skipped (mirrored by BinaryDecoder.SeedShared, so
// the tables stay aligned even on a sloppy list).
func (e *BinaryEncoder) SeedShared(names []string) {
	if e.ids == nil {
		e.ids = map[string]uint64{}
	}
	for _, name := range names {
		if name == "" {
			continue
		}
		if _, dup := e.ids[name]; dup {
			continue
		}
		if len(e.ids) >= MaxDictNames {
			return
		}
		e.ids[name] = uint64(len(e.ids))
	}
}

// assign returns the dictionary id for a name, registering it (and queueing
// its delta) on first use. ok is false when the dictionary is full. The lazy
// map init makes the zero-value BinaryEncoder usable.
func (e *BinaryEncoder) assign(name string) (uint64, bool) {
	if id, ok := e.ids[name]; ok {
		return id, true
	}
	if e.ids == nil {
		e.ids = map[string]uint64{}
	}
	if len(e.ids) >= MaxDictNames {
		return 0, false
	}
	id := uint64(len(e.ids))
	e.ids[name] = id
	e.pending = append(e.pending, name)
	return id, true
}

// EncodeElems appends one payload for the batch to dst: first any pending
// dictionary deltas (including names first seen inside this very batch),
// then the encoded items. The elements are only read.
func (e *BinaryEncoder) EncodeElems(dst []byte, items []*xmlstream.Element) []byte {
	scratch := e.scratch[:0]
	for _, el := range items {
		scratch = e.appendItem(scratch, el)
	}
	e.scratch = scratch

	dst = binary.AppendUvarint(dst, uint64(len(e.pending)))
	for _, name := range e.pending {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	e.pending = e.pending[:0]
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	return append(dst, scratch...)
}

// appendItem encodes one item. Items past the depth bound or met with a
// full dictionary ship as raw canonical XML instead.
func (e *BinaryEncoder) appendItem(dst []byte, el *xmlstream.Element) []byte {
	mark := len(dst)
	out, ok := e.appendNode(dst, el, 0)
	if ok {
		return out
	}
	raw := xmlstream.AppendMarshal(nil, el)
	dst = dst[:mark]
	dst = binary.AppendUvarint(dst, kindRaw)
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	return append(dst, raw...)
}

func (e *BinaryEncoder) appendNode(dst []byte, el *xmlstream.Element, depth int) ([]byte, bool) {
	if el == nil || depth > maxNodeDepth {
		return dst, false
	}
	id, ok := e.assign(el.Name)
	if !ok {
		return dst, false
	}
	switch {
	case len(el.Children) > 0:
		dst = binary.AppendUvarint(dst, id<<2|kindTree)
		dst = binary.AppendUvarint(dst, uint64(len(el.Children)))
		for _, c := range el.Children {
			if dst, ok = e.appendNode(dst, c, depth+1); !ok {
				return dst, false
			}
		}
		return dst, true
	case el.Text == "":
		return binary.AppendUvarint(dst, id<<2|kindEmpty), true
	default:
		dst = binary.AppendUvarint(dst, id<<2|kindText)
		dst = binary.AppendUvarint(dst, uint64(len(el.Text)))
		return append(dst, el.Text...), true
	}
}

// BinaryDecoder decodes payloads produced by a BinaryEncoder, mirroring its
// dictionary. Not safe for concurrent use; one instance per connection
// direction.
type BinaryDecoder struct {
	names []string
}

// NewBinaryDecoder returns a decoder with an empty dictionary.
func NewBinaryDecoder() *BinaryDecoder {
	return &BinaryDecoder{}
}

// SeedShared appends the agreed seed names to the dictionary, mirroring
// BinaryEncoder.SeedShared: same list, fresh decoder, exactly once, with
// empty names and duplicates skipped by identical rules so both tables end
// byte-for-byte aligned.
func (d *BinaryDecoder) SeedShared(names []string) {
	seen := make(map[string]bool, len(d.names)+len(names))
	for _, n := range d.names {
		seen[n] = true
	}
	for _, name := range names {
		if name == "" || seen[name] {
			continue
		}
		if len(d.names) >= MaxDictNames {
			return
		}
		seen[name] = true
		d.names = append(d.names, name)
	}
}

// DecodeElems parses one payload into freshly allocated element trees.
// Malformed input returns an error without panicking and without allocating
// beyond MaxDecodedBytes, and rolls the dictionary back to its pre-payload
// state, so the same payload can be decoded again after a transport replay.
func (d *BinaryDecoder) DecodeElems(payload []byte) ([]*xmlstream.Element, error) {
	n0 := len(d.names)
	items, err := d.decodeElems(payload)
	if err != nil {
		d.names = d.names[:n0]
		return nil, err
	}
	return items, nil
}

// cursor consumes a payload front to back, bounding every claimed length
// by the bytes remaining (the same discipline as the transport frame
// decoder) so corrupt input cannot drive large allocations.
type cursor struct{ b []byte }

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBinary)
	}
	c.b = c.b[n:]
	return v, nil
}

// count reads an element count, bounded by remaining bytes (each element
// costs at least one byte).
func (c *cursor) count() (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(c.b)) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrBinary, v, len(c.b))
	}
	return int(v), nil
}

// blob reads a uvarint length and that many bytes.
func (c *cursor) blob() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)) {
		return nil, fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrBinary, n, len(c.b))
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v, nil
}

// applyDeltas reads the payload's dictionary deltas into the table.
func (d *BinaryDecoder) applyDeltas(c *cursor) error {
	deltas, err := c.count()
	if err != nil {
		return err
	}
	for i := 0; i < deltas; i++ {
		name, err := c.blob()
		if err != nil {
			return err
		}
		if len(name) == 0 {
			return fmt.Errorf("%w: empty dictionary name", ErrBinary)
		}
		if len(d.names) >= MaxDictNames {
			return fmt.Errorf("%w: dictionary exceeds %d names", ErrBinary, MaxDictNames)
		}
		d.names = append(d.names, string(name))
	}
	return nil
}

func (d *BinaryDecoder) decodeElems(payload []byte) ([]*xmlstream.Element, error) {
	c := &cursor{b: payload}
	if err := d.applyDeltas(c); err != nil {
		return nil, err
	}
	nItems, err := c.count()
	if err != nil {
		return nil, err
	}
	items := make([]*xmlstream.Element, 0, min(nItems, 4096))
	budget := MaxDecodedBytes
	for i := 0; i < nItems; i++ {
		el, err := d.decodeNode(c, 0, &budget)
		if err != nil {
			return nil, err
		}
		items = append(items, el)
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinary, len(c.b))
	}
	return items, nil
}

// decodeNode reconstructs one node; depth 0 allows the raw-blob kind, which
// is only legal at item top level.
func (d *BinaryDecoder) decodeNode(c *cursor, depth int, budget *int) (*xmlstream.Element, error) {
	if depth > maxNodeDepth {
		return nil, fmt.Errorf("%w: nesting deeper than %d", ErrBinary, maxNodeDepth)
	}
	head, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	kind, id := head&3, head>>2
	if kind == kindRaw {
		if depth > 0 || id != 0 {
			return nil, fmt.Errorf("%w: raw blob outside item top level", ErrBinary)
		}
		blob, err := c.blob()
		if err != nil {
			return nil, err
		}
		el, err := xmlstream.UnmarshalBytes(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: raw item: %v", ErrBinary, err)
		}
		return el, nil
	}
	if id >= uint64(len(d.names)) {
		return nil, fmt.Errorf("%w: name id %d outside dictionary of %d", ErrBinary, id, len(d.names))
	}
	name := d.names[id]
	if *budget -= 2*len(name) + 5; *budget < 0 {
		return nil, fmt.Errorf("%w: decoded batch exceeds %d bytes", ErrBinary, MaxDecodedBytes)
	}
	el := &xmlstream.Element{Name: name}
	switch kind {
	case kindEmpty:
	case kindText:
		text, err := c.blob()
		if err != nil {
			return nil, err
		}
		el.Text = string(text)
	case kindTree:
		children, err := c.count()
		if err != nil {
			return nil, err
		}
		if children == 0 {
			return nil, fmt.Errorf("%w: interior node with no children", ErrBinary)
		}
		el.Children = make([]*xmlstream.Element, 0, children)
		for i := 0; i < children; i++ {
			ch, err := d.decodeNode(c, depth+1, budget)
			if err != nil {
				return nil, err
			}
			el.Children = append(el.Children, ch)
		}
	}
	return el, nil
}
