package wire

import (
	"encoding/binary"
	"fmt"

	"streamshare/internal/xmlstream"
)

// This file is the binary codec (negotiated as CodecBinary): a dictionary-compressed flat encoding of
// canonical-XML item trees. The payload grammar (specified normatively in
// docs/WIRE.md, with a worked example decoded by a test) is
//
//	payload := uvarint deltaCount, deltaCount × delta,
//	           uvarint itemCount,  itemCount × item
//	delta   := uvarint nameLen, nameLen bytes      (name appended to the
//	                                                dictionary; ids are the
//	                                                append positions, 0-based)
//	item    := node | raw
//	raw     := uvarint head(=kindRaw), uvarint len, len bytes (verbatim XML)
//	node    := uvarint head, body
//	head    := nameID<<2 | kind
//	body    := kind 0 (empty leaf  <name/>)        : nothing
//	           kind 1 (text leaf   <name>t</name>) : uvarint len, len bytes
//	           kind 2 (interior)                   : uvarint n (≥1), n × node
//
// The encoder walks each item's canonical XML with a strict scanner that
// accepts exactly the image of xmlstream.AppendMarshal; any item outside
// that image (attributes, whitespace between children, mixed content,
// trailing bytes …) ships as a raw verbatim blob. That is what makes the
// codec byte-lossless on arbitrary input — FuzzWireRoundTrip pins
// decode(encode(b)) == b for every b — while the structured path covers all
// real runtime traffic.
//
// Dictionary state is per encoder/decoder pair (one direction of one
// connection) and monotonic: deltas only append, ids never rebind. A decode
// error rolls the dictionary back to its pre-payload length; the transport
// then tears the conn down, and the replay runs through the fresh pair the
// next conn mints.

// Binary encoding constants.
const (
	// kind codes in a node head's low two bits.
	kindEmpty = 0 // <name/>
	kindText  = 1 // <name>text</name> (len 0 encodes <name></name>)
	kindTree  = 2 // interior element with ≥1 children
	kindRaw   = 3 // verbatim XML blob; only at item top level, nameID 0

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

// binaryCodec registers the dictionary-compressed encoding as CodecBinary.
type binaryCodec struct{}

// Name returns CodecBinary.
func (binaryCodec) Name() string { return CodecBinary }

// NewEncoder returns a fresh binary encoder with an empty dictionary.
func (binaryCodec) NewEncoder() Encoder { return NewBinaryEncoder() }

// NewDecoder returns a fresh binary decoder with an empty dictionary.
func (binaryCodec) NewDecoder() Decoder { return NewBinaryDecoder() }

// TreeCapable reports that the binary codec's halves implement the
// TreeEncoder/TreeDecoder element-tree fast path.
func (binaryCodec) TreeCapable() bool { return true }

func init() { Register(binaryCodec{}) }

// BinaryEncoder encodes item batches with a growing interned name
// dictionary. Not safe for concurrent use; one instance per connection
// direction.
type BinaryEncoder struct {
	ids     map[string]uint64
	pending []string // names assigned but not yet shipped as deltas
	scratch []byte   // reused per-batch node buffer
}

// NewBinaryEncoder returns an encoder with an empty dictionary.
func NewBinaryEncoder() *BinaryEncoder {
	return &BinaryEncoder{ids: map[string]uint64{}}
}

// Seed pre-assigns dictionary ids for the given names (typically a stream
// schema's element vocabulary from xmlstream.InferSchema). The names still
// ship as deltas in the next payload, so decoding needs no out-of-band
// agreement; seeding just moves the assignment cost off the data path.
func (e *BinaryEncoder) Seed(names []string) {
	for _, name := range names {
		if name != "" {
			e.assign([]byte(name))
		}
	}
}

// SeedShared pre-loads the dictionary with names the link negotiation
// agreed on, WITHOUT queueing deltas: the peer's decoder seeds the identical
// list, so both tables assign the same ids out of band. Must be called on a
// fresh encoder, before any EncodeBatch/EncodeElems, exactly once. Empty
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
func (e *BinaryEncoder) assign(name []byte) (uint64, bool) {
	if id, ok := e.ids[string(name)]; ok {
		return id, true
	}
	if e.ids == nil {
		e.ids = map[string]uint64{}
	}
	if len(e.ids) >= MaxDictNames {
		return 0, false
	}
	id := uint64(len(e.ids))
	s := string(name)
	e.ids[s] = id
	e.pending = append(e.pending, s)
	return id, true
}

// EncodeBatch appends one payload for the batch to dst: first any pending
// dictionary deltas (including names first seen inside this very batch),
// then the encoded items. Items that are not strictly canonical ship as
// verbatim raw blobs, so the payload decodes back to the input byte for
// byte in every case.
func (e *BinaryEncoder) EncodeBatch(dst []byte, items [][]byte) []byte {
	scratch := e.scratch[:0]
	for _, item := range items {
		scratch = e.appendItem(scratch, item)
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

// EncodeElems appends one payload encoding the element trees directly — the
// zero-XML fast path for senders that hold parsed items. The payload
// decodes (DecodeBatch) to exactly xmlstream.AppendMarshal of each element,
// and DecodeElems reconstructs equal trees.
func (e *BinaryEncoder) EncodeElems(dst []byte, items []*xmlstream.Element) []byte {
	scratch := e.scratch[:0]
	for _, el := range items {
		scratch = e.appendElemTree(scratch, el, 0)
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

// appendItem encodes one item: the strict canonical scan when it covers the
// whole item, a verbatim raw blob otherwise.
func (e *BinaryEncoder) appendItem(dst, item []byte) []byte {
	mark := len(dst)
	out, pos, ok := e.appendElem(dst, item, 0, 0)
	if ok && pos == len(item) {
		return out
	}
	dst = dst[:mark]
	dst = binary.AppendUvarint(dst, kindRaw)
	dst = binary.AppendUvarint(dst, uint64(len(item)))
	return append(dst, item...)
}

// appendElem scans one element of strictly canonical XML starting at
// b[pos] and appends its node encoding. ok is false whenever the bytes
// deviate from the exact image of AppendMarshal — the caller then falls
// back to a raw blob, preserving byte-losslessness.
func (e *BinaryEncoder) appendElem(dst, b []byte, pos, depth int) ([]byte, int, bool) {
	if depth > maxNodeDepth || pos >= len(b) || b[pos] != '<' {
		return dst, pos, false
	}
	pos++
	start := pos
	for pos < len(b) && b[pos] != '>' && b[pos] != '/' {
		pos++
	}
	if pos >= len(b) || pos == start {
		return dst, pos, false
	}
	name := b[start:pos]
	if b[pos] == '/' {
		// <name/> — the canonical empty leaf.
		if pos+1 >= len(b) || b[pos+1] != '>' {
			return dst, pos, false
		}
		id, ok := e.assign(name)
		if !ok {
			return dst, pos, false
		}
		return binary.AppendUvarint(dst, id<<2|kindEmpty), pos + 2, true
	}
	pos++ // consume '>'
	id, ok := e.assign(name)
	if !ok {
		return dst, pos, false
	}
	if pos+1 < len(b) && b[pos] == '<' && b[pos+1] != '/' {
		// Children, back to back: canonical interiors carry no text and no
		// whitespace between children.
		head := len(dst)
		dst = binary.AppendUvarint(dst, id<<2|kindTree)
		countAt := len(dst)
		// Children counts are almost always small; reserve one byte and
		// shift if the count overflows a single uvarint byte.
		dst = append(dst, 0)
		n := 0
		for {
			var ok bool
			dst, pos, ok = e.appendElem(dst, b, pos, depth+1)
			if !ok {
				return dst[:head], pos, false
			}
			n++
			if pos+1 < len(b) && b[pos] == '<' && b[pos+1] == '/' {
				break
			}
			if pos >= len(b) || b[pos] != '<' {
				// Text between children is not canonical.
				return dst[:head], pos, false
			}
		}
		if n < 0x80 {
			dst[countAt] = byte(n)
		} else {
			var tmp [binary.MaxVarintLen64]byte
			w := binary.PutUvarint(tmp[:], uint64(n))
			dst = append(dst, tmp[:w-1]...)
			copy(dst[countAt+w:], dst[countAt+1:len(dst)-(w-1)])
			copy(dst[countAt:], tmp[:w])
		}
		end, ok := scanClose(b, pos, name)
		if !ok {
			return dst[:head], pos, false
		}
		return dst, end, true
	}
	// Text leaf: bytes up to the closing tag, verbatim (len 0 encodes the
	// <name></name> spelling, distinct from kind 0's <name/>).
	textStart := pos
	for pos < len(b) && b[pos] != '<' {
		pos++
	}
	end, ok := scanClose(b, pos, name)
	if !ok {
		return dst, pos, false
	}
	text := b[textStart:pos]
	dst = binary.AppendUvarint(dst, id<<2|kindText)
	dst = binary.AppendUvarint(dst, uint64(len(text)))
	return append(dst, text...), end, true
}

// scanClose requires exactly </name> at b[pos] and returns the position
// after it.
func scanClose(b []byte, pos int, name []byte) (int, bool) {
	end := pos + 2 + len(name) + 1
	if pos+1 >= len(b) || end > len(b) || b[pos] != '<' || b[pos+1] != '/' {
		return pos, false
	}
	if string(b[pos+2:end-1]) != string(name) || b[end-1] != '>' {
		return pos, false
	}
	return end, true
}

// appendElemTree encodes one parsed element. Elements past the depth bound
// or a full dictionary ship as raw canonical XML instead.
func (e *BinaryEncoder) appendElemTree(dst []byte, el *xmlstream.Element, depth int) []byte {
	mark := len(dst)
	out, ok := e.tryElemTree(dst, el, depth)
	if ok {
		return out
	}
	raw := xmlstream.AppendMarshal(nil, el)
	dst = dst[:mark]
	dst = binary.AppendUvarint(dst, kindRaw)
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	return append(dst, raw...)
}

func (e *BinaryEncoder) tryElemTree(dst []byte, el *xmlstream.Element, depth int) ([]byte, bool) {
	if el == nil || depth > maxNodeDepth {
		return dst, false
	}
	id, ok := e.assign([]byte(el.Name))
	if !ok {
		return dst, false
	}
	switch {
	case len(el.Children) > 0:
		dst = binary.AppendUvarint(dst, id<<2|kindTree)
		dst = binary.AppendUvarint(dst, uint64(len(el.Children)))
		for _, c := range el.Children {
			if dst, ok = e.tryElemTree(dst, c, depth+1); !ok {
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

// SeedShared appends the negotiated seed names to the dictionary, mirroring
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

// DecodeBatch parses one payload into the batch's canonical XML items. On
// any error the dictionary rolls back to its pre-payload state, so the same
// payload can be decoded again after a transport replay.
func (d *BinaryDecoder) DecodeBatch(payload []byte) ([][]byte, error) {
	n0 := len(d.names)
	items, err := d.decodeBatch(payload)
	if err != nil {
		d.names = d.names[:n0]
		return nil, err
	}
	return items, nil
}

// DecodeElems parses one payload directly into element trees — equal to
// parsing DecodeBatch's XML, without materializing it. The dictionary rolls
// back on error exactly as in DecodeBatch.
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

func (c *cursor) take(n uint64) ([]byte, error) {
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
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		name, err := c.take(n)
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

func (d *BinaryDecoder) decodeBatch(payload []byte) ([][]byte, error) {
	c := &cursor{b: payload}
	if err := d.applyDeltas(c); err != nil {
		return nil, err
	}
	nItems, err := c.count()
	if err != nil {
		return nil, err
	}
	// Grow the boundary list as items actually decode, so a corrupt count
	// cannot drive a large preallocation.
	var out []byte
	starts := make([]int, 0, 64)
	for i := 0; i < nItems; i++ {
		starts = append(starts, len(out))
		if out, err = d.decodeNode(c, out, 0, true); err != nil {
			return nil, err
		}
	}
	starts = append(starts, len(out))
	if len(c.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinary, len(c.b))
	}
	items := make([][]byte, nItems)
	for i := 0; i < nItems; i++ {
		items[i] = out[starts[i]:starts[i+1]:starts[i+1]]
	}
	return items, nil
}

// decodeNode reconstructs one node's canonical XML. top allows the raw-blob
// kind, which is only legal at item top level.
func (d *BinaryDecoder) decodeNode(c *cursor, out []byte, depth int, top bool) ([]byte, error) {
	if depth > maxNodeDepth {
		return nil, fmt.Errorf("%w: nesting deeper than %d", ErrBinary, maxNodeDepth)
	}
	head, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	kind, id := head&3, head>>2
	if kind == kindRaw {
		if !top || id != 0 {
			return nil, fmt.Errorf("%w: raw blob outside item top level", ErrBinary)
		}
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		blob, err := c.take(n)
		if err != nil {
			return nil, err
		}
		out = append(out, blob...)
		if len(out) > MaxDecodedBytes {
			return nil, fmt.Errorf("%w: decoded batch exceeds %d bytes", ErrBinary, MaxDecodedBytes)
		}
		return out, nil
	}
	if id >= uint64(len(d.names)) {
		return nil, fmt.Errorf("%w: name id %d outside dictionary of %d", ErrBinary, id, len(d.names))
	}
	name := d.names[id]
	switch kind {
	case kindEmpty:
		out = append(out, '<')
		out = append(out, name...)
		out = append(out, '/', '>')
	case kindText:
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		text, err := c.take(n)
		if err != nil {
			return nil, err
		}
		out = append(out, '<')
		out = append(out, name...)
		out = append(out, '>')
		out = append(out, text...)
		out = append(out, '<', '/')
		out = append(out, name...)
		out = append(out, '>')
	case kindTree:
		children, err := c.count()
		if err != nil {
			return nil, err
		}
		if children == 0 {
			return nil, fmt.Errorf("%w: interior node with no children", ErrBinary)
		}
		out = append(out, '<')
		out = append(out, name...)
		out = append(out, '>')
		for i := 0; i < children; i++ {
			if out, err = d.decodeNode(c, out, depth+1, false); err != nil {
				return nil, err
			}
		}
		out = append(out, '<', '/')
		out = append(out, name...)
		out = append(out, '>')
	}
	if len(out) > MaxDecodedBytes {
		return nil, fmt.Errorf("%w: decoded batch exceeds %d bytes", ErrBinary, MaxDecodedBytes)
	}
	return out, nil
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
		el, err := d.decodeElemNode(c, 0, true, &budget)
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

func (d *BinaryDecoder) decodeElemNode(c *cursor, depth int, top bool, budget *int) (*xmlstream.Element, error) {
	if depth > maxNodeDepth {
		return nil, fmt.Errorf("%w: nesting deeper than %d", ErrBinary, maxNodeDepth)
	}
	head, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	kind, id := head&3, head>>2
	if kind == kindRaw {
		if !top || id != 0 {
			return nil, fmt.Errorf("%w: raw blob outside item top level", ErrBinary)
		}
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		blob, err := c.take(n)
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
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		text, err := c.take(n)
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
			ch, err := d.decodeElemNode(c, depth+1, false, budget)
			if err != nil {
				return nil, err
			}
			el.Children = append(el.Children, ch)
		}
	}
	return el, nil
}
