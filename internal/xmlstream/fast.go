package xmlstream

import (
	"bytes"
	"sync"
)

// AppendMarshal appends the canonical serialization of e (the exact bytes
// Marshal produces and Element.ByteSize counts) to dst and returns the
// extended slice. Leaf text is written with '&', '<', '>' and '\r' escaped,
// so the bytes parse back (UnmarshalBytes) to a tree Equal to e whenever e is
// a tree the parser can produce. It allocates only when dst lacks capacity,
// which makes it the serializer of choice for reused buffers on hot paths. e
// is only read; it is safe for concurrent use on a shared element tree.
func AppendMarshal(dst []byte, e *Element) []byte {
	if e == nil {
		return dst
	}
	if len(e.Children) == 0 && e.Text == "" {
		dst = append(dst, '<')
		dst = append(dst, e.Name...)
		return append(dst, '/', '>')
	}
	dst = append(dst, '<')
	dst = append(dst, e.Name...)
	dst = append(dst, '>')
	if len(e.Children) == 0 {
		dst = appendText(dst, e.Text)
	} else {
		for _, c := range e.Children {
			dst = AppendMarshal(dst, c)
		}
	}
	dst = append(dst, '<', '/')
	dst = append(dst, e.Name...)
	return append(dst, '>')
}

// escaped holds what Canonical XML writes for the text bytes it does not
// write verbatim: '&' and '<' would open markup, "]]>" is illegal in text,
// and a literal '\r' parses back as '\n'.
var escaped = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#13;"}

// escExtra is how many bytes each escape adds, as a table so that pricing a
// text is one load per byte.
var escExtra = func() (t [256]uint8) {
	for c, esc := range escaped {
		if esc != "" {
			t[c] = uint8(len(esc) - 1)
		}
	}
	return t
}()

// appendText appends leaf text, escaped; textSize is its length.
func appendText(dst []byte, s string) []byte {
	from := 0
	for i := 0; i < len(s); i++ {
		if escExtra[s[i]] != 0 {
			dst = append(dst, s[from:i]...)
			dst = append(dst, escaped[s[i]]...)
			from = i + 1
		}
	}
	return append(dst, s[from:]...)
}

// textSize returns len(appendText(nil, s)) without building it.
func textSize(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		n += int(escExtra[s[i]])
	}
	return n
}

// maxInterned bounds the name table: element names reach the scanner from
// client documents, so past the cap a new name is allocated per use
// instead of kept forever.
const maxInterned = 4096

// names interns element names so parsing a stream of structurally identical
// items allocates each distinct tag string once instead of once per item.
// The table only grows, up to maxInterned entries, so a plain
// RWMutex-guarded map suffices and reads stay contention-free.
var names struct {
	sync.RWMutex
	m map[string]string
}

// internName returns a canonical string for the byte range, allocating only
// the first time a name is seen. Safe for concurrent use.
func internName(b []byte) string {
	names.RLock()
	s, ok := names.m[string(b)] // compiler avoids allocating the map key
	names.RUnlock()
	if ok {
		return s
	}
	names.Lock()
	defer names.Unlock()
	if names.m == nil {
		names.m = map[string]string{}
	}
	s, ok = names.m[string(b)]
	if !ok {
		s = string(b)
		if len(names.m) < maxInterned {
			names.m[s] = s
		}
	}
	return s
}

// UnmarshalBytes parses a single serialized stream item. Canonical input
// (canon.item has the grammar; Marshal/AppendMarshal output is canonical
// whenever the tree's names and text are) is handled by the allocation-light
// scanner, which builds the tree in one slab; anything else falls back to
// Unmarshal, so UnmarshalBytes accepts exactly what Unmarshal accepts and
// returns an Equal tree. The tree aliases nothing of b.
func UnmarshalBytes(b []byte) (*Element, error) {
	p := canon{slab: windowSlab(b, len(b))}
	// Trailing whitespace is tolerated, any other trailing content is not
	// canonical.
	if e, pos, st := p.item(b, 0); st == scanOK && allSpace(b[pos:]) {
		return e, nil
	}
	return Unmarshal(string(b))
}

// scan is the outcome of one canonical scanning step over a byte window.
type scan uint8

const (
	scanOK   scan = iota // a complete canonical construct was read
	scanMore             // the window ends inside a construct that is canonical so far
	scanBail             // a byte outside the canonical grammar: encoding/xml must decide
)

// Byte classes of the canonical grammar.
const (
	inText      = 1 << iota // legal in element text: 0x20-0x7E except & < >
	inSpace                 // space, \t, \n, \r
	inName                  // ASCII letter, digit, '_', '-', '.'
	inNameStart             // ASCII letter, '_'
)

var class = func() (t [256]uint8) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = inText
	}
	t['&'], t['<'], t['>'] = 0, 0, 0
	for _, c := range " \t\n\r" {
		t[c] |= inSpace
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= inName
	}
	t['-'] |= inName
	t['.'] |= inName
	for _, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_" {
		t[c] |= inName | inNameStart
	}
	return t
}()

func isSpace(c byte) bool { return class[c]&inSpace != 0 }

// scanName scans the element name starting at b[pos]. On scanOK b[end] is
// the first byte after the name.
func scanName(b []byte, pos int) (end int, st scan) {
	if pos >= len(b) {
		return pos, scanMore
	}
	if class[b[pos]]&inNameStart == 0 {
		return pos, scanBail
	}
	for end = pos + 1; end < len(b); end++ {
		if class[b[end]]&inName == 0 {
			return end, scanOK
		}
	}
	return end, scanMore
}

// scanClose scans the closing tag at b[pos:], which must be exactly
// </name>. On scanOK next is the index after it.
func scanClose(b []byte, pos int, name string) (next int, st scan) {
	end := pos + 2 + len(name)
	if end >= len(b) {
		return pos, scanMore
	}
	if string(b[pos+2:end]) != name || b[end] != '>' {
		return pos, scanBail
	}
	return end + 1, scanOK
}

// canon is the canonical scanner's state over one input window: the slab
// the window's trees are built from, the text bytes of the item being
// scanned, and the children scanned so far whose parents have not closed.
type canon struct {
	slab  Slab
	text  int
	stack []*Element
}

// windowSlab sizes a slab for the elements the canonical scanner can build
// from b. Each element's tags hold one '<' that opens it and one '/' that
// closes it (in "</" or "/>"), so the rarer byte bounds the count, and every
// element but the first of an item is a child.
func windowSlab(b []byte, text int) Slab {
	n := min(bytes.Count(b, []byte{'<'}), bytes.Count(b, []byte{'/'}))
	return NewSlab(n, n-1, text)
}

// item scans one element starting at b[pos] (after optional whitespace).
// It is the one entry to the scanner behind UnmarshalBytes and the
// Decoder's fast lane, which accepts only what encoding/xml decodes to the
// identical tree, with or without attribute conversion:
//
//   - tags are exactly <name>, </name> or <name/> — no attributes, no
//     whitespace inside a tag, no comments, PIs, CDATA or declarations;
//   - names are ASCII, start with a letter or '_' and continue with
//     letters, digits, '_', '-' and '.' (no ':' — a prefix is dropped by
//     the standard decoder);
//   - text bytes are 0x20-0x7E except '&', '<' and '>', plus \t and \n; \r
//     is legal only where trimming removes it (the standard decoder
//     rewrites it to \n);
//   - an element has children or text, never both: beside children only
//     whitespace may appear.
//
// scanBail reports the first deviation, scanMore a window that ends before
// the element does. An element is built when it closes, so everything it
// takes from the slab lies inside b.
func (p *canon) item(b []byte, pos int) (*Element, int, scan) {
	p.text, p.stack = 0, p.stack[:0]
	return p.element(b, pos)
}

func (p *canon) element(b []byte, pos int) (*Element, int, scan) {
	for pos < len(b) && isSpace(b[pos]) {
		pos++
	}
	if pos >= len(b) {
		return nil, pos, scanMore
	}
	if b[pos] != '<' {
		return nil, pos, scanBail
	}
	end, st := scanName(b, pos+1)
	if st != scanOK {
		return nil, pos, st
	}
	name := internName(b[pos+1 : end])
	pos = end
	if b[pos] == '/' {
		// <name/>
		if pos+1 >= len(b) {
			return nil, pos, scanMore
		}
		if b[pos+1] != '>' {
			return nil, pos, scanBail
		}
		return p.slab.Node(name, "", nil), pos + 2, scanOK
	}
	if b[pos] != '>' {
		return nil, pos, scanBail
	}
	pos++
	mark := len(p.stack)
	textStart := pos
	// text: a non-blank byte was seen; cr: a \r followed it, so one more
	// non-blank byte would put the \r inside the trimmed text.
	text, cr := false, false
	for {
		for {
			if pos >= len(b) {
				return nil, pos, scanMore
			}
			c := b[pos]
			if c == '<' {
				break
			}
			switch k := class[c]; {
			case k&inSpace != 0:
				cr = cr || (text && c == '\r')
			case k&inText != 0:
				if cr || len(p.stack) > mark {
					return nil, pos, scanBail
				}
				text = true
			default:
				return nil, pos, scanBail
			}
			pos++
		}
		if pos+1 >= len(b) {
			return nil, pos, scanMore
		}
		if b[pos+1] == '/' {
			next, st := scanClose(b, pos, name)
			if st != scanOK {
				return nil, pos, st
			}
			kids := p.stack[mark:]
			if len(kids) == 0 {
				// Trimming mirrors the standard decoder's
				// strings.TrimSpace on leaf content.
				t := p.slab.Text(bytes.TrimSpace(b[textStart:pos]))
				p.text += len(t)
				return p.slab.Node(name, t, nil), next, scanOK
			}
			e := p.slab.Node(name, "", append(p.slab.Children(len(kids)), kids...))
			p.stack = p.stack[:mark]
			return e, next, scanOK
		}
		if text {
			return nil, pos, scanBail
		}
		c, next, st := p.element(b, pos)
		if st != scanOK {
			return nil, next, st
		}
		p.stack = append(p.stack, c)
		pos = next
	}
}

func allSpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}
