package xmlstream

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrNoRoot reports input that ends before a stream root element opens.
var ErrNoRoot = errors.New("xmlstream: no root element")

// Decoder reads a stream document of the form
//
//	<root> <item>…</item> <item>…</item> … </root>
//
// and yields one item element at a time, so arbitrarily long (conceptually
// infinite) streams are processed without buffering the document.
//
// A document starts in the fast lane: the root tag and then each item are
// scanned straight out of a read window by the canonical scanner
// (canon.item has the grammar). The window starts at a few KB and grows
// only when a single item does not fit, so to the largest item and no
// further; an item that straddles its end is scanned again after the next
// read, not handed over. The items of one window are built in one Slab.
// At the first byte outside the canonical grammar — an attribute, a
// comment, an entity reference, a non-ASCII byte, mixed content, a
// malformed tag, or input that ends early — the unread remainder of the
// document goes to encoding/xml, once and for the rest of the document, so
// every document decodes to what encoding/xml alone would yield and is
// rejected exactly when it would reject it.
type Decoder struct {
	r   io.Reader
	win []byte // fast-lane read window; win[pos:] is unread
	pos int
	p   canon        // the scanner and the current window's slab
	d   *xml.Decoder // set when the document leaves the fast lane

	// Text and total bytes of the items scanned so far, the ratio that
	// sizes the next window's text chunk.
	textBytes, itemBytes int

	root   string
	opened bool
	done   bool
	attrs  bool
}

// minWindow is the read window's initial capacity.
const minWindow = 8 << 10

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r}
}

// ConvertAttributes makes the decoder turn XML attributes into equivalent
// child elements (<p a="1"/> becomes <p><a>1</a></p>). The paper restricts
// the data model to elements because "attributes in XML data can always be
// converted into corresponding elements" (§2); this performs that
// conversion at ingestion.
func (s *Decoder) ConvertAttributes() *Decoder {
	s.attrs = true
	return s
}

// FellBack reports whether the document left the fast lane, that is whether
// encoding/xml decoded any part of it.
func (s *Decoder) FellBack() bool { return s.d != nil }

// Next returns the next item element, or io.EOF after the root closes.
func (s *Decoder) Next() (*Element, error) {
	for s.d == nil && !s.done {
		e, st := s.scan()
		if e != nil {
			return e, nil
		}
		if st == scanBail || st == scanMore && !s.fill() {
			s.fallBack()
		}
	}
	if s.done {
		return nil, io.EOF
	}
	return s.nextStd()
}

// scan takes one fast-lane step at the window's read position: the root's
// opening tag, one item, or the root's closing tag. It consumes what it
// accepts and nothing else.
func (s *Decoder) scan() (*Element, scan) {
	b, p := s.win, s.pos
	for p < len(b) && isSpace(b[p]) {
		p++
	}
	if s.opened {
		s.pos = p // both lanes drop blank text between items
	}
	if p+1 >= len(b) {
		return nil, scanMore
	}
	if b[p] != '<' {
		return nil, scanBail
	}
	if !s.opened {
		end, st := scanName(b, p+1)
		if st != scanOK {
			return nil, st
		}
		if b[end] != '>' {
			return nil, scanBail
		}
		s.root, s.opened, s.pos = string(b[p+1:end]), true, end+1
		return nil, scanOK
	}
	if b[p+1] == '/' {
		_, st := scanClose(b, p, s.root)
		if st == scanOK {
			s.done, s.win = true, nil
		}
		return nil, st
	}
	e, next, st := s.p.item(b, p)
	if st == scanOK {
		s.pos = next
		s.textBytes += s.p.text
		s.itemBytes += next - p
	}
	return e, st
}

// fill moves the unread remainder to the front of the window, doubling the
// window when the remainder fills it, and reads once more from the source
// into a window with a new slab. It reports whether the window gained
// anything; false means the source is exhausted or failed, and further
// reads repeat its error.
func (s *Decoder) fill() bool {
	rest := s.win[s.pos:]
	if len(rest) == cap(s.win) {
		s.win = append(make([]byte, 0, max(2*cap(s.win), minWindow)), rest...)
	} else {
		s.win = s.win[:copy(s.win[:cap(s.win)], rest)]
	}
	s.pos = 0
	for empty := 0; empty < 100; empty++ {
		n, err := s.r.Read(s.win[len(s.win):cap(s.win)])
		s.win = s.win[:len(s.win)+n]
		if err != nil {
			s.r = errReader{err}
		}
		if n > 0 {
			text := len(s.win) / 4
			if s.itemBytes > 0 {
				text = int(float64(len(s.win)) * float64(s.textBytes) / float64(s.itemBytes))
			}
			s.p.slab = windowSlab(s.win, text)
			return true
		}
		if err != nil {
			return false
		}
	}
	s.r = errReader{io.ErrNoProgress}
	return false
}

// errReader repeats a source's terminal error.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// fallBack hands the rest of the document to encoding/xml: the unread
// window, then the source, behind a synthetic root tag when the real one
// was already consumed.
func (s *Decoder) fallBack() {
	rest := []io.Reader{bytes.NewReader(s.win[s.pos:]), s.r}
	if s.opened {
		rest = append([]io.Reader{strings.NewReader("<" + s.root + ">")}, rest...)
		s.opened = false
	}
	s.d = xml.NewDecoder(io.MultiReader(rest...))
	s.win = nil
}

// nextStd is Next on the encoding/xml lane.
func (s *Decoder) nextStd() (*Element, error) {
	for {
		tok, err := s.d.Token()
		if err != nil {
			if errors.Is(err, io.EOF) && !s.opened {
				return nil, ErrNoRoot
			}
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !s.opened {
				s.opened = true
				s.root = t.Name.Local
				continue
			}
			return s.readElement(t)
		case xml.EndElement:
			if s.opened && t.Name.Local == s.root {
				s.done = true
				return nil, io.EOF
			}
		}
	}
}

func (s *Decoder) readElement(start xml.StartElement) (*Element, error) {
	e := &Element{Name: start.Name.Local}
	if s.attrs {
		for _, a := range start.Attr {
			e.Children = append(e.Children, T(a.Name.Local, a.Value))
		}
	}
	var text strings.Builder
	for {
		tok, err := s.d.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlstream: inside <%s>: %w", e.Name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			c, err := s.readElement(t)
			if err != nil {
				return nil, err
			}
			e.Children = append(e.Children, c)
		case xml.CharData:
			text.Write(t)
		case xml.EndElement:
			switch txt := strings.TrimSpace(text.String()); {
			case len(e.Children) == 0:
				e.Text = txt
			case s.attrs && txt != "":
				// An attributed leaf's text survives the attribute
				// conversion as a value child element.
				e.Children = append(e.Children, T("value", txt))
			}
			return e, nil
		}
	}
}

// Marshal renders an element tree in the canonical form counted by
// Element.ByteSize: no indentation, <name/> for empty leaves, leaf text
// escaped as AppendMarshal documents.
func Marshal(e *Element) string {
	return string(AppendMarshal(nil, e))
}

// Unmarshal parses a single element document, e.g. one stream item.
func Unmarshal(s string) (*Element, error) {
	d := NewDecoder(strings.NewReader("<x>" + s + "</x>"))
	item, err := d.Next()
	if err != nil {
		return nil, err
	}
	return item, nil
}
