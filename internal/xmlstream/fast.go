package xmlstream

import (
	"sync"
)

// AppendMarshal appends the canonical serialization of e (the exact bytes
// Marshal produces and Element.ByteSize counts) to dst and returns the
// extended slice. It allocates only when dst lacks capacity, which makes it
// the serializer of choice for reused buffers on hot paths. e is only read;
// it is safe for concurrent use on a shared element tree.
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
		dst = append(dst, e.Text...)
	} else {
		for _, c := range e.Children {
			dst = AppendMarshal(dst, c)
		}
	}
	dst = append(dst, '<', '/')
	dst = append(dst, e.Name...)
	return append(dst, '>')
}

// names interns element names so parsing a stream of structurally identical
// items allocates each distinct tag string once instead of once per item.
// The table only grows (bounded by the schema's vocabulary, not the data),
// so a plain RWMutex-guarded map suffices and reads stay contention-free.
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
	if names.m == nil {
		names.m = map[string]string{}
	}
	s, ok = names.m[string(b)]
	if !ok {
		s = string(b)
		names.m[s] = s
	}
	names.Unlock()
	return s
}

// UnmarshalBytes parses a single serialized stream item. Input in the
// canonical form produced by Marshal/AppendMarshal — nested elements and raw
// text only, no attributes, comments, processing instructions or entity
// references — is handled by a fast non-allocating scanner; anything else
// falls back to the standard-library decoder so UnmarshalBytes accepts
// everything Unmarshal does. The returned tree is freshly allocated and
// owned by the caller; b is not retained.
func UnmarshalBytes(b []byte) (*Element, error) {
	e, pos, ok := parseCanonical(b, 0)
	if ok {
		// Trailing whitespace is tolerated, any other trailing content is
		// not canonical.
		for pos < len(b) {
			if !isSpace(b[pos]) {
				ok = false
				break
			}
			pos++
		}
		if ok {
			return e, nil
		}
	}
	return Unmarshal(string(b))
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// parseCanonical parses one element starting at b[pos] (after optional
// whitespace). ok is false whenever the input deviates from the canonical
// grammar, signalling the caller to fall back to the full XML decoder.
func parseCanonical(b []byte, pos int) (*Element, int, bool) {
	for pos < len(b) && isSpace(b[pos]) {
		pos++
	}
	if pos >= len(b) || b[pos] != '<' {
		return nil, pos, false
	}
	pos++
	start := pos
	for pos < len(b) && b[pos] != '>' && b[pos] != '/' {
		c := b[pos]
		// Attributes, comments, PIs, and malformed names are not canonical.
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '!' || c == '?' || c == '<' {
			return nil, pos, false
		}
		pos++
	}
	if pos >= len(b) || pos == start {
		return nil, pos, false
	}
	name := internName(b[start:pos])
	if b[pos] == '/' {
		// <name/>
		if pos+1 >= len(b) || b[pos+1] != '>' {
			return nil, pos, false
		}
		return &Element{Name: name}, pos + 2, true
	}
	pos++ // consume '>'
	e := &Element{Name: name}
	textStart := pos
	for {
		if pos >= len(b) {
			return nil, pos, false
		}
		if b[pos] == '&' {
			// Entity references would be decoded by the standard parser;
			// canonical serialization never emits them.
			return nil, pos, false
		}
		if b[pos] != '<' {
			pos++
			continue
		}
		if pos+1 < len(b) && b[pos+1] == '/' {
			// Closing tag: must match the open name.
			end := pos + 2
			nameEnd := end + len(name)
			if nameEnd >= len(b) || string(b[end:nameEnd]) != name || b[nameEnd] != '>' {
				return nil, pos, false
			}
			if len(e.Children) == 0 {
				e.Text = trimmedText(b[textStart:pos])
			}
			return e, nameEnd + 1, true
		}
		// Child element. Interleaved non-whitespace text (mixed content) is
		// not canonical; the standard decoder discards it for interior
		// elements, so bail out to keep behaviors identical.
		if !allSpace(b[textStart:pos]) && len(e.Children) == 0 {
			// Text before the first child: canonical items never mix text
			// and children.
			return nil, pos, false
		}
		c, next, ok := parseCanonical(b, pos)
		if !ok {
			return nil, next, false
		}
		e.Children = append(e.Children, c)
		pos, textStart = next, next
	}
}

// trimmedText mirrors the standard decoder's strings.TrimSpace on leaf
// content, allocating only when text is present.
func trimmedText(b []byte) string {
	i, j := 0, len(b)
	for i < j && isSpace(b[i]) {
		i++
	}
	for j > i && isSpace(b[j-1]) {
		j--
	}
	if i == j {
		return ""
	}
	return string(b[i:j])
}

func allSpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}
