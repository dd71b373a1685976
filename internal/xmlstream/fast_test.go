package xmlstream

import (
	"strings"
	"testing"
)

// stdUnmarshal is Unmarshal with the fast lane off: what encoding/xml alone
// makes of one item.
func stdUnmarshal(s string) (*Element, error) {
	return NewDecoder(strings.NewReader("<x>" + s + "</x>")).forceStd().Next()
}

func sampleItems() []*Element {
	return []*Element{
		T("p", "1.5"),
		E("photon",
			E("coord", E("cel", T("ra", "131.25"), T("dec", "-46.5"))),
			T("en", "1.32"), T("det_time", "1042.5"), T("phc", "3"),
		),
		E("empty"),
		E("mix", T("a", ""), E("b", T("c", "x"))),
		T("spacey", "  padded  "),
		E("agg", T("win", "40"), T("wm", "61.5"), E("g0", T("n", "9"), T("sum", "13.5"))),
	}
}

// TestAppendMarshalMatchesMarshal pins AppendMarshal to the canonical
// serializer byte for byte, including ByteSize agreement.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, it := range sampleItems() {
		want := Marshal(it)
		buf = AppendMarshal(buf[:0], it)
		if string(buf) != want {
			t.Errorf("AppendMarshal = %q, Marshal = %q", buf, want)
		}
		if len(want) != it.ByteSize() {
			t.Errorf("ByteSize %d != serialized length %d for %q", it.ByteSize(), len(want), want)
		}
	}
}

// TestUnmarshalBytesRoundTrip checks the fast parser inverts the canonical
// serializer exactly, agreeing with the standard-library path.
func TestUnmarshalBytesRoundTrip(t *testing.T) {
	for _, it := range sampleItems() {
		wire := Marshal(it)
		fast, err := UnmarshalBytes([]byte(wire))
		if err != nil {
			t.Fatalf("UnmarshalBytes(%q): %v", wire, err)
		}
		std, err := stdUnmarshal(wire)
		if err != nil {
			t.Fatalf("stdUnmarshal(%q): %v", wire, err)
		}
		if !fast.Equal(std) {
			t.Errorf("fast parse of %q = %s, std = %s", wire, Marshal(fast), Marshal(std))
		}
	}
}

// TestCanonicalTextRoundTrips: leaf text holding markup characters is written
// escaped, parses back to the same tree, and is priced at its escaped size —
// while text without them is written and priced verbatim.
func TestCanonicalTextRoundTrips(t *testing.T) {
	for text, want := range map[string]string{
		"a<b":          "<en>a&lt;b</en>",
		"a&b":          "<en>a&amp;b</en>",
		"a>b":          "<en>a&gt;b</en>",
		"&lt;":         "<en>&amp;lt;</en>",
		"x]]>y":        "<en>x]]&gt;y</en>",
		"a\rb":         "<en>a&#13;b</en>",
		"<&>":          "<en>&lt;&amp;&gt;</en>",
		"1.5":          "<en>1.5</en>",
		`"quoted" 'q'`: `<en>"quoted" 'q'</en>`,
	} {
		e := E("photon", T("en", text), T("plain", "7"))
		want = "<photon>" + want + "<plain>7</plain></photon>"
		got := AppendMarshal(nil, e)
		if string(got) != want {
			t.Errorf("text %q marshals to %q, want %q", text, got, want)
		}
		if n := MarshalSize(e); n != len(got) {
			t.Errorf("text %q: MarshalSize %d, marshaled %d bytes", text, n, len(got))
		}
		back, err := UnmarshalBytes(got)
		if err != nil {
			t.Errorf("text %q: canonical form %q does not parse: %v", text, got, err)
		} else if !back.Equal(e) {
			t.Errorf("text %q came back as %q", text, back.Children[0].Text)
		}
	}
}

// TestUnmarshalBytesFallback feeds non-canonical but valid XML and checks
// the fast path defers to the standard decoder instead of misparsing.
func TestUnmarshalBytesFallback(t *testing.T) {
	cases := []string{
		`<p a="1">x</p>`,            // attributes
		`<p><!-- c --><a>1</a></p>`, // comments
		`<p>1 &amp; 2</p>`,          // entity references
		`<p ><a>1</a></p>`,          // whitespace in tag
		"  <p>7</p>  ",              // surrounding whitespace (canonical-ish)
	}
	for _, src := range cases {
		fast, err := UnmarshalBytes([]byte(src))
		std, stdErr := stdUnmarshal(src)
		if (err == nil) != (stdErr == nil) {
			t.Fatalf("%q: fast err %v, std err %v", src, err, stdErr)
		}
		if err != nil {
			continue
		}
		if !fast.Equal(std) {
			t.Errorf("%q: fast %s, std %s", src, Marshal(fast), Marshal(std))
		}
	}
	if _, err := UnmarshalBytes([]byte("<broken>")); err == nil {
		t.Error("unterminated element should error")
	}
	if _, err := UnmarshalBytes([]byte("<a>1</b>")); err == nil {
		t.Error("mismatched closing tag should error")
	}
}

// TestUnmarshalBytesRejectsTrailing guards against the scanner accepting
// garbage after a complete item.
func TestUnmarshalBytesRejectsTrailing(t *testing.T) {
	if _, err := UnmarshalBytes([]byte("<a>1</a><b>2</b>")); err == nil {
		// Two items in one buffer: the standard path also rejects only via
		// its single-item wrapper contract, so just require agreement.
		if _, stdErr := stdUnmarshal("<a>1</a><b>2</b>"); stdErr != nil {
			t.Error("fast path accepted input the standard path rejects")
		}
	}
}

// TestScannerAgreesWithStd pins the inputs on which the scanner once
// disagreed with encoding/xml: it took the prefixed name whole, kept a \r
// the standard decoder rewrites, and accepted bytes and names that are not
// XML. UnmarshalBytes, Unmarshal and the standard lane must give one answer.
func TestScannerAgreesWithStd(t *testing.T) {
	for _, c := range []struct {
		src  string
		want *Element // nil: rejected
	}{
		{"<x:a>1</x:a>", T("a", "1")},
		{"<a>b\rc</a>", T("a", "b\nc")},
		{"<a>\r\n b \r\n</a>", T("a", "b")},
		{"<a><b/>t</a>", E("a", E("b"))},
		{"<a>\x01</a>", nil},
		{"<1a/>", nil},
		{"<a>]]></a>", nil},
		{"<a>\xff</a>", nil},
		{"<a\x00b/>", nil},
	} {
		std, stdErr := stdUnmarshal(c.src)
		for name, parse := range map[string]func() (*Element, error){
			"UnmarshalBytes": func() (*Element, error) { return UnmarshalBytes([]byte(c.src)) },
			"Unmarshal":      func() (*Element, error) { return Unmarshal(c.src) },
		} {
			got, err := parse()
			if (err == nil) != (stdErr == nil) {
				t.Errorf("%s(%q): err %v, std err %v", name, c.src, err, stdErr)
				continue
			}
			if (err == nil) != (c.want != nil) {
				t.Errorf("%s(%q): err %v, want accepted=%v", name, c.src, err, c.want != nil)
				continue
			}
			if err == nil && (!got.Equal(std) || !got.Equal(c.want)) {
				t.Errorf("%s(%q) = %s, std %s, want %s", name, c.src, Marshal(got), Marshal(std), Marshal(c.want))
			}
		}
	}
}

func TestInternName(t *testing.T) {
	a := internName([]byte("photon"))
	b := internName([]byte("photon"))
	if a != b || a != "photon" {
		t.Fatalf("interning broken: %q %q", a, b)
	}
}

// BenchmarkUnmarshalFastVsStd compares the standard and fast parsers on a
// realistic photon item (documented in PERFORMANCE.md).
func BenchmarkUnmarshalFastVsStd(b *testing.B) {
	wire := []byte(Marshal(sampleItems()[1]))
	b.Run("std", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stdUnmarshal(string(wire)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalBytes(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}
