package xmlstream

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzDecoder asserts the stream decoder never panics and that every
// decoded item survives a marshal/unmarshal round trip, at the size
// MarshalSize prices.
func FuzzDecoder(f *testing.F) {
	f.Add("<photons><photon><en>1.5</en></photon></photons>")
	f.Add("<r><a x=\"1\">t</a><b/></r>")
	f.Add("<r>")
	f.Add("")
	f.Add("<r><i><deep><deeper>v</deeper></deep></i></r>")
	f.Add("not xml at all")
	f.Add("<r><en>a&lt;b &amp;amp; c&gt;d</en><t>]]&gt;</t><cr>a&#13;b</cr></r>")
	f.Fuzz(func(t *testing.T, doc string) {
		d := NewDecoder(strings.NewReader(doc))
		for {
			item, err := d.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					return // malformed input is rejected, not mishandled
				}
				return
			}
			back, err := Unmarshal(Marshal(item))
			if err != nil {
				t.Fatalf("canonical form does not re-parse: %v\n%s", err, Marshal(item))
			}
			if !item.Equal(back) {
				t.Fatalf("round trip changed item:\n%s\n%s", Marshal(item), Marshal(back))
			}
			if got, want := MarshalSize(item), len(Marshal(item)); got != want {
				t.Fatalf("MarshalSize %d, canonical form is %d bytes: %s", got, want, Marshal(item))
			}
		}
	})
}

// forceStd sends a fresh decoder to encoding/xml from byte 0: the reference
// the fast lane is compared with.
func (s *Decoder) forceStd() *Decoder {
	s.fallBack()
	return s
}

// decodeAll drains a decoder.
func decodeAll(d *Decoder) ([]*Element, error) {
	var items []*Element
	for {
		it, err := d.Next()
		if errors.Is(err, io.EOF) {
			return items, nil
		}
		if err != nil {
			return items, err
		}
		items = append(items, it)
	}
}

// sevenByteReader delivers its source in reads of at most seven bytes.
type sevenByteReader struct{ r io.Reader }

func (s sevenByteReader) Read(p []byte) (int, error) {
	return s.r.Read(p[:min(len(p), 7)])
}

// laneSeeds are documents around every edge of the canonical grammar.
var laneSeeds = []string{
	"<photons>\n<photon><coord><cel><ra>130.0</ra><dec>-45.0</dec></cel></coord><en>1.5</en></photon>\n<photon><en>2</en></photon>\n</photons>\n",
	"<p/>",
	"<p></p>",
	"<p><a><b/>t</a></p>",
	"<p><a>t<b/></a></p>",
	"<p><a>1</a>junk<a>2</a></p>",
	"<p><a>1</a></p>trailing",
	"<p>\r\n<a>\r\n<b>1</b>\r\n</a>\r\n</p>\r\n",
	"<p><a>b\rc</a><a>\r1\r</a><a>1\r </a></p>",
	"<p><!-- c --><a>1</a></p>",
	"<p><a><![CDATA[x<y]]></a></p>",
	"<?xml version=\"1.0\"?>\n<p><a>1</a></p>",
	"<p><x:a>1</x:a></p>",
	"<p><a>\x01</a></p>",
	"<p><1a/></p>",
	"<p><a>]]></a></p>",
	"<p><a>\xff</a></p>",
	"<p><a\x00b/></p>",
	"<p><a>1 &amp; 2</a></p>",
	"<p><a>x > y</a></p>",
	"<p><a id=\"7\">t</a><b k='v'/></p>",
	"<p a=\"1\"><a>1</a></p>",
	"<p><a>1</b></p>",
	"<p><a>1</a></q>",
	"<p><a>1</a></p",
	"<p><a>1</a",
	"<p><a-b.c_d>1</a-b.c_d><-a/></p>",
	"<p><a >1</a ></p >",
	"  <p>  <a> padded </a>  </p>",
	"<p><p>1</p></p>",
	"<p><a>\xc3\xa9</a></p>",
	"junk<p><a>1</a></p>",
	"",
	"   ",
	"<",
}

// FuzzDecoderLanes asserts the fast lane is invisible: for any input, a
// decoder that starts in the lane and one forced to encoding/xml from byte
// 0 yield Equal items, the same root and the same error/no-error outcome —
// with and without attribute conversion, and however the reader slices the
// input (one byte and seven bytes at a time make every construct straddle
// the window's end).
func FuzzDecoderLanes(f *testing.F) {
	for _, s := range laneSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, attrs := range []bool{false, true} {
			mk := func(r io.Reader) *Decoder {
				d := NewDecoder(r)
				if attrs {
					d.ConvertAttributes()
				}
				return d
			}
			ref := mk(strings.NewReader(doc)).forceStd()
			want, wantErr := decodeAll(ref)
			for name, r := range map[string]io.Reader{
				"whole": strings.NewReader(doc),
				"one":   iotest.OneByteReader(strings.NewReader(doc)),
				"seven": sevenByteReader{strings.NewReader(doc)},
			} {
				d := mk(r)
				got, err := decodeAll(d)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("attrs=%v %s: lane err %v, std err %v", attrs, name, err, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("attrs=%v %s: lane %d items, std %d", attrs, name, len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("attrs=%v %s item %d: lane %s, std %s", attrs, name, i, Marshal(got[i]), Marshal(want[i]))
					}
				}
			}
		}
	})
}
