package wire

import (
	"bytes"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"streamshare/internal/xmlstream"
)

// TestWireDocExample pins docs/WIRE.md §6 to the implementation: the three
// worked-example payloads, transcribed byte for byte from the document,
// must decode on one dictionary-sharing decoder to exactly the items the
// document claims — and a fresh encoder fed the first two must produce the
// document's bytes (the third is a raw item, which an encoder emits only
// past the depth bound or a full dictionary). If this test fails, either
// the codec or the spec changed; fix whichever one is wrong and keep them
// in lockstep.

// docBytes parses the hex column of a WIRE.md byte listing.
func docBytes(t *testing.T, listing string) []byte {
	t.Helper()
	var hexDigits strings.Builder
	for _, line := range strings.Split(listing, "\n") {
		for _, f := range strings.Fields(line) {
			if len(f) != 2 || !isHex(f) {
				break // annotation text starts; rest of line is prose
			}
			hexDigits.WriteString(f)
		}
	}
	b, err := hex.DecodeString(hexDigits.String())
	if err != nil {
		t.Fatalf("bad doc listing: %v", err)
	}
	return b
}

func isHex(s string) bool {
	for _, c := range []byte(s) {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func TestWireDocExample(t *testing.T) {
	payload1 := docBytes(t, `
		04
		06 70 68 6f 74 6f 6e
		02 65 6e
		01 74
		03 64 65 74
		02
		02
		02
		05 01 37
		09 01 33
		02
		02
		05 01 39
		0c
	`)
	payload2 := docBytes(t, `
		00
		01
		02 01
		05 03 61 3c 62
	`)
	payload3 := docBytes(t, `
		00
		01
		03
		0b 3c 78 3e 26 6c 74 3b 3c 2f 78 3e
	`)
	if len(payload1) != 32 {
		t.Fatalf("doc claims the first payload is 32 bytes, transcribed %d", len(payload1))
	}

	E, T := xmlstream.E, xmlstream.T
	items1 := []*xmlstream.Element{
		E("photon", T("en", "7"), T("t", "3")),
		E("photon", T("en", "9"), E("det")),
	}
	items2 := []*xmlstream.Element{E("photon", T("en", "a<b"))}
	items3 := []*xmlstream.Element{T("x", "<")}
	xml := []string{
		"<photon><en>7</en><t>3</t></photon>", "<photon><en>9</en><det/></photon>",
		"<photon><en>a&lt;b</en></photon>",
		"<x>&lt;</x>",
	}
	for i, el := range append(append(append([]*xmlstream.Element{}, items1...), items2...), items3...) {
		if got := xmlstream.Marshal(el); got != xml[i] {
			t.Fatalf("item %d marshals to %q, doc says %q", i, got, xml[i])
		}
	}
	if n := len(xml[0]) + len(xml[1]); n != 68 {
		t.Fatalf("doc claims 68 bytes of XML in batch one, items total %d", n)
	}

	// One decoder across all three payloads: the dictionary persists.
	d := NewBinaryDecoder()
	e := NewBinaryEncoder()
	for i, tc := range []struct {
		payload []byte
		want    []*xmlstream.Element
	}{{payload1, items1}, {payload2, items2}, {payload3, items3}} {
		got, err := d.DecodeElems(tc.payload)
		if err != nil {
			t.Fatalf("payload %d: %v", i+1, err)
		}
		requireSame(t, "payload "+strconv.Itoa(i+1), got, tc.want)
		if i == 2 {
			break
		}
		// The reverse direction: a fresh encoder fed the doc's items emits
		// the doc's bytes.
		if got := e.EncodeElems(nil, tc.want); !bytes.Equal(got, tc.payload) {
			t.Errorf("payload %d: encoder emits\n %x\ndoc says\n %x", i+1, got, tc.payload)
		}
	}
}
