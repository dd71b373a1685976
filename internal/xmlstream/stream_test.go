package xmlstream

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestDecodeEncodeRoundTrip(t *testing.T) {
	items := []*Element{
		photon("120.5", "-44", "1", "2", "3", "0.8", "10"),
		photon("131.0", "-47", "4", "5", "6", "1.9", "20"),
	}
	doc := "<photons>" + Marshal(items[0]) + Marshal(items[1]) + "</photons>"
	dec := NewDecoder(strings.NewReader(doc))
	var back []*Element
	for {
		it, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, it)
	}
	if len(back) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(back), len(items))
	}
	for i := range items {
		if !items[i].Equal(back[i]) {
			t.Errorf("item %d mismatch:\n%s\n%s", i, Marshal(items[i]), Marshal(back[i]))
		}
	}
}

func TestDecodeWhitespaceAndEmpty(t *testing.T) {
	doc := "<photons>\n  <photon>\n    <en> 1.5 </en>\n    <flag/>\n  </photon>\n</photons>"
	dec := NewDecoder(strings.NewReader(doc))
	it, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := it.First(ParsePath("en")).Value(); got != "1.5" {
		t.Errorf("whitespace not trimmed: %q", got)
	}
	if it.First(ParsePath("flag")) == nil {
		t.Error("self-closing element lost")
	}
	if _, err := dec.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
	// Next after EOF stays EOF.
	if _, err := dec.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("second EOF: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := NewDecoder(strings.NewReader("")).Next(); !errors.Is(err, ErrNoRoot) {
		t.Errorf("empty input: %v", err)
	}
	if _, err := NewDecoder(strings.NewReader("<r><a><b></a></r>")).Next(); err == nil {
		t.Error("mismatched tags should fail")
	}
	// Truncated mid-item.
	if _, err := NewDecoder(strings.NewReader("<r><item><x>1</x>")).Next(); err == nil {
		t.Error("truncated item should fail")
	}
}

func TestUnmarshal(t *testing.T) {
	it, err := Unmarshal("<vela><ra>130.7</ra><en>1.5</en></vela>")
	if err != nil {
		t.Fatal(err)
	}
	if it.Name != "vela" || it.First(ParsePath("ra")).Value() != "130.7" {
		t.Errorf("Unmarshal = %s", Marshal(it))
	}
	if _, err := Unmarshal(""); err == nil {
		t.Error("empty Unmarshal should fail")
	}
}

func TestConvertAttributes(t *testing.T) {
	doc := `<r><p ra="130.5" dec="-46"><en unit="keV">1.5</en><flag set="y"/></p></r>`
	dec := NewDecoder(strings.NewReader(doc)).ConvertAttributes()
	it, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := it.First(ParsePath("ra")).Value(); got != "130.5" {
		t.Errorf("ra attribute = %q", got)
	}
	if got := it.First(ParsePath("dec")).Value(); got != "-46" {
		t.Errorf("dec attribute = %q", got)
	}
	// Attributed leaf keeps its text as a value child.
	if got := it.First(ParsePath("en/unit")).Value(); got != "keV" {
		t.Errorf("unit = %q", got)
	}
	if got := it.First(ParsePath("en/value")).Value(); got != "1.5" {
		t.Errorf("en value = %q", got)
	}
	if got := it.First(ParsePath("flag/set")).Value(); got != "y" {
		t.Errorf("flag/set = %q", got)
	}
	// Without conversion, attributes are ignored.
	plain, err := NewDecoder(strings.NewReader(doc)).Next()
	if err != nil {
		t.Fatal(err)
	}
	if plain.First(ParsePath("ra")) != nil {
		t.Error("attributes should be ignored without ConvertAttributes")
	}
}
