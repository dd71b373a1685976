package xmlstream

import (
	"strings"
	"testing"
)

// render draws a schema as an indented tree, like the paper's DTD figure.
func render(s *Schema) string {
	var b strings.Builder
	var walk func(n *Schema, depth int)
	walk = func(n *Schema, depth int) {
		b.WriteString(strings.Repeat("  ", depth) + n.Name + "\n")
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return strings.TrimRight(b.String(), "\n")
}

func TestInferSchemaPhotonDTD(t *testing.T) {
	items := []*Element{
		photon("1", "2", "3", "4", "5", "6", "7"),
		photon("8", "9", "1", "2", "3", "4", "5"),
	}
	s := InferSchema(items)
	if s == nil || s.Name != "photon" {
		t.Fatalf("schema = %+v", s)
	}
	// The rendered tree mirrors the paper's DTD figure, children sorted.
	want := "photon\n  coord\n    cel\n      dec\n      ra\n    det\n      dx\n      dy\n  det_time\n  en\n  phc"
	if str := render(s); str != want {
		t.Errorf("rendered schema:\n%s\nwant:\n%s", str, want)
	}
}

func TestInferSchemaEmpty(t *testing.T) {
	if InferSchema(nil) != nil {
		t.Error("empty sample should infer no schema")
	}
}

func TestInferSchemaUnionAcrossItems(t *testing.T) {
	items := []*Element{
		E("i", T("a", "1")),
		E("i", T("b", "2")),
	}
	s := InferSchema(items)
	if s.Child("a") == nil || s.Child("b") == nil {
		t.Error("schema should union element sets across items")
	}
}
