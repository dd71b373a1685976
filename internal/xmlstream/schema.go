package xmlstream

import "sort"

// Schema is a DTD-like tree of element names, as in the paper's photon DTD
// (§1): each node names an element; leaves carry text content. Occurrence
// counts are not constrained — WXQuery's data model only needs the element
// structure.
type Schema struct {
	// Name is the element name this node describes.
	Name string
	// Children are the element's permitted child elements.
	Children []*Schema
	// Leaf marks elements observed with text content (no children).
	Leaf bool
}

// Child returns the named child schema, or nil.
func (s *Schema) Child(name string) *Schema {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// InferSchema derives the union schema of a sample of stream items; nil for
// an empty sample.
func InferSchema(items []*Element) *Schema {
	if len(items) == 0 {
		return nil
	}
	root := &Schema{Name: items[0].Name}
	for _, it := range items {
		if it.Name != root.Name {
			root.Name = it.Name // last writer wins
		}
		mergeSchema(root, it)
	}
	sortSchema(root)
	return root
}

func mergeSchema(s *Schema, e *Element) {
	if len(e.Children) == 0 {
		s.Leaf = true
		return
	}
	for _, c := range e.Children {
		cs := s.Child(c.Name)
		if cs == nil {
			cs = &Schema{Name: c.Name}
			s.Children = append(s.Children, cs)
		}
		mergeSchema(cs, c)
	}
}

func sortSchema(s *Schema) {
	sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].Name < s.Children[j].Name })
	for _, c := range s.Children {
		sortSchema(c)
	}
}

// Names returns the schema's element-name vocabulary: every distinct
// element name in the tree, sorted and deduplicated. Wire codecs seed
// link dictionaries from this list so steady-state payloads carry no
// dictionary deltas.
func (s *Schema) Names() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(n *Schema)
	walk = func(n *Schema) {
		if !seen[n.Name] {
			seen[n.Name] = true
			out = append(out, n.Name)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(s)
	sort.Strings(out)
	return out
}
