package exec

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/xmlstream"
)

// TestSelectAtInt64Boundary decides edges whose operands, aligned or
// summed, leave int64. Both rows returned the wrong answer when a constant
// bound fell back to float64 on overflow and a var–var edge rejected an
// item whose rhs.Add(C) overflowed.
func TestSelectAtInt64Boundary(t *testing.T) {
	for _, c := range []struct {
		where string
		a, b  string
		pass  bool
	}{
		{"$p/a <= 92233720368547758.07", "92233720368547759", "0", false},
		{"$p/a <= $p/b + 1", "1", "9223372036854775807", true},
		{"$p/a < $p/b + 1", "9223372036854775807", "9223372036854775806", false},
		{"$p/a >= 92233720368547758.07", "92233720368547759", "0", true},
		{"$p/a >= $p/b - 1", "-9223372036854775807", "-9223372036854775807", true},
	} {
		src := fmt.Sprintf(`<r>{ for $p in stream("s")/r/i where %s return <o>{ $p/a }</o> }</r>`, c.where)
		item := xmlstream.E("i", xmlstream.T("a", c.a), xmlstream.T("b", c.b))
		if got := len(runFull(t, src, []*xmlstream.Element{item})) == 1; got != c.pass {
			t.Errorf("where %s with a=%s, b=%s: passes %v, want %v", c.where, c.a, c.b, got, c.pass)
		}
	}
}

// TestValueTableRefills holds a group's shared table to its one rule: a
// row is valid only for the element it was filled from. The second member
// reads a batch of the same length with one item swapped, then the first
// batch reordered; a row reused across either would answer from another
// item's leaves.
func TestValueTableRefills(t *testing.T) {
	atLeast := func(min string) *Pipeline {
		g := predicate.New()
		g.AddAtom(predicate.Atom{Left: "en", Op: predicate.Ge, Const: dec(min)})
		return NewPipeline(NewSelect(g))
	}
	templates := []*Pipeline{atLeast("1"), atLeast("2")}
	group := NewSelectionGroup(templates)
	if group == nil {
		t.Fatal("two pipelines leading with a Select form no group")
	}
	a, b := templates[0].Instance(), templates[1].Instance()
	group.Bind([]*Pipeline{a, b})
	if leadingSelect(a).tab == nil || leadingSelect(a).tab != leadingSelect(b).tab {
		t.Fatal("the members of a bound group do not share one table")
	}
	low, high, other := photon("1", "1", "1", "1.5", "1"), photon("1", "1", "1", "3", "1"), photon("1", "1", "1", "1.8", "1")
	passes := func(p *Pipeline, batch ...*xmlstream.Element) string {
		out, _ := p.Eval(0, batch, false, nil)
		var s []string
		for _, it := range out {
			s = append(s, it.First(xmlstream.ParsePath("en")).Value())
		}
		return strings.Join(s, " ")
	}
	if got := passes(a, low, high); got != "1.5 3" {
		t.Fatalf("en ≥ 1 over (1.5, 3) passes %q", got)
	}
	// Same length, one pointer differs: row 1 must refill from other.
	if got := passes(b, low, other); got != "" {
		t.Errorf("en ≥ 2 over (1.5, 1.8) after (1.5, 3) passes %q, want none", got)
	}
	// The same items reordered: every row must follow its item.
	if got := passes(b, high, low); got != "3" {
		t.Errorf("en ≥ 2 over (3, 1.5) after (1.5, 1.8) passes %q, want \"3\"", got)
	}
	if got := passes(a, low, high); got != "1.5 3" {
		t.Errorf("en ≥ 1 over (1.5, 3) after a reorder passes %q", got)
	}
	// End of stream lets go of the pinned batch.
	a.Eval(0, nil, true, nil)
	if leadingSelect(a).tab.used != 0 {
		t.Error("Flush left rows pinned")
	}
	for _, it := range leadingSelect(a).tab.items {
		if it != nil {
			t.Fatal("Flush left an item pinned")
		}
	}
}

// gridLeaves are the leaves of the selection oracle's items, and gridValues
// the values each one takes on its grid: a few integers, a missing leaf
// ("") and a leaf that is not a number.
var (
	gridLeaves = []string{"a", "b/c", "d"}
	gridValues = []string{"-1", "0", "1", "2", "", "x"}
)

// gridItems returns one item per point of the grid.
func gridItems() []*xmlstream.Element {
	var out []*xmlstream.Element
	var build func(i int, vals []string)
	build = func(i int, vals []string) {
		if i == len(gridLeaves) {
			it := xmlstream.E("i")
			for k, v := range vals {
				if v == "" {
					continue
				}
				leaf := xmlstream.T(gridLeaves[k], v)
				if parent, name, ok := strings.Cut(gridLeaves[k], "/"); ok {
					leaf = xmlstream.E(parent, xmlstream.T(name, v))
				}
				it.Children = append(it.Children, leaf)
			}
			out = append(out, it)
			return
		}
		for _, v := range gridValues {
			build(i+1, append(vals[:i:i], v))
		}
	}
	build(0, nil)
	return out
}

// randomAtoms draws a conjunction of one to four atoms over the grid's
// leaves: bounds and var–var edges, strict and not, and equalities, with
// integer and half-integer constants around the grid.
func randomAtoms(r *rand.Rand) []predicate.Atom {
	consts := []string{"-2", "-1", "-0.5", "0", "0.5", "1", "1.5", "2", "3"}
	ops := []predicate.Op{predicate.Eq, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
	atoms := make([]predicate.Atom, 1+r.Intn(4))
	for i := range atoms {
		a := predicate.Atom{Left: gridLeaves[r.Intn(len(gridLeaves))], Op: ops[r.Intn(len(ops))],
			Const: dec(consts[r.Intn(len(consts))])}
		if r.Intn(3) == 0 {
			a.RightVar = gridLeaves[r.Intn(len(gridLeaves))]
		}
		atoms[i] = a
	}
	return atoms
}

func graphOf(atoms []predicate.Atom) *predicate.Graph {
	g := predicate.New()
	for _, a := range atoms {
		g.AddAtom(a)
	}
	return g
}

// holds evaluates atoms on item directly, in rationals: an atom over a
// missing or non-numeric leaf is false.
func holds(atoms []predicate.Atom, item *xmlstream.Element) bool {
	leaf := func(path string) (*big.Rat, bool) {
		e := item.First(xmlstream.ParsePath(path))
		if e == nil {
			return nil, false
		}
		return new(big.Rat).SetString(e.Value())
	}
	for _, a := range atoms {
		l, ok := leaf(a.Left)
		if !ok {
			return false
		}
		r, _ := new(big.Rat).SetString(a.Const.String())
		if a.RightVar != "" {
			v, ok := leaf(a.RightVar)
			if !ok {
				return false
			}
			r.Add(r, v)
		}
		c := l.Cmp(r)
		switch a.Op {
		case predicate.Eq:
			ok = c == 0
		case predicate.Lt:
			ok = c < 0
		case predicate.Le:
			ok = c <= 0
		case predicate.Gt:
			ok = c > 0
		case predicate.Ge:
			ok = c >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestSelectGridOracle holds Select to direct evaluation of its atoms on
// every point of a small grid: alone, item by item, and as a member of a
// random sibling group whose members read one table over random batch
// splits and one-item batches, in a random member order per batch. It also
// holds predicate.MatchPredicates to the grid: no accepted pair may have a
// point that satisfies the implying graph and not the implied one, and
// minimizing a satisfiable graph, as properties does, must not change a
// decision.
func TestSelectGridOracle(t *testing.T) {
	items := gridItems()
	r := rand.New(rand.NewSource(27))
	want := func(atoms []predicate.Atom) []*xmlstream.Element {
		var out []*xmlstream.Element
		for _, it := range items {
			if holds(atoms, it) {
				out = append(out, it)
			}
		}
		return out
	}
	same := func(name string, got, want []*xmlstream.Element) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d items pass, direct evaluation %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: item %d is %s, direct evaluation %s", name, i, xmlstream.Marshal(got[i]), xmlstream.Marshal(want[i]))
			}
		}
	}

	var conjs [][]predicate.Atom
	for n := 0; n < 300; n++ {
		atoms := randomAtoms(r)
		conjs = append(conjs, atoms)
		var got []*xmlstream.Element
		s := NewSelect(graphOf(atoms))
		for _, it := range items {
			got = s.Process(got, []*xmlstream.Element{it})
		}
		same(fmt.Sprint(atoms), got, want(atoms))
	}

	for n := 0; n < 100; n++ {
		members := conjs[r.Intn(len(conjs)-4):]
		members = members[:2+r.Intn(3)]
		templates := make([]*Pipeline, len(members))
		for i, atoms := range members {
			templates[i] = NewPipeline(NewSelect(graphOf(atoms)))
		}
		insts := make([]*Pipeline, len(members))
		for i, p := range templates {
			insts[i] = p.Instance()
		}
		NewSelectionGroup(templates).Bind(insts)
		got := make([][]*xmlstream.Element, len(members))
		for lo := 0; lo < len(items); {
			hi := min(lo+1+r.Intn(40), len(items))
			if r.Intn(4) == 0 {
				hi = lo + 1
			}
			for _, i := range r.Perm(len(members)) {
				out, _ := insts[i].Eval(0, items[lo:hi], hi == len(items), nil)
				got[i] = append(got[i], out...)
			}
			lo = hi
		}
		for i, atoms := range members {
			same(fmt.Sprintf("group of %d, member %v", len(members), atoms), got[i], want(atoms))
		}
	}

	// MatchPredicates over pairs whose second conjunction tightens or extends
	// the first, so that many are accepted, and over unrelated pairs: on the
	// graphs as built by properties (minimized when satisfiable), and on the
	// unminimized ones, which must agree wherever both sides are satisfiable
	// (unsatisfiable subscriptions are refused at registration).
	built := func(g *predicate.Graph) *predicate.Graph {
		g = g.Clone()
		if g.Satisfiable() {
			g.Minimize()
		}
		return g
	}
	accepted, gap, unsound := 0, 0, 0
	for n := 0; n < 2000; n++ {
		weak := conjs[r.Intn(len(conjs))]
		strong := conjs[r.Intn(len(conjs))]
		if n%2 == 0 {
			strong = append(append([]predicate.Atom(nil), weak...), randomAtoms(r)[0])
			for i := range strong[:len(weak)] {
				if strong[i].Op == predicate.Le || strong[i].Op == predicate.Lt {
					strong[i].Const, _ = strong[i].Const.Sub(decimal.MustParse("0.5"))
				}
			}
		}
		wg, sg := graphOf(weak), graphOf(strong)
		full := predicate.MatchPredicates(wg, sg)
		match := predicate.MatchPredicates(built(wg), built(sg))
		if match != full && wg.Satisfiable() && sg.Satisfiable() {
			gap++
			t.Errorf("%v implied by %v: %v on the built graphs, %v on the unminimized ones", weak, strong, match, full)
		}
		if match {
			accepted++
		}
		for _, it := range items {
			if (match || full) && holds(strong, it) && !holds(weak, it) {
				unsound++
				t.Errorf("%v is accepted as implied by %v (built %v, unminimized %v), but %s satisfies only the latter",
					weak, strong, match, full, xmlstream.Marshal(it))
				break
			}
		}
	}
	t.Logf("%d grid points, 2000 pairs: accepted %d, unsound %d; completeness gap (built and unminimized disagree) %d",
		len(items), accepted, unsound, gap)
	if accepted < 500 {
		t.Errorf("only %d pairs accepted: the implication check is barely exercised", accepted)
	}
}
