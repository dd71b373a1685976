package predicate

import (
	"slices"
	"testing"
	"testing/quick"

	"streamshare/internal/decimal"
)

func dec(s string) decimal.D { return decimal.MustParse(s) }

// q1Graph is the predicate graph of the paper's Query 1 (Fig. 3/4):
// ra ∈ [120, 138], dec ∈ [−49, −40].
func q1Graph() *Graph {
	g := New()
	g.AddAtom(Atom{Left: "ra", Op: Ge, Const: dec("120.0")})
	g.AddAtom(Atom{Left: "ra", Op: Le, Const: dec("138.0")})
	g.AddAtom(Atom{Left: "dec", Op: Ge, Const: dec("-49.0")})
	g.AddAtom(Atom{Left: "dec", Op: Le, Const: dec("-40.0")})
	return g
}

// q2Graph is Query 2's graph: en ≥ 1.3, ra ∈ [130.5, 135.5], dec ∈ [−48, −45].
func q2Graph() *Graph {
	g := New()
	g.AddAtom(Atom{Left: "en", Op: Ge, Const: dec("1.3")})
	g.AddAtom(Atom{Left: "ra", Op: Ge, Const: dec("130.5")})
	g.AddAtom(Atom{Left: "ra", Op: Le, Const: dec("135.5")})
	g.AddAtom(Atom{Left: "dec", Op: Ge, Const: dec("-48.0")})
	g.AddAtom(Atom{Left: "dec", Op: Le, Const: dec("-45.0")})
	return g
}

func TestNormalizationEdges(t *testing.T) {
	g := q1Graph()
	// Fig. 4: ra→0 weight 138, 0→ra weight −120, dec→0 weight −40, 0→dec weight 49.
	want := map[[2]string]string{
		{"ra", ZeroNode}:  "138",
		{ZeroNode, "ra"}:  "-120",
		{"dec", ZeroNode}: "-40",
		{ZeroNode, "dec"}: "49",
	}
	edges := g.Edges()
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for _, e := range edges {
		w, ok := want[[2]string{e.From, e.To}]
		if !ok || e.W.String() != w {
			t.Errorf("edge %s→%s = %s, want %s", e.From, e.To, e.W, w)
		}
	}
}

func TestPaperQueryContainment(t *testing.T) {
	g, g2 := q1Graph(), q2Graph()
	// Fig. 4: Query 2's predicates imply Query 1's, so Query 1's stream is
	// reusable for Query 2.
	if !MatchPredicates(g, g2) {
		t.Error("Q2 should match against Q1's stream")
	}
	// Not the other way around.
	if MatchPredicates(g2, g) {
		t.Error("Q1 must not match against Q2's narrower stream")
	}
}

func TestStrictBoundaries(t *testing.T) {
	le := New()
	le.AddAtom(Atom{Left: "x", Op: Le, Const: dec("5")})
	lt := New()
	lt.AddAtom(Atom{Left: "x", Op: Lt, Const: dec("5")})
	// x<5 implies x≤5.
	if !MatchPredicates(le, lt) {
		t.Error("x<5 should imply x≤5")
	}
	// x≤5 does not imply x<5.
	if MatchPredicates(lt, le) {
		t.Error("x≤5 must not imply x<5")
	}
	// x<5 trivially implies itself.
	if !MatchPredicates(lt, lt.Clone()) {
		t.Error("self-implication with strict edge")
	}
}

func TestEqualityAtoms(t *testing.T) {
	g := New()
	g.AddAtom(Atom{Left: "x", Op: Eq, Const: dec("3")})
	// Equality yields both bounds.
	upper := New()
	upper.AddAtom(Atom{Left: "x", Op: Le, Const: dec("3")})
	lower := New()
	lower.AddAtom(Atom{Left: "x", Op: Ge, Const: dec("3")})
	if !MatchPredicates(upper, g) || !MatchPredicates(lower, g) {
		t.Error("x=3 should imply both x≤3 and x≥3")
	}
	if !g.Satisfiable() {
		t.Error("x=3 is satisfiable")
	}
}

func TestVariableVsVariable(t *testing.T) {
	// x ≤ y + 2 ∧ y ≤ 1  ⇒  x ≤ 3.
	g := New()
	g.AddAtom(Atom{Left: "x", Op: Le, RightVar: "y", Const: dec("2")})
	g.AddAtom(Atom{Left: "y", Op: Le, Const: dec("1")})
	target := New()
	target.AddAtom(Atom{Left: "x", Op: Le, Const: dec("3")})
	// x ≤ 3 is not a stored edge of g, only a path of two: the paper's
	// edge-wise Algorithm 3 refuses it, the closure derives it.
	if !MatchPredicates(target, g) {
		t.Error("closure should derive x ≤ 3")
	}
	if MatchPredicates(g, target) {
		t.Error("x ≤ 3 must not imply x ≤ y + 2 ∧ y ≤ 1")
	}
}

func TestSatisfiability(t *testing.T) {
	g := New()
	g.AddAtom(Atom{Left: "x", Op: Ge, Const: dec("10")})
	g.AddAtom(Atom{Left: "x", Op: Le, Const: dec("5")})
	if g.Satisfiable() {
		t.Error("x≥10 ∧ x≤5 should be unsatisfiable")
	}

	h := New()
	h.AddAtom(Atom{Left: "x", Op: Ge, Const: dec("5")})
	h.AddAtom(Atom{Left: "x", Op: Le, Const: dec("5")})
	if !h.Satisfiable() {
		t.Error("x=5 via two bounds should be satisfiable")
	}

	// Zero-weight cycle with a strict edge: x < y ∧ y ≤ x.
	s := New()
	s.AddAtom(Atom{Left: "x", Op: Lt, RightVar: "y"})
	s.AddAtom(Atom{Left: "y", Op: Le, RightVar: "x"})
	if s.Satisfiable() {
		t.Error("x<y ∧ y≤x should be unsatisfiable")
	}

	// Three-variable negative cycle.
	c := New()
	c.AddAtom(Atom{Left: "a", Op: Le, RightVar: "b", Const: dec("-1")})
	c.AddAtom(Atom{Left: "b", Op: Le, RightVar: "c", Const: dec("-1")})
	c.AddAtom(Atom{Left: "c", Op: Le, RightVar: "a", Const: dec("1")})
	if c.Satisfiable() {
		t.Error("cycle with total −1 should be unsatisfiable")
	}

	if !New().Satisfiable() {
		t.Error("empty predicate is satisfiable")
	}
}

func TestMinimizeDropsRedundant(t *testing.T) {
	g := New()
	g.AddAtom(Atom{Left: "x", Op: Le, Const: dec("10")})
	g.AddAtom(Atom{Left: "x", Op: Le, Const: dec("5")}) // same edge, stronger kept
	g.AddAtom(Atom{Left: "x", Op: Le, RightVar: "y"})
	g.AddAtom(Atom{Left: "y", Op: Le, Const: dec("3")})
	// x ≤ 5 is redundant: x ≤ y ≤ 3.
	g.Minimize()
	for _, e := range g.Edges() {
		if e.From == "x" && e.To == ZeroNode {
			t.Errorf("redundant edge x→0 (%s) survived minimization", e.W)
		}
	}
	if g.Len() != 2 {
		t.Errorf("minimized graph has %d edges: %s", g.Len(), g)
	}
}

func TestMinimizeKeepsEqualityCycle(t *testing.T) {
	// x = y = z pairwise: minimization must keep the cycle connected, not
	// drop all edges via mutual redundancy.
	g := New()
	g.AddAtom(Atom{Left: "x", Op: Eq, RightVar: "y"})
	g.AddAtom(Atom{Left: "y", Op: Eq, RightVar: "z"})
	g.AddAtom(Atom{Left: "x", Op: Eq, RightVar: "z"})
	before := g.Clone()
	g.Minimize()
	if !MatchPredicates(before, g) || !MatchPredicates(g, before) {
		t.Errorf("minimization changed meaning: %s", g)
	}
	if g.Len() == 0 {
		t.Error("minimization dropped the whole equality cycle")
	}
}

func TestMinimizePreservesMeaning(t *testing.T) {
	g := q2Graph()
	g.AddAtom(Atom{Left: "ra", Op: Ge, Const: dec("120.0")}) // weaker than 130.5
	g.AddAtom(Atom{Left: "en", Op: Gt, Const: dec("0.5")})   // weaker than ≥1.3
	before := g.Clone()
	g.Minimize()
	if !MatchPredicates(before, g) || !MatchPredicates(g, before) {
		t.Error("minimize must preserve meaning")
	}
	if g.Len() != 5 {
		t.Errorf("expected the 5 tight Q2 bounds, got %d: %s", g.Len(), g)
	}
}

func TestMatchMissingNode(t *testing.T) {
	// Stream filters on en; subscription doesn't mention en → not reusable.
	g := New()
	g.AddAtom(Atom{Left: "en", Op: Ge, Const: dec("1.3")})
	sub := New()
	sub.AddAtom(Atom{Left: "ra", Op: Ge, Const: dec("130")})
	if MatchPredicates(g, sub) {
		t.Error("subscription without en must not match an en-filtered stream")
	}
	// Empty stream graph (unfiltered stream) matches anything.
	if !MatchPredicates(New(), sub) {
		t.Error("unfiltered stream matches any subscription")
	}
}

func TestAtomsRoundTrip(t *testing.T) {
	g := q1Graph()
	back := New()
	for _, a := range g.Atoms() {
		back.AddAtom(a)
	}
	if !MatchPredicates(g, back) || !MatchPredicates(back, g) {
		t.Errorf("Atoms round trip changed meaning:\n%s\n%s", g, back)
	}
}

func TestStringForms(t *testing.T) {
	if New().String() != "⊤" {
		t.Errorf("empty graph = %q", New().String())
	}
	a := Atom{Left: "x", Op: Le, RightVar: "y", Const: dec("2")}
	if a.String() != "x <= y + 2" {
		t.Errorf("atom = %q", a.String())
	}
	b := Atom{Left: "x", Op: Gt, Const: dec("-1.5")}
	if b.String() != "x > -1.5" {
		t.Errorf("atom = %q", b.String())
	}
	c := Atom{Left: "x", Op: Eq, RightVar: "y"}
	if c.String() != "x = y" {
		t.Errorf("atom = %q", c.String())
	}
}

func TestUnion(t *testing.T) {
	g1, g2 := q1Graph(), q2Graph()
	u := Union(g1, g2)
	// Both inputs imply the union.
	if !MatchPredicates(u, g1) || !MatchPredicates(u, g2) {
		t.Errorf("union not implied by both inputs: %s", u)
	}
	// Q2's en bound exists only in Q2, so the union has no en constraint.
	if slices.Contains(u.Nodes(), "en") {
		t.Errorf("union kept a one-sided constraint: %s", u)
	}
	// ra bounds: weaker of [120,138] and [130.5,135.5] is [120,138].
	want := q1Graph()
	if !MatchPredicates(want, u) || !MatchPredicates(u, want) {
		t.Errorf("union = %s, want Q1's box", u)
	}
}

func TestUnionEmptyAndDisjointVars(t *testing.T) {
	a := New()
	a.AddAtom(Atom{Left: "x", Op: Le, Const: dec("5")})
	b := New()
	b.AddAtom(Atom{Left: "y", Op: Le, Const: dec("5")})
	if Union(a, b).Len() != 0 {
		t.Error("disjoint variables should union to ⊤")
	}
	if Union(New(), a).Len() != 0 || Union(a, New()).Len() != 0 {
		t.Error("union with ⊤ is ⊤")
	}
}

// Property: random interval unions are implied by both sides.
func TestQuickUnionWeaker(t *testing.T) {
	f := func(al, ah, bl, bh int8) bool {
		a, b := New(), New()
		a.AddAtom(Atom{Left: "v", Op: Ge, Const: decimal.FromInt(int64(al))})
		a.AddAtom(Atom{Left: "v", Op: Le, Const: decimal.FromInt(int64(ah))})
		b.AddAtom(Atom{Left: "v", Op: Ge, Const: decimal.FromInt(int64(bl))})
		b.AddAtom(Atom{Left: "v", Op: Le, Const: decimal.FromInt(int64(bh))})
		u := Union(a, b)
		return MatchPredicates(u, a) && MatchPredicates(u, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interval containment semantics — stream [al,ah] is matched by
// subscription [bl,bh] iff [bl,bh] ⊆ [al,ah] (or [bl,bh] empty ⊆ anything is
// handled by unsatisfiability rejection upstream; here require bl ≤ bh).
func TestQuickIntervalContainment(t *testing.T) {
	f := func(al, ah, bl, bh int8) bool {
		if bl > bh {
			return true
		}
		a, b := New(), New()
		a.AddAtom(Atom{Left: "v", Op: Ge, Const: decimal.FromInt(int64(al))})
		a.AddAtom(Atom{Left: "v", Op: Le, Const: decimal.FromInt(int64(ah))})
		b.AddAtom(Atom{Left: "v", Op: Ge, Const: decimal.FromInt(int64(bl))})
		b.AddAtom(Atom{Left: "v", Op: Le, Const: decimal.FromInt(int64(bh))})
		want := int64(al) <= int64(bl) && int64(bh) <= int64(ah)
		return MatchPredicates(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: minimization never changes meaning for random chains of
// difference constraints.
func TestQuickMinimizeMeaning(t *testing.T) {
	vars := []string{"a", "b", "c", "d"}
	f := func(pairs [8]struct {
		I, J uint8
		C    int8
	}) bool {
		g := New()
		for _, p := range pairs {
			i, j := int(p.I)%len(vars), int(p.J)%len(vars)
			if i == j {
				continue
			}
			g.AddAtom(Atom{Left: vars[i], Op: Le, RightVar: vars[j], Const: decimal.FromInt(int64(p.C))})
		}
		if !g.Satisfiable() {
			return true // Minimize requires satisfiability
		}
		before := g.Clone()
		g.Minimize()
		return MatchPredicates(before, g) && MatchPredicates(g, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
