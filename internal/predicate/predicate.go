// Package predicate implements the weighted directed graph representation of
// conjunctive predicates used for matching selections (§3.3, "Matching
// Predicates"), extending Rosenkrantz & Hunt's construction [5] from integers
// to decimals with a finite number of decimal places.
//
// Every atomic predicate is normalized to the form  u ≤ v + c  and stored as
// a directed edge u→v with weight c. The constant zero is the reserved node
// ZeroNode, so  $v ≤ c  becomes an edge $v→0 with weight c and  $v ≥ c
// becomes an edge 0→$v with weight −c.
//
// Strict comparisons are carried as a strictness bit on the edge weight
// (u < v + c) instead of the paper's implicit integer −1 rewrite; over
// decimals this keeps satisfiability, minimization, and implication exact
// without fixing a working scale.
package predicate

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"streamshare/internal/decimal"
)

// ZeroNode is the reserved label of the constant-zero node.
const ZeroNode = "#0"

// Op enumerates the comparison operators θ ∈ {=, <, ≤, >, ≥} of WXQuery
// atomic predicates.
type Op int

// Comparison operators.
const (
	Eq Op = iota
	Lt
	Le
	Gt
	Ge
)

// String renders the operator in WXQuery surface syntax.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Atom is one atomic predicate: Left θ Const, or Left θ RightVar + Const when
// RightVar is non-empty. Left and RightVar are absolute element paths.
type Atom struct {
	Left     string
	Op       Op
	RightVar string
	Const    decimal.D
}

// String renders the atom in WXQuery-like syntax.
func (a Atom) String() string {
	if a.RightVar == "" {
		return fmt.Sprintf("%s %s %s", a.Left, a.Op, a.Const)
	}
	if a.Const.IsZero() {
		return fmt.Sprintf("%s %s %s", a.Left, a.Op, a.RightVar)
	}
	return fmt.Sprintf("%s %s %s + %s", a.Left, a.Op, a.RightVar, a.Const)
}

// Weight is an edge weight: the constraint  source ≤ target + C, or
// source < target + C when Strict.
type Weight struct {
	C      decimal.D
	Strict bool
}

// Add composes two constraints along a path. ok is false on arithmetic
// overflow, in which case the path contributes no constraint.
func (w Weight) Add(o Weight) (Weight, bool) {
	c, err := w.C.Add(o.C)
	if err != nil {
		return Weight{}, false
	}
	return Weight{C: c, Strict: w.Strict || o.Strict}, true
}

// Stronger reports whether w is a strictly stronger constraint than o.
func (w Weight) Stronger(o Weight) bool {
	switch w.C.Cmp(o.C) {
	case -1:
		return true
	case 1:
		return false
	}
	return w.Strict && !o.Strict
}

// Implies reports whether constraint w implies constraint o between the same
// node pair, i.e. w is at least as strong as o.
func (w Weight) Implies(o Weight) bool { return !o.Stronger(w) }

// String renders the weight, marking strict constraints with a trailing "!".
func (w Weight) String() string {
	if w.Strict {
		return w.C.String() + "!"
	}
	return w.C.String()
}

type edgeKey struct{ from, to int }

// Graph is a weighted directed predicate graph. The zero value is an empty
// (always-true) predicate.
//
// Graphs are mutable while they are being built (AddAtom, Minimize) and
// immutable afterwards; derived views — the transitive closure, the
// canonical fingerprint — are memoized on first use and invalidated by any
// mutation. The memos are guarded by a mutex so read-only consumers may
// share a built graph across goroutines.
type Graph struct {
	labels []string
	index  map[string]int
	edges  map[edgeKey]Weight

	memo struct {
		sync.Mutex
		fp  string
		clo [][]*Weight
	}
}

// New returns an empty predicate graph.
func New() *Graph {
	return &Graph{index: map[string]int{}, edges: map[edgeKey]Weight{}}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New()
	c.labels = append(c.labels, g.labels...)
	for k, v := range g.index {
		c.index[k] = v
	}
	for k, v := range g.edges {
		c.edges[k] = v
	}
	return c
}

func (g *Graph) node(label string) int {
	if i, ok := g.index[label]; ok {
		return i
	}
	i := len(g.labels)
	g.labels = append(g.labels, label)
	g.index[label] = i
	return i
}

// addEdge records the constraint from ≤ to + w, keeping only the strongest
// parallel constraint.
func (g *Graph) addEdge(from, to string, w Weight) {
	k := edgeKey{g.node(from), g.node(to)}
	if old, ok := g.edges[k]; !ok || w.Stronger(old) {
		g.setEdge(k, w)
	}
}

// setEdge stores a constraint and invalidates the memoized views.
func (g *Graph) setEdge(k edgeKey, w Weight) {
	g.edges[k] = w
	g.invalidate()
}

// delEdge removes a constraint and invalidates the memoized views.
func (g *Graph) delEdge(k edgeKey) {
	delete(g.edges, k)
	g.invalidate()
}

// invalidate drops every memoized derived view after a mutation.
func (g *Graph) invalidate() {
	g.memo.Lock()
	g.memo.fp, g.memo.clo = "", nil
	g.memo.Unlock()
}

// AddAtom normalizes one atomic predicate into graph edges.
func (g *Graph) AddAtom(a Atom) {
	right := a.RightVar
	if right == "" {
		right = ZeroNode
	}
	le := func(from, to string, c decimal.D, strict bool) {
		g.addEdge(from, to, Weight{C: c, Strict: strict})
	}
	switch a.Op {
	case Le: // L ≤ R + c
		le(a.Left, right, a.Const, false)
	case Lt:
		le(a.Left, right, a.Const, true)
	case Ge: // L ≥ R + c  ⇔  R ≤ L − c
		le(right, a.Left, a.Const.Neg(), false)
	case Gt:
		le(right, a.Left, a.Const.Neg(), true)
	case Eq:
		le(a.Left, right, a.Const, false)
		le(right, a.Left, a.Const.Neg(), false)
	}
}

// Nodes returns the node labels in insertion order.
func (g *Graph) Nodes() []string { return append([]string(nil), g.labels...) }

// Edge holds one stored constraint for iteration and reporting.
type Edge struct {
	From, To string
	W        Weight
}

// Edges returns all constraints, ordered deterministically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for k, w := range g.edges {
		out = append(out, Edge{From: g.labels[k.from], To: g.labels[k.to], W: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Fingerprint returns a canonical encoding of the stored constraint set:
// two graphs with equal fingerprints describe identical conjunctive
// predicates (same node labels, same strongest constraints). It is the
// cache key for memoized match/implication outcomes; the encoding is
// memoized and recomputed only after mutations. A nil graph fingerprints
// as the empty string.
func (g *Graph) Fingerprint() string {
	if g == nil {
		return ""
	}
	g.memo.Lock()
	defer g.memo.Unlock()
	if g.memo.fp == "" {
		var b strings.Builder
		b.WriteByte('g')
		keys := make([]edgeKey, 0, len(g.edges))
		for k := range g.edges {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if g.labels[keys[i].from] != g.labels[keys[j].from] {
				return g.labels[keys[i].from] < g.labels[keys[j].from]
			}
			return g.labels[keys[i].to] < g.labels[keys[j].to]
		})
		for _, k := range keys {
			w := g.edges[k]
			b.WriteByte(';')
			b.WriteString(g.labels[k.from])
			b.WriteByte('|')
			b.WriteString(g.labels[k.to])
			b.WriteByte('|')
			b.WriteString(w.String())
		}
		g.memo.fp = b.String()
	}
	return g.memo.fp
}

// Len reports the number of stored constraints.
func (g *Graph) Len() int { return len(g.edges) }

// Atoms converts the stored edges back to normalized atomic predicates
// (all of the form  u ≤ v + c  or  u < v + c).
func (g *Graph) Atoms() []Atom {
	var out []Atom
	for _, e := range g.Edges() {
		op := Le
		if e.W.Strict {
			op = Lt
		}
		a := Atom{Left: e.From, Op: op, Const: e.W.C}
		switch {
		case e.To == ZeroNode:
			// u ≤ 0 + c
		case e.From == ZeroNode:
			// 0 ≤ v + c  ⇔  v ≥ −c
			a = Atom{Left: e.To, Op: Ge, Const: e.W.C.Neg()}
			if e.W.Strict {
				a.Op = Gt
			}
		default:
			a.RightVar = e.To
		}
		out = append(out, a)
	}
	return out
}

// String renders the graph as a sorted list of constraints.
func (g *Graph) String() string {
	var b strings.Builder
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		fmt.Fprintf(&b, "%s ≤ %s + %s", e.From, e.To, e.W)
	}
	if b.Len() == 0 {
		return "⊤"
	}
	return b.String()
}

// closure returns the memoized all-pairs strongest derivable constraints,
// computing them on first use. Mutations invalidate the memo, so builders
// (Minimize) always see a closure consistent with the current edge set,
// while immutable graphs pay for Floyd–Warshall once no matter how many
// Satisfiable/MatchPredicates comparisons they participate in.
func (g *Graph) closure() [][]*Weight {
	g.memo.Lock()
	defer g.memo.Unlock()
	if g.memo.clo == nil {
		g.memo.clo = g.computeClosure()
	}
	return g.memo.clo
}

// computeClosure runs all-pairs strongest derivable constraints via
// Floyd–Warshall over the (Weight, Add, Stronger) semiring. dist[i][j] is nil
// when no constraint between i and j is derivable.
func (g *Graph) computeClosure() [][]*Weight {
	n := len(g.labels)
	dist := make([][]*Weight, n)
	for i := range dist {
		dist[i] = make([]*Weight, n)
	}
	for k, w := range g.edges {
		w := w
		if old := dist[k.from][k.to]; old == nil || w.Stronger(*old) {
			dist[k.from][k.to] = &w
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if dist[i][k] == nil {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[k][j] == nil {
					continue
				}
				sum, ok := dist[i][k].Add(*dist[k][j])
				if !ok {
					continue
				}
				if old := dist[i][j]; old == nil || sum.Stronger(*old) {
					dist[i][j] = &sum
				}
			}
		}
	}
	return dist
}

// Satisfiable reports whether the conjunction has a solution: no cycle with
// negative total weight and no zero-weight cycle containing a strict edge.
// Unsatisfiable subscriptions are rejected at registration (§3.3).
func (g *Graph) Satisfiable() bool {
	dist := g.closure()
	zero := Weight{}
	for i := range dist {
		if d := dist[i][i]; d != nil && d.Stronger(zero) {
			return false
		}
	}
	return true
}

// Minimize removes redundant constraints: every edge implied by the
// remaining edges is dropped, one at a time (simultaneous removal would be
// unsound in the presence of equality cycles). The graph must be
// satisfiable. Minimization runs once per subscription at registration;
// matching reads the closure and does not need it, but it keeps the per-item
// checks NewSelect compiles, the var–var edges stats prices one by one and
// the fingerprint that keys the match cache small.
func (g *Graph) Minimize() {
	// First tighten every edge to the strongest derivable constraint.
	dist := g.closure()
	for k := range g.edges {
		if d := dist[k.from][k.to]; d != nil && d.Stronger(g.edges[k]) {
			g.setEdge(k, *d)
		}
	}
	keys := make([]edgeKey, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		w := g.edges[k]
		g.delEdge(k)
		d := g.derive(k.from, k.to)
		for o := range g.edges {
			if k.from != k.to {
				break
			}
			// x ≤ x + c tests that x is present, as another edge at x does;
			// past that, 0 implies it whenever it holds.
			if o.from == k.from || o.to == k.from {
				d = &Weight{}
				break
			}
		}
		if d == nil || !d.Implies(w) {
			g.setEdge(k, w) // not derivable without it: keep
		}
	}
}

// derive returns the strongest constraint from→to derivable from the current
// edges, or nil.
func (g *Graph) derive(from, to int) *Weight {
	dist := g.closure()
	return dist[from][to]
}

// Union returns the weakest-common-constraint graph of a and b: it keeps
// only constraints between node pairs bounded in both graphs, each at the
// weaker of the two weights. The result is a conjunctive predicate implied
// by both inputs, i.e. it describes a stream containing everything either
// predicate selects — the basis of stream widening (the paper's §6 "widen
// data streams" extension).
func Union(a, b *Graph) *Graph {
	out := New()
	for k, wa := range a.edges {
		from, to := a.labels[k.from], a.labels[k.to]
		bi, ok1 := b.index[from]
		bj, ok2 := b.index[to]
		if !ok1 || !ok2 {
			continue
		}
		wb, ok := b.edges[edgeKey{bi, bj}]
		if !ok {
			continue
		}
		w := wa
		if wa.Stronger(wb) {
			w = wb
		}
		out.addEdge(from, to, w)
	}
	return out
}

// MatchPredicates decides the implication test of Algorithm 3. g is the
// predicate graph G of a data stream considered for sharing; other is G′ of
// the subscription to be registered. It returns true if every constraint of
// G is derivable at least as strongly in G′, i.e. the predicates of G′ imply
// those of G so the stream contains all items the new subscription needs.
//
// The paper compares stored edges one by one; this checks each edge of G
// against G′'s transitive closure instead, which is complete: a bound G′
// implies only through a path of its (minimized) edges is accepted too.
func MatchPredicates(g, other *Graph) bool {
	od := other.closure()
	for k, w := range g.edges {
		oi, ok1 := other.index[g.labels[k.from]]
		oj, ok2 := other.index[g.labels[k.to]]
		if !ok1 || !ok2 {
			return false
		}
		if k.from == k.to && (Weight{}).Implies(w) {
			continue // x ≤ x + c only tests that x is present, and other has x
		}
		if d := od[oi][oj]; d == nil || !d.Implies(w) {
			return false
		}
	}
	return true
}
