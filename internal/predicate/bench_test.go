package predicate

import "testing"

// BenchmarkMatchPredicates times the implication test on a warm closure:
// the subscription graph is built once, as a registered one is.
func BenchmarkMatchPredicates(b *testing.B) {
	g, sub := q1Graph(), q2Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !MatchPredicates(g, sub) {
			b.Fatal("match failed")
		}
	}
}

func BenchmarkSatisfiableAndMinimize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := q2Graph()
		g.AddAtom(Atom{Left: "ra", Op: Ge, Const: dec("120")}) // redundant
		if !g.Satisfiable() {
			b.Fatal("unsat")
		}
		g.Minimize()
	}
}
