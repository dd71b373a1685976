// Package exec implements the physical stream operators that evaluate
// WXQuery subscriptions: selection, projection, window-based aggregation
// (including the (sum, count) transport of avg values, §3.3), recomposition
// of coarse window aggregates from shared finer ones (Fig. 5), aggregate
// result filters, window-content grouping, user-defined window functions,
// and the restructuring post-processing step that materializes the return
// clause at the subscriber's super-peer (§2).
//
// Operators are push-based: Process consumes one input item and returns the
// output items it produces; Flush drains operator state at stream end.
// Pipelines compose operators and are installed on simulated network peers.
//
// Each operator compiles the query-dependent part of its work once, at
// construction — Select a slot per distinct predicate operand, Project a
// trie of its keep paths, Restructure a template of its return clause — so
// Process interprets no query text, path list or AST per item.
//
// Ownership and concurrency contracts (load-bearing for the batched
// runtime):
//
//   - Items are immutable. Nothing writes to an element once it has been
//     built: not the operator it is handed to, not the receiver of an
//     output. Every other rule here rests on this one.
//   - Operator and Pipeline instances are single-threaded. They hold
//     mutable evaluation state and must be driven by at most one goroutine
//     at a time; the distributed runtime guarantees this by executing each
//     pipeline on exactly one per-stream lane.
//   - Process may retain the input item (window operators buffer items
//     across calls). Sharing one item between several pipelines, on several
//     goroutines, is safe because items are immutable.
//   - Output items share subtrees with inputs. An operator allocates only
//     the nodes it adds or whose child list it changes; a projection's kept
//     subtrees, the subtrees a return clause selects, a window's items and
//     a remapped group's fields are the input's own nodes, and an operator
//     with nothing to change passes the item through. The receiver may
//     retain outputs indefinitely and, like everyone else, may not modify
//     them. Operators never touch an item again after emitting it.
//   - The slice returned by Pipeline.Process is a scratch buffer owned by
//     the pipeline, valid only until the next Process or Flush call; copy
//     the elements (not the slice header) to retain results.
package exec

import (
	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/xmlstream"
)

// Operator transforms a stream of XML items.
type Operator interface {
	// Process consumes one item and returns zero or more output items.
	Process(item *xmlstream.Element) []*xmlstream.Element
	// Flush emits any remaining buffered output at end of stream.
	Flush() []*xmlstream.Element
	// Name identifies the operator kind for load accounting and diagnostics.
	Name() string
}

// Pipeline is a sequential composition of operators. Like its operators, a
// Pipeline is single-threaded: one goroutine drives it at a time.
type Pipeline struct {
	// Ops are the stages, applied in order to every input item.
	Ops []Operator

	// bufA/bufB are ping-pong scratch buffers reused across Process calls;
	// they hold only slice headers, the elements themselves are owned by
	// whoever receives them.
	bufA, bufB []*xmlstream.Element
}

// NewPipeline composes ops; a nil or empty pipeline is the identity.
func NewPipeline(ops ...Operator) *Pipeline { return &Pipeline{Ops: ops} }

// Process pushes one item through all stages. The returned slice is a
// scratch buffer owned by the pipeline and is only valid until the next
// Process or Flush call; copy its elements out to retain them.
func (p *Pipeline) Process(item *xmlstream.Element) []*xmlstream.Element {
	return p.ProcessWith(item, nil)
}

// ProcessWith is Process with per-stage accounting: before a stage runs,
// charge (when not nil) is called with the operator and the number of items
// entering it (the load model bills bload(op) per processed item). The
// returned slice follows the same scratch-buffer contract as Process.
func (p *Pipeline) ProcessWith(item *xmlstream.Element, charge func(op Operator, items int)) []*xmlstream.Element {
	if p == nil {
		return []*xmlstream.Element{item}
	}
	items := append(p.bufA[:0], item)
	next := p.bufB[:0]
	for _, op := range p.Ops {
		if charge != nil {
			charge(op, len(items))
		}
		next = next[:0]
		for _, it := range items {
			next = append(next, op.Process(it)...)
		}
		items, next = next, items
		if len(items) == 0 {
			p.bufA, p.bufB = items, next
			return nil
		}
	}
	p.bufA, p.bufB = items, next
	return items
}

// Flush drains all stages in order, pushing flushed items through the
// remaining downstream stages.
func (p *Pipeline) Flush() []*xmlstream.Element {
	if p == nil {
		return nil
	}
	var out []*xmlstream.Element
	for i, op := range p.Ops {
		items := op.Flush()
		for _, it := range items {
			cur := []*xmlstream.Element{it}
			for _, down := range p.Ops[i+1:] {
				var next []*xmlstream.Element
				for _, c := range cur {
					next = append(next, down.Process(c)...)
				}
				cur = next
			}
			out = append(out, cur...)
		}
	}
	return out
}

// Run evaluates the pipeline over a finite item slice, including Flush.
func (p *Pipeline) Run(items []*xmlstream.Element) []*xmlstream.Element {
	var out []*xmlstream.Element
	for _, it := range items {
		out = append(out, p.Process(it)...)
	}
	return append(out, p.Flush()...)
}

// Select filters items by a conjunctive predicate graph whose node labels
// are item-relative element paths. Items missing a referenced element fail
// the predicate.
type Select struct {
	// Graph is the compiled conjunctive predicate (see package predicate).
	Graph *predicate.Graph

	// slots holds one entry per distinct node label, however many edges
	// mention it.
	slots  []selSlot
	checks []selCheck
}

// selCheck is one edge from ≤ to + C over slot indices; zeroSlot stands for
// the graph's zero node.
type selCheck struct {
	from, to int
	w        predicate.Weight
}

const zeroSlot = -1

// selSlot is the element at path and, once resolved for the item being
// matched, its value.
type selSlot struct {
	path     xmlstream.Path
	v        decimal.D
	resolved bool
	ok       bool // the element is present and numeric
}

// NewSelect compiles a selection operator from a predicate graph.
func NewSelect(g *predicate.Graph) *Select {
	s := &Select{Graph: g}
	index := map[string]int{predicate.ZeroNode: zeroSlot}
	slot := func(label string) int {
		i, ok := index[label]
		if !ok {
			i = len(s.slots)
			index[label] = i
			s.slots = append(s.slots, selSlot{path: xmlstream.ParsePath(label)})
		}
		return i
	}
	for _, e := range g.Edges() {
		s.checks = append(s.checks, selCheck{from: slot(e.From), to: slot(e.To), w: e.W})
	}
	return s
}

// Name implements Operator.
func (s *Select) Name() string { return "select" }

// value returns slot i's value for item, resolving and parsing the element
// the first time an edge asks for it: an item that fails its first edge
// pays for that edge's operands only.
func (s *Select) value(item *xmlstream.Element, i int) (decimal.D, bool) {
	if i == zeroSlot {
		return decimal.D{}, true
	}
	sl := &s.slots[i]
	if !sl.resolved {
		sl.v, sl.ok = item.Decimal(sl.path)
		sl.resolved = true
	}
	return sl.v, sl.ok
}

// Matches reports whether the item satisfies every constraint.
func (s *Select) Matches(item *xmlstream.Element) bool {
	for i := range s.slots {
		s.slots[i].resolved = false
	}
	for _, c := range s.checks {
		lhs, ok := s.value(item, c.from)
		if !ok {
			return false
		}
		rhs, ok := s.value(item, c.to)
		if !ok {
			return false
		}
		// Constraint: lhs ≤ rhs + C (strict: <).
		sum, err := rhs.Add(c.w.C)
		if err != nil {
			return false
		}
		cmp := lhs.Cmp(sum)
		if cmp > 0 || (cmp == 0 && c.w.Strict) {
			return false
		}
	}
	return true
}

// Process implements Operator.
func (s *Select) Process(item *xmlstream.Element) []*xmlstream.Element {
	if s.Matches(item) {
		return []*xmlstream.Element{item}
	}
	return nil
}

// Flush implements Operator.
func (s *Select) Flush() []*xmlstream.Element { return nil }

// Project prunes items to the subtrees addressed by Keep. Its outputs share
// the kept subtrees with the input item.
type Project struct {
	// Keep lists the item-relative paths of the subtrees to retain.
	Keep []xmlstream.Path

	proj *xmlstream.Projection
}

// NewProject returns a projection keeping the given subtrees.
func NewProject(keep []xmlstream.Path) *Project {
	return &Project{Keep: keep, proj: xmlstream.CompileProjection(keep)}
}

// Name implements Operator.
func (p *Project) Name() string { return "project" }

// Process implements Operator.
func (p *Project) Process(item *xmlstream.Element) []*xmlstream.Element {
	pr := p.proj.Apply(item)
	if pr == nil {
		return nil
	}
	return []*xmlstream.Element{pr}
}

// Flush implements Operator.
func (p *Project) Flush() []*xmlstream.Element { return nil }

// Duplicate marks a stream fan-out point. The network layer duplicates
// items when routing; the operator itself is the identity and exists so
// duplication points appear in plans and load accounting.
type Duplicate struct{}

// Name implements Operator.
func (Duplicate) Name() string { return "duplicate" }

// Process implements Operator.
func (Duplicate) Process(item *xmlstream.Element) []*xmlstream.Element {
	return []*xmlstream.Element{item}
}

// Flush implements Operator.
func (Duplicate) Flush() []*xmlstream.Element { return nil }
