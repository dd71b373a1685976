// Package exec implements the physical stream operators that evaluate
// WXQuery subscriptions: selection, projection, window-based aggregation
// (including the (sum, count) transport of avg values, §3.3), recomposition
// of coarse window aggregates from shared finer ones (Fig. 5), aggregate
// result filters, window-content grouping, user-defined window functions,
// and the restructuring post-processing step that materializes the return
// clause at the subscriber's super-peer (§2).
//
// Operators are push-based and take a batch: Process consumes a slice of
// input items in order and appends the output items they produce to a slice
// the caller owns; Flush drains operator state at stream end the same way.
// How a stream is cut into batches never shows in an operator's output.
// Pipelines compose operators and are installed on simulated network peers;
// Pipeline.Eval is the one loop that drives items through stages, for the
// runtime, the simulator and recovery alike.
//
// Each operator compiles the query-dependent part of its work once, at
// construction — Select a column per distinct leaf and a compare per edge,
// Project a trie of its keep paths, Restructure a template of its return
// clause — so Process interprets no query text, path list or AST per item.
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
//     pipeline on exactly one per-stream lane. A pipeline in the engine's
//     catalog is a template that is never driven: every run drives its own
//     instances (Pipeline.Instance), so concurrent runs share nothing
//     mutable.
//   - A selection group is driven by one goroutine at a time. The leading
//     Selects of sibling pipelines bound to one SelectionGroup read one
//     value table, so their pipelines form one unit of single-threadedness:
//     in the runtime the siblings run inside the parent lane's handle, one
//     after the other; the simulator and recovery each run on a single
//     goroutine.
//   - Process may retain input items (window operators buffer items across
//     calls) but never the input slice, which the caller reuses. Sharing
//     one item between several pipelines, on several goroutines, is safe
//     because items are immutable.
//   - The caller owns dst. Process and Flush only append to it and return
//     the grown slice, keep no reference to it, and are never handed a dst
//     that overlaps the input slice.
//   - Output items share subtrees with inputs. An operator allocates only
//     the nodes it adds or whose child list it changes; a projection's kept
//     subtrees, the subtrees a return clause selects, a window's items and
//     a remapped group's fields are the input's own nodes, and an operator
//     with nothing to change passes the item through. The receiver may
//     retain outputs indefinitely and, like everyone else, may not modify
//     them. Operators never touch an item again after emitting it.
package exec

import (
	"streamshare/internal/xmlstream"
)

// BatchSize is the number of items both backends cut a source stream into
// before pushing it down a plan: the runtime's default mailbox batch and the
// simulator's source batch. Batch boundaries never show in results, traffic
// or work; the size trades per-batch overhead against per-level buffering.
const BatchSize = 64

// Operator transforms a stream of XML items.
type Operator interface {
	// Process consumes items in order and appends the output items they
	// produce, zero or more each, to dst.
	Process(dst, items []*xmlstream.Element) []*xmlstream.Element
	// Flush appends any remaining buffered output to dst at end of stream.
	Flush(dst []*xmlstream.Element) []*xmlstream.Element
	// Name identifies the operator kind for load accounting and diagnostics.
	Name() string
	// instance returns an operator that shares this one's compiled parts
	// and starts with fresh evaluation state; a stateless operator is its
	// own instance.
	instance() Operator
}

// Pipeline is a sequential composition of operators. Like its operators, a
// Pipeline is single-threaded: one goroutine drives it at a time.
type Pipeline struct {
	// Ops are the stages, applied in order to every input item.
	Ops []Operator

	// bufA/bufB are ping-pong scratch buffers reused across Eval calls;
	// they hold only slice headers, the elements themselves are owned by
	// whoever receives them. one is Process's single-item batch.
	bufA, bufB []*xmlstream.Element
	one        [1]*xmlstream.Element
}

// NewPipeline composes ops; a nil or empty pipeline is the identity.
func NewPipeline(ops ...Operator) *Pipeline { return &Pipeline{Ops: ops} }

// Instance returns a pipeline over fresh instances of p's operators: the
// compiled parts (Select's checks, Project's trie, Restructure's template,
// the instrumentation's metric handles) are shared, not recompiled; state
// and scratch buffers are new. An empty pipeline is its own instance.
func (p *Pipeline) Instance() *Pipeline {
	if p == nil || len(p.Ops) == 0 {
		return p
	}
	ops := make([]Operator, len(p.Ops))
	for i, op := range p.Ops {
		ops[i] = op.instance()
	}
	return &Pipeline{Ops: ops}
}

// Eval pushes batch through the stages Ops[from:], one stage at a time: a
// stage consumes everything the one before it produced for the batch and,
// with flush set (end of stream), appends its own buffered state before the
// next stage runs, so flushed items pass through the stages downstream of
// the one that held them. loads, when not nil, holds one load-model weight
// per stage of Ops (bload(op), resolved once by whoever installed the
// pipeline); work is then the sum over the stages run of weight × items
// entering the stage, the units the paper bills per processed item.
//
// The returned slice is a scratch buffer owned by the pipeline, valid only
// until the next Eval, Process or Flush call: copy its elements (not the
// slice header) to retain results. A nil pipeline, or one with no stage
// left to run, is the identity: it returns batch itself, untouched.
func (p *Pipeline) Eval(from int, batch []*xmlstream.Element, flush bool, loads []float64) (out []*xmlstream.Element, work float64) {
	if p == nil || from >= len(p.Ops) {
		return batch, 0
	}
	in, a, b := batch, p.bufA, p.bufB
	// The scratch buffers must not keep trees alive that nobody will read
	// again: the previous call's result goes now, an intermediate result as
	// soon as the next stage has consumed it.
	clear(b)
	for i := from; i < len(p.Ops); i++ {
		if len(in) == 0 && !flush {
			break
		}
		op, dst := p.Ops[i], a[:0]
		if len(in) > 0 {
			if loads != nil {
				work += loads[i] * float64(len(in))
			}
			dst = op.Process(dst, in)
			if i > from {
				clear(in)
			}
		}
		if flush {
			dst = op.Flush(dst)
		}
		// dst becomes the next stage's input; the other buffer, whose
		// contents the stage just consumed, its output.
		in, a, b = dst, b, dst
	}
	p.bufA, p.bufB = a, b
	return in, work
}

// Process pushes one item through all stages. The returned slice follows
// Eval's scratch-buffer contract; unlike Eval, Process needs a pipeline to
// hold its one-item batch.
func (p *Pipeline) Process(item *xmlstream.Element) []*xmlstream.Element {
	p.one[0] = item
	out, _ := p.Eval(0, p.one[:], false, nil)
	return out
}

// Flush drains all stages in order, pushing flushed items through the
// remaining downstream stages. The returned slice follows Eval's
// scratch-buffer contract.
func (p *Pipeline) Flush() []*xmlstream.Element {
	out, _ := p.Eval(0, nil, true, nil)
	return out
}

// Run evaluates the pipeline over a finite item slice, including Flush.
func (p *Pipeline) Run(items []*xmlstream.Element) []*xmlstream.Element {
	out, _ := p.Eval(0, items, true, nil)
	return append([]*xmlstream.Element(nil), out...)
}

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
func (p *Project) Name() string       { return "project" }
func (p *Project) instance() Operator { return p }

// Process implements Operator.
func (p *Project) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	for _, item := range items {
		if pr := p.proj.Apply(item); pr != nil {
			dst = append(dst, pr)
		}
	}
	return dst
}

// Flush implements Operator.
func (p *Project) Flush(dst []*xmlstream.Element) []*xmlstream.Element { return dst }
