// Package cost implements the paper's cost model (§3.2): derived stream
// size and frequency estimation, operator load modeling
// load(o,v,P_o) = bload(o)·pindex(v)·freq(s), relative bandwidth and load
// usage u_b(e) and u_l(v), and the cost function C with its γ weighting and
// exponential overload penalty.
package cost

import (
	"math"
	"slices"
	"strings"

	"streamshare/internal/network"
	"streamshare/internal/predicate"
	"streamshare/internal/properties"
	"streamshare/internal/stats"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// Operator names used for base-load lookup; they match exec.Operator.Name.
const (
	OpSelect         = "select"
	OpProject        = "project"
	OpWindowAgg      = "window-agg"
	OpWindowMerge    = "window-merge"
	OpWindowContents = "window-contents"
	OpAggFilter      = "agg-filter"
	OpRemap          = "remap"
	OpRestructure    = "restructure"
	OpDuplicate      = "duplicate"
	OpSortBuffer     = "sort-buffer"
)

// Model holds the tunable constants of the cost function.
type Model struct {
	// Gamma is γ ∈ [0,1]: the weight of network traffic versus peer load.
	Gamma float64
	// BLoad maps operator names to base load factors bload(o), in work units
	// per processed item.
	BLoad map[string]float64
	// ForwardPerByte is the work spent per byte when a peer forwards stream
	// items it does not process.
	ForwardPerByte float64
	// DefaultSelectivity estimates predicates with no usable statistics.
	DefaultSelectivity float64
}

// DefaultModel returns the constants used throughout the evaluation. The
// base-load factors are the "reference values" the paper says must be
// determined empirically (§3.2).
func DefaultModel() Model {
	return Model{
		Gamma: 0.5,
		BLoad: map[string]float64{
			OpSelect:         1.0,
			OpProject:        0.8,
			OpWindowAgg:      1.5,
			OpWindowMerge:    0.8,
			OpWindowContents: 1.2,
			OpAggFilter:      0.3,
			OpRemap:          0.3,
			OpRestructure:    1.0,
			OpDuplicate:      0.2,
			OpSortBuffer:     0.4,
		},
		ForwardPerByte:     0.004,
		DefaultSelectivity: 0.33,
	}
}

// OpLoad returns the average load an operator causes on peer v:
// bload(o)·pindex(v)·freq(s), in work units per second.
func (m Model) OpLoad(op string, v *network.Peer, inFreq float64) float64 {
	return m.BLoad[op] * v.PerfIndex * inFreq
}

// ForwardLoad returns the load of forwarding a stream through peer v.
func (m Model) ForwardLoad(v *network.Peer, freq, size float64) float64 {
	return m.ForwardPerByte * v.PerfIndex * freq * size
}

// LinkUsage describes one network connection affected by a plan: the
// relative bandwidth u_b(e) the plan's additional streams would use and the
// relative bandwidth a_b(e) still available.
type LinkUsage struct {
	ID     network.LinkID
	Ub, Ab float64
}

// PeerUsage describes one peer affected by a plan: relative load u_l(v) of
// the additional operators and available relative load a_l(v).
type PeerUsage struct {
	ID     network.PeerID
	Ul, Al float64
}

// Usage aggregates the links E_P and peers V_P affected by an evaluation
// plan P.
type Usage struct {
	Links []LinkUsage
	Peers []PeerUsage
}

// Cost evaluates the cost function C(P) (§3.2): relative usages plus an
// exponential penalty for overload situations.
func (m Model) Cost(u Usage) float64 {
	var lb, lv float64
	for _, e := range u.Links {
		lb += e.Ub + penalty(e.Ub, e.Ab)
	}
	for _, p := range u.Peers {
		lv += p.Ul + penalty(p.Ul, p.Al)
	}
	return m.Gamma*lb + (1-m.Gamma)*lv
}

// Breakdown splits the cost function C(P) into its weighted terms: the
// traffic term γ·Σ u_b(e), the load term (1−γ)·Σ u_l(v), and the weighted
// exponential overload penalties. Total differs from Cost only by
// floating-point association; the decision tracer records breakdowns so
// EXPLAIN/TRACE can show why a plan won.
type Breakdown struct {
	Traffic, Load, Penalty, Total float64
}

// Breakdown evaluates C(P) term by term.
func (m Model) Breakdown(u Usage) Breakdown {
	var b Breakdown
	var penB, penL float64
	for _, e := range u.Links {
		b.Traffic += e.Ub
		penB += penalty(e.Ub, e.Ab)
	}
	for _, p := range u.Peers {
		b.Load += p.Ul
		penL += penalty(p.Ul, p.Al)
	}
	b.Traffic *= m.Gamma
	b.Load *= 1 - m.Gamma
	b.Penalty = m.Gamma*penB + (1-m.Gamma)*penL
	b.Total = b.Traffic + b.Load + b.Penalty
	return b
}

// Overloaded reports whether any link or peer would exceed its available
// capacity; the rejection experiment of §4 refuses plans for which every
// alternative is overloaded.
func (u Usage) Overloaded() bool {
	return slices.ContainsFunc(u.Links, func(e LinkUsage) bool { return e.Ub > e.Ab }) ||
		slices.ContainsFunc(u.Peers, func(p PeerUsage) bool { return p.Ul > p.Al })
}

func penalty(use, avail float64) float64 {
	over := use - avail
	if over <= 0 {
		return 0
	}
	return over * math.Exp(over)
}

// Estimator derives size(p) and freq(p) of transformed streams from the
// statistics of their original input streams.
type Estimator struct {
	Model
	// Stats maps original stream names to their collected statistics.
	Stats map[string]*stats.Stream
}

// NewEstimator returns an estimator over the given statistics.
func NewEstimator(m Model, st map[string]*stats.Stream) *Estimator {
	return &Estimator{Model: m, Stats: st}
}

// aggItemSize estimates the serialized size of one aggregate item: the
// <agg> wrapper with win/wm fields plus one group per aggregation.
func aggItemSize(groups int) float64 {
	const wrapper = len("<agg><win>12345.678</win><wm>12345.678</wm></agg>")
	const perGroup = len("<g0><n>1234</n><sum>12345.67</sum></g0>")
	return float64(wrapper + groups*perGroup)
}

// SizeFreq estimates the average item size (bytes) and frequency (items per
// second) of the canonical stream described by one properties input,
// following §3.2:
//
//   - selections scale frequency by their selectivity,
//   - projections reduce item size by the occurrences×sizes of the dropped
//     subtrees,
//   - aggregate streams have a size independent of the input item size,
//     with frequency freq(s)/µ for item-based windows and
//     freq(s)·increment/µ for time-based windows,
//   - window-content streams multiply the average window population by the
//     item size.
func (e *Estimator) SizeFreq(in *properties.Input) (size, freq float64) {
	st := e.Stats[in.Stream]
	if st == nil {
		return 0, 0
	}
	size, freq = st.AvgItemSize, st.Freq
	sel := 1.0
	if g := in.Selection(); g != nil {
		sel = st.Selectivity(g)
		freq *= sel
	}

	specs := aggSpecs(in)
	win, hasWin := in.Window()
	switch {
	case len(specs) > 0:
		size = aggItemSize(len(specs))
		freq = e.windowFreq(st, win, sel)
		for _, sp := range specs {
			if sp.filter != nil {
				freq *= e.filterSelectivity(st, sp)
			}
		}
	case hasWin:
		perWindow := e.windowPopulation(st, win, sel)
		size = perWindow*size + 60 // window wrapper and win/wm fields
		freq = e.windowFreq(st, win, sel)
	default:
		if p := in.Find(properties.OpProject); p != nil && p.Out != nil {
			size -= e.droppedSize(st, p.Out)
			if size < 16 {
				size = 16
			}
		}
	}
	if freq < 0 {
		freq = 0
	}
	return size, freq
}

// windowFreq is the result frequency of a window operator (§3.2).
func (e *Estimator) windowFreq(st *stats.Stream, w wxquery.Window, sel float64) float64 {
	if w.Kind == wxquery.WindowCount {
		// One window per µ (post-selection) items.
		return st.Freq * sel / w.Step.Float()
	}
	// Time-based: one window per µ reference units; the average reference
	// increment per input item converts units to items.
	es := st.Lookup(w.Ref)
	if es == nil || es.AvgIncrement <= 0 {
		return st.Freq * sel * e.DefaultSelectivity
	}
	return st.Freq * es.AvgIncrement / w.Step.Float()
}

// windowPopulation estimates the average number of items per window.
func (e *Estimator) windowPopulation(st *stats.Stream, w wxquery.Window, sel float64) float64 {
	if w.Kind == wxquery.WindowCount {
		return w.Size.Float()
	}
	es := st.Lookup(w.Ref)
	if es == nil || es.AvgIncrement <= 0 {
		return 1
	}
	return w.Size.Float() / es.AvgIncrement * sel
}

// droppedSize sums occ(ns)·size(ns) over the maximal subtrees a projection
// removes (§3.2's size(p) formula).
func (e *Estimator) droppedSize(st *stats.Stream, out []xmlstream.Path) float64 {
	covered := func(p string) bool {
		pp := xmlstream.ParsePath(p)
		for _, o := range out {
			if pp.HasPrefix(o) || o.HasPrefix(pp) {
				return true
			}
		}
		return false
	}
	var dropped float64
	for _, p := range st.Paths() {
		if covered(p) {
			continue
		}
		// Only count maximal dropped subtrees: skip if the parent is
		// already dropped.
		if i := strings.LastIndexByte(p, '/'); i >= 0 && !covered(p[:i]) {
			continue
		}
		es := st.Elements[p]
		dropped += es.Occ * es.AvgSize
	}
	return dropped
}

// filterSelectivity estimates the fraction of aggregate values passing a
// having-filter, using the aggregated element's value range as a proxy for
// avg/min/max distributions.
func (e *Estimator) filterSelectivity(st *stats.Stream, sp aggSpec) float64 {
	if sp.op == wxquery.AggAvg || sp.op == wxquery.AggMin || sp.op == wxquery.AggMax {
		// Rewrite the filter onto the element's path so the range model
		// applies.
		g := predicate.New()
		for _, a := range sp.filter.Atoms() {
			a.Left = sp.elem.String()
			if a.RightVar != "" {
				a.RightVar = sp.elem.String()
			}
			g.AddAtom(a)
		}
		return st.Selectivity(g)
	}
	return e.DefaultSelectivity
}

type aggSpec struct {
	op     wxquery.AggOp
	elem   xmlstream.Path
	filter *predicate.Graph
}

func aggSpecs(in *properties.Input) []aggSpec {
	var out []aggSpec
	for _, o := range in.Ops {
		switch o.Kind {
		case properties.OpAggregate:
			out = append(out, aggSpec{op: o.Agg.Op, elem: o.Agg.Elem, filter: o.Agg.Filter})
		case properties.OpUDF:
			out = append(out, aggSpec{elem: o.UDF.Elem})
		}
	}
	return out
}

// InputFreq estimates the frequency of the stream entering the *operators*
// of in after its selection (used for operator-load estimation of window
// and projection stages).
func (e *Estimator) InputFreq(in *properties.Input) float64 {
	st := e.Stats[in.Stream]
	if st == nil {
		return 0
	}
	f := st.Freq
	if g := in.Selection(); g != nil {
		f *= st.Selectivity(g)
	}
	return f
}
