// Package stats collects and models data-stream statistics: average item
// sizes, per-element occurrence and size, value ranges, stream frequency,
// and reference-element increments. The cost model (§3.2) states that its
// inputs — "average frequencies of data stream items, average sizes and
// occurrences of elements, and selectivities of operators — are obtained
// from statistics and selectivity estimations"; this package is that
// machinery.
package stats

import (
	"sort"
	"strings"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/xmlstream"
)

// Element holds statistics for one element path within a stream's items.
type Element struct {
	// Occ is the average number of occurrences of the element per item.
	Occ float64
	// AvgSize is the average serialized size in bytes of one occurrence,
	// including its tags and any descendants.
	AvgSize float64
	// Numeric reports whether every observed occurrence parsed as a decimal,
	// in which case Min and Max bound the observed values.
	Numeric  bool
	Min, Max decimal.D
	// Sorted reports whether values were non-decreasing in sample order —
	// the premise for using the element as a time-window reference (§2).
	Sorted bool
	// AvgIncrement is the average value increase between successive items
	// (only meaningful when Numeric and Sorted); it estimates how many items
	// a time-based window spans (§3.2).
	AvgIncrement float64
	// Hist refines selectivity estimation beyond the uniform [Min, Max]
	// model for skewed value distributions; nil when too few values were
	// observed.
	Hist *Histogram
}

// Histogram is an equi-width value histogram over [Lo, Hi].
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// histogramBuckets is the equi-width bucket count; histogramMaxSample caps
// the per-element values retained during collection.
const (
	histogramBuckets   = 32
	histogramMinValues = 16
	histogramMaxSample = 65536
)

func buildHistogram(values []float64, lo, hi float64) *Histogram {
	if len(values) < histogramMinValues || hi <= lo {
		return nil
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, histogramBuckets), Total: len(values)}
	width := (hi - lo) / histogramBuckets
	for _, v := range values {
		i := int((v - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= histogramBuckets {
			i = histogramBuckets - 1
		}
		h.Counts[i]++
	}
	return h
}

// Fraction estimates the fraction of values inside [lo, hi] with linear
// interpolation within partially covered buckets.
func (h *Histogram) Fraction(lo, hi float64) float64 {
	if h.Total == 0 || hi <= lo {
		return 0
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	var covered float64
	for i, c := range h.Counts {
		bLo := h.Lo + float64(i)*width
		bHi := bLo + width
		overlapLo, overlapHi := maxf(bLo, lo), minf(bHi, hi)
		if overlapHi <= overlapLo {
			continue
		}
		covered += float64(c) * (overlapHi - overlapLo) / width
	}
	f := covered / float64(h.Total)
	if f > 1 {
		f = 1
	}
	return f
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Stream holds the statistics of one data stream.
type Stream struct {
	// Name of the stream, e.g. "photons".
	Name string
	// ItemName is the element name of one stream item, e.g. "photon".
	ItemName string
	// Freq is the average arrival frequency in items per second.
	Freq float64
	// AvgItemSize is the average serialized size of one item in bytes.
	AvgItemSize float64
	// Elements maps relative element paths (e.g. "coord/cel/ra") to their
	// statistics. Interior elements are included so projection size
	// accounting can price whole subtrees.
	Elements map[string]*Element
	// SampleCount is the number of items the statistics were collected from.
	SampleCount int
}

// Collect computes statistics from a sample of stream items. freq is the
// known or configured arrival frequency in items per second.
func Collect(name, itemName string, items []*xmlstream.Element, freq float64) *Stream {
	s := &Stream{
		Name:     name,
		ItemName: itemName,
		Freq:     freq,
		Elements: map[string]*Element{},
	}
	type acc struct {
		count     int
		sizeSum   int64
		numeric   bool
		seen      bool
		min, max  decimal.D
		sorted    bool
		prev      decimal.D
		prevSet   bool
		incrSum   float64
		incrCount int
		values    []float64
	}
	accs := map[string]*acc{}
	var walk func(e *xmlstream.Element, prefix string)
	walk = func(e *xmlstream.Element, prefix string) {
		a := accs[prefix]
		if a == nil {
			a = &acc{numeric: true, sorted: true}
			accs[prefix] = a
		}
		a.count++
		a.sizeSum += int64(e.ByteSize())
		if len(e.Children) == 0 {
			d, err := decimal.Parse(strings.TrimSpace(e.Text))
			if err != nil {
				a.numeric = false
			} else if a.numeric {
				if !a.seen {
					a.min, a.max, a.seen = d, d, true
				} else {
					if d.Cmp(a.min) < 0 {
						a.min = d
					}
					if d.Cmp(a.max) > 0 {
						a.max = d
					}
				}
				if a.prevSet {
					if d.Cmp(a.prev) < 0 {
						a.sorted = false
					}
					delta, err := d.Sub(a.prev)
					if err == nil {
						a.incrSum += delta.Float()
						a.incrCount++
					}
				}
				a.prev, a.prevSet = d, true
				if len(a.values) < histogramMaxSample {
					a.values = append(a.values, d.Float())
				}
			}
		} else {
			a.numeric = false
			for _, c := range e.Children {
				p := c.Name
				if prefix != "" {
					p = prefix + "/" + c.Name
				}
				walk(c, p)
			}
		}
	}
	var sizeSum int64
	for _, it := range items {
		sizeSum += int64(it.ByteSize())
		for _, c := range it.Children {
			walk(c, c.Name)
		}
	}
	s.SampleCount = len(items)
	if len(items) > 0 {
		s.AvgItemSize = float64(sizeSum) / float64(len(items))
	}
	n := float64(len(items))
	for p, a := range accs {
		e := &Element{
			Occ:     float64(a.count) / maxf(n, 1),
			AvgSize: float64(a.sizeSum) / float64(a.count),
			Numeric: a.numeric && a.seen,
		}
		if e.Numeric {
			e.Min, e.Max = a.min, a.max
			e.Sorted = a.sorted
			if a.incrCount > 0 {
				e.AvgIncrement = a.incrSum / float64(a.incrCount)
			}
			e.Hist = buildHistogram(a.values, a.min.Float(), a.max.Float())
		}
		s.Elements[p] = e
	}
	return s
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Lookup returns the statistics for an element path, or nil.
func (s *Stream) Lookup(p xmlstream.Path) *Element {
	if s == nil {
		return nil
	}
	return s.Elements[p.String()]
}

// Paths returns all tracked element paths, sorted.
func (s *Stream) Paths() []string {
	out := make([]string, 0, len(s.Elements))
	for p := range s.Elements {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Selectivity estimates the fraction of items satisfying the conjunctive
// predicate g under a uniform-and-independent value model: for each variable
// (element path) the closure's tightest interval is intersected with the
// observed [Min, Max] range, and per-variable fractions multiply.
// Variable-vs-variable constraints contribute a fixed heuristic factor, and
// unknown or non-numeric variables contribute the default selectivity.
func (s *Stream) Selectivity(g *predicate.Graph) float64 {
	const (
		defaultSel = 0.33
		joinSel    = 0.5
	)
	if g == nil || g.Len() == 0 {
		return 1
	}
	sel := 1.0
	// Interval per variable from constant-bound edges (via the zero node).
	type iv struct {
		lo, hi   float64
		hasLo    bool
		hasHi    bool
		anyBound bool
	}
	ivs := map[string]*iv{}
	get := func(v string) *iv {
		x := ivs[v]
		if x == nil {
			x = &iv{}
			ivs[v] = x
		}
		return x
	}
	for _, e := range g.Edges() {
		switch {
		case e.To == predicate.ZeroNode && e.From != predicate.ZeroNode:
			x := get(e.From) // From ≤ C
			c := e.W.C.Float()
			if !x.hasHi || c < x.hi {
				x.hi, x.hasHi = c, true
			}
			x.anyBound = true
		case e.From == predicate.ZeroNode && e.To != predicate.ZeroNode:
			x := get(e.To) // To ≥ −C
			c := -e.W.C.Float()
			if !x.hasLo || c > x.lo {
				x.lo, x.hasLo = c, true
			}
			x.anyBound = true
		default:
			sel *= joinSel
		}
	}
	for v, x := range ivs {
		st := s.Elements[v]
		if st == nil || !st.Numeric || !x.anyBound {
			sel *= defaultSel
			continue
		}
		dmin, dmax := st.Min.Float(), st.Max.Float()
		width := dmax - dmin
		if width <= 0 {
			// Constant-valued element: inside or outside the interval.
			if (x.hasLo && dmin < x.lo) || (x.hasHi && dmin > x.hi) {
				sel *= 0
			}
			continue
		}
		lo, hi := dmin, dmax
		if x.hasLo && x.lo > lo {
			lo = x.lo
		}
		if x.hasHi && x.hi < hi {
			hi = x.hi
		}
		if hi <= lo {
			sel *= 0
			continue
		}
		if st.Hist != nil {
			// Histogram refinement for skewed distributions.
			sel *= st.Hist.Fraction(lo, hi)
			continue
		}
		f := (hi - lo) / width
		if f > 1 {
			f = 1
		}
		sel *= f
	}
	return sel
}
