package exec

import (
	"sync"
	"sync/atomic"
)

// Operator-internal object pooling. Window operators open and close many
// short-lived accumulator structures per run; recycling them removes the
// dominant steady-state allocation of the aggregation hot path. Pooled
// objects never escape the operator that took them — what is handed to a
// caller is element trees (new nodes, or nodes shared with the immutable
// input; see the package comment), never an accumulator — so pooling is
// invisible outside this package.

var partialPool = sync.Pool{}

var execPoolHits, execPoolMisses atomic.Uint64

// getPartial returns a partialWindow with n zeroed group accumulators,
// reusing a recycled one when available. Safe for concurrent use, though
// each returned value is owned by a single operator instance.
func getPartial(n int) *partialWindow {
	if v := partialPool.Get(); v != nil {
		p := v.(*partialWindow)
		execPoolHits.Add(1)
		if cap(p.groups) < n {
			p.groups = make([]groupAcc, n)
		} else {
			p.groups = p.groups[:n]
			for i := range p.groups {
				p.groups[i].reset()
			}
		}
		return p
	}
	execPoolMisses.Add(1)
	return &partialWindow{groups: make([]groupAcc, n)}
}

// putPartial recycles a closed window's accumulators. The caller must have
// finished rendering: after the call the partialWindow and its groups are
// owned by the pool.
func putPartial(p *partialWindow) {
	partialPool.Put(p)
}

// reset clears a group accumulator for reuse, keeping the UDF value buffer's
// capacity.
func (g *groupAcc) reset() {
	vals := g.vals[:0]
	*g = groupAcc{vals: vals}
}

// PoolStats reports the cumulative operator-pool hit and miss counts of the
// process. The runtime publishes per-run deltas under runtime.pool.exec.*.
func PoolStats() (hits, misses uint64) {
	return execPoolHits.Load(), execPoolMisses.Load()
}
