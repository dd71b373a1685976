package core

import (
	"streamshare/internal/network"
	"streamshare/internal/plan"
	"streamshare/internal/xmlstream"
)

// NewReferenceEngine returns an engine whose planner answers every lookup by
// brute force (plan.Reference): the oracle TestPlannerEquivalence compares
// the production planner with, and the baseline of the *Reference benchmarks.
func NewReferenceEngine(net *network.Network, cfg Config) *Engine {
	e := NewEngine(net, cfg)
	e.planner = plan.Reference(e.planner)
	return e
}

// SimulateItemwise runs the per-item simulator walk (simulateItemwise): the
// oracle TestSimulateBatchEquivalence holds Simulate to.
func SimulateItemwise(e *Engine, items map[string][]*xmlstream.Element, collect bool) (*SimResult, error) {
	return simulateItemwise(e, items, collect)
}

// Subscription returns the installed subscription with the given id, or nil.
func (e *Engine) Subscription(id string) *Subscription {
	for _, s := range e.subs {
		if s.ID == id {
			return s
		}
	}
	return nil
}
