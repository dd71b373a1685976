package core

import (
	"streamshare/internal/network"
	"streamshare/internal/plan"
)

// NewReferenceEngine returns an engine whose planner answers every lookup by
// brute force (plan.Reference): the oracle TestPlannerEquivalence compares
// the production planner with, and the baseline of the *Reference benchmarks.
func NewReferenceEngine(net *network.Network, cfg Config) *Engine {
	e := NewEngine(net, cfg)
	e.planner = plan.Reference(e.planner)
	return e
}
