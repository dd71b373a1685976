//go:build !race

package testutil

// Race reports whether the test binary was built with the race detector,
// which adds allocations of its own: allocation budgets skip under it.
const Race = false
