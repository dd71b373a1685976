package obs

import "sync"

// defaultStallWindow is the number of consecutive lag increases that flag a
// subscription as stalled when NewStallDetector is given no window.
const defaultStallWindow = 3

// StallDetector flags subscriptions whose delivery lag grows monotonically
// across M consecutive snapshots — the signature of a sink that has stopped
// making progress while its producers keep running. Feed it one Observe per
// subscription per snapshot (the LAG command does); Stalled reports whether
// the last M deltas were all strictly positive.
type StallDetector struct {
	mu     sync.Mutex
	window int
	lags   map[string][]float64 // last window+1 observations, oldest first
}

// NewStallDetector returns a detector requiring m consecutive lag increases
// (m <= 0 means the default of 3).
func NewStallDetector(m int) *StallDetector {
	if m <= 0 {
		m = defaultStallWindow
	}
	return &StallDetector{window: m, lags: map[string][]float64{}}
}

// Observe records one lag snapshot for the subscription.
func (s *StallDetector) Observe(id string, lag float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := append(s.lags[id], lag)
	if len(l) > s.window+1 {
		l = l[len(l)-s.window-1:]
	}
	s.lags[id] = l
}

// Stalled reports whether the subscription's lag has grown strictly across
// the last M observed snapshots (and at least M+1 snapshots exist).
func (s *StallDetector) Stalled(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stalled(s.lags[id], s.window)
}

func stalled(l []float64, window int) bool {
	if len(l) < window+1 {
		return false
	}
	for i := len(l) - window; i < len(l); i++ {
		if l[i] <= l[i-1] {
			return false
		}
	}
	return true
}

// Forget drops the subscription's history (after unsubscribe or recovery).
func (s *StallDetector) Forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.lags, id)
}
