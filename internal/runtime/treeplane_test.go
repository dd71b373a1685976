package runtime

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamshare/internal/testutil"
	"streamshare/internal/transport"
)

// Tree-plane acceptance: element-tree batches, with no per-hop
// reserialize/reparse, must deliver exactly what the simulator delivers,
// under randomized scenario shapes and forced mid-stream disconnects.

// TestTreePlaneRandomizedDisconnects is the randomized equivalence
// acceptance for tree batches: random grid shapes run through the simulator
// and as a two-node reliable cluster whose connection breaks repeatedly
// mid-run, and every subscription must collect identical items at identical
// traffic and work. The breaks force the journal/replay path to handle tree
// batches (dedup slicing, journaling by pointer), not just the happy path;
// they come from a fuse in the write path, its period seeded per trial, so
// they land inside the run however briefly it streams.
func TestTreePlaneRandomizedDisconnects(t *testing.T) {
	defer testutil.Watchdog(t, 3*time.Minute)()
	rng := rand.New(rand.NewSource(0x7ee9))
	for trial := 0; trial < 3; trial++ {
		n := 2 + rng.Intn(2)
		queries := 4 + rng.Intn(5)
		items := 100 + rng.Intn(101)
		batch := 4 * (1 + rng.Intn(2))
		// Its own source, so the shapes above stay what they were before the
		// fuse existed.
		period := 5 + rand.New(rand.NewSource(0x7ee9+int64(trial))).Int63n(4)
		t.Run(fmt.Sprintf("grid%d_q%d_i%d_b%d", n, queries, items, batch), func(t *testing.T) {
			engRef, feedRef, err := clusterBuild(n, queries, items, true)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := engRef.Simulate(feedRef, true)
			if err != nil {
				t.Fatal(err)
			}

			eng0, feed0, err := clusterBuild(n, queries, items, true)
			if err != nil {
				t.Fatal(err)
			}
			eng1, feed1, err := clusterBuild(n, queries, items, true)
			if err != nil {
				t.Fatal(err)
			}
			fuse := &fuseTransport{Transport: transport.NewMem(), period: period}
			c0, c1 := clusterPair(t, eng0.Net, fuse)
			if err := c0.WaitConnected(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			opts0 := Options{Cluster: c0, Session: NewSession(SessionOptions{}), BatchSize: batch}
			opts1 := Options{Cluster: c1, Session: NewSession(SessionOptions{}), BatchSize: batch}
			rt0 := NewWith(eng0, true, opts0)
			rt1 := NewWith(eng1, true, opts1)

			res0, res1 := runPair(t, rt0, rt1, feed0, feed1)
			compareCollected(t, ref, mergeResults(res0, res1))

			recon := uint64(0)
			for _, st := range append(c0.Stats(), c1.Stats()...) {
				recon += st.Reconnects
			}
			if recon == 0 {
				t.Fatalf("no reconnects in %d writes with every %dth failing; breaks never landed mid-stream", fuse.writes.Load(), period)
			}
			skipped := eng0.Obs().Metrics.Snapshot().Counters["runtime.parse.skipped"] +
				eng1.Obs().Metrics.Snapshot().Counters["runtime.parse.skipped"]
			if skipped == 0 {
				t.Fatal("runtime.parse.skipped never moved; consumers were not handed shared trees")
			}
			t.Logf("every %dth of %d writes failed: %d reconnects, %.0f reparses skipped, identical delivery",
				period, fuse.writes.Load(), recon, skipped)
		})
	}
}
