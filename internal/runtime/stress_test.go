package runtime

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/scenario"
	"streamshare/internal/testutil"
	"streamshare/internal/xmlstream"
)

// gridBuild registers a ScaleGrid scenario on a fresh engine. Twin builds
// are byte-identical, so separate engines can execute the same plans.
func gridBuild(t *testing.T, n, queries, items int) (*core.Engine, map[string][]*xmlstream.Element) {
	t.Helper()
	s := scenario.ScaleGrid(n, queries, items)
	eng := core.NewEngine(s.Net, core.Config{})
	for _, src := range s.Sources {
		if _, err := eng.RegisterStream(src.Name, xmlstream.ParsePath("photons/photon"), src.At, src.Stats); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range s.Queries {
		if _, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing); err != nil {
			t.Fatal(err)
		}
	}
	feed := map[string][]*xmlstream.Element{}
	for _, src := range s.Sources {
		feed[src.Name] = src.Items
	}
	return eng, feed
}

// TestOptionsEquivalence runs the same grid plans serially (one item per
// message, one worker per peer), under DefaultOptions (batched, parallel)
// and at the smallest and a very large batch size, and holds all to the
// simulator: identical results, collected items, traffic and work. The
// data-path options are performance knobs, never semantics knobs. Each run
// is made twice, keeping its results and only counting them, and the
// simulator too: a run that counts delivers and meters what one that keeps
// them does.
func TestOptionsEquivalence(t *testing.T) {
	engRef, feedRef := gridBuild(t, 3, 12, 200)
	ref, err := engRef.Simulate(feedRef, true)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := engRef.Simulate(feedRef, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counted.Results, ref.Results) || !reflect.DeepEqual(counted.Metrics, ref.Metrics) {
		t.Fatalf("a counting Simulate delivers %v and meters %v; a collecting one %v and %v",
			counted.Results, counted.Metrics, ref.Results, ref.Metrics)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{BatchSize: 1, Workers: 1}},
		{"default", DefaultOptions()},
		// The stage loop at both ends: a batch of one item per stage call,
		// and batches longer than the whole 200-item feed.
		{"batch-1", Options{BatchSize: 1}},
		{"batch-256", Options{BatchSize: 256}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, feed := gridBuild(t, 3, 12, 200)
			got, err := NewWith(eng, true, tc.opts).Run(feed)
			if err != nil {
				t.Fatal(err)
			}
			compareInOrder(t, tc.name, ref, got)
			if got, err = NewWith(eng, false, tc.opts).Run(feed); err != nil {
				t.Fatal(err)
			}
			chaosCompare(t, tc.name+", counted", ref, got)
			for p, w := range ref.Metrics.PeerWork {
				if d := got.Metrics.PeerWork[p] - w; math.Abs(d) > 1e-9*w {
					t.Errorf("%s, counted: %s charged %v, the simulator %v", tc.name, p, got.Metrics.PeerWork[p], w)
				}
			}
		})
	}
}

// TestStressChurnRaceClean floods a 4×4 peer grid with two dozen
// subscriptions while peers are killed and links severed mid-run, with
// introspection calls racing the worker pools. Fault timing is
// nondeterministic, so it asserts only timing-independent invariants — the
// run terminates cleanly and no subscription goes unaccounted — and exists
// chiefly to run under -race: any locking mistake in the batched,
// multi-worker data path shows up here.
func TestStressChurnRaceClean(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	eng, feed := gridBuild(t, 4, 24, 200)
	r := NewWith(eng, false, Options{BatchSize: 4, Workers: 4})

	done := make(chan error, 1)
	go func() {
		res, err := r.Run(feed)
		if err == nil && res == nil {
			err = errNilResult
		}
		done <- err
	}()

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(2)
	go func() { // churn: kill peers and sever links while the run flies
		defer chaos.Done()
		schedule := []func() error{
			func() error { return r.SeverLink("SP1", "SP2") },
			func() error { return r.KillPeer("SP10") },
			func() error { return r.SeverLink("SP8", "SP12") },
			func() error { return r.KillPeer("SP15") },
			func() error { return r.SeverLink("SP5", "SP6") },
		}
		for _, ev := range schedule {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
			}
			if err := ev(); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { // introspection racing the workers
		defer chaos.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.MailboxHWM()
			_ = r.Dropped()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not terminate under churn")
	}
	close(stop)
	chaos.Wait()
	if d := r.Dropped(); d < 0 {
		t.Fatalf("negative drop count %d", d)
	}
}

var errNilResult = &nilResultError{}

type nilResultError struct{}

func (*nilResultError) Error() string { return "Run returned nil result without error" }
