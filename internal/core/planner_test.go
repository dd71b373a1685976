package core

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/photons"
	"streamshare/internal/properties"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// computeRE strips wall-clock compute durations out of rendered traces so
// two planning runs can be compared byte-for-byte.
var computeRE = regexp.MustCompile(`\([0-9.]+[a-zµ]+ compute`)

func normalizeTrace(s string) string {
	return computeRE.ReplaceAllString(s, "(X compute")
}

// TestSubIDsMonotonic is the regression test for the subscription-ID
// collision: IDs used to be derived from len(e.subs)+1, so unsubscribing and
// subscribing again reused an ID that could still be referenced elsewhere.
// The counter is monotonic now — IDs are never recycled.
func TestSubIDsMonotonic(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	s1, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Subscribe(q2, "SP7", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Unsubscribe(s1.ID); err != nil {
		t.Fatal(err)
	}
	s3, err := eng.Subscribe(q3, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if s3.ID == s1.ID || s3.ID == s2.ID {
		t.Errorf("subscription ID %q recycled (existing: %q, %q)", s3.ID, s1.ID, s2.ID)
	}
	if got := eng.Subscription(s3.ID); got != s3 {
		t.Errorf("Subscription(%q) = %v, want the subscription just installed", s3.ID, got)
	}
	if got := eng.Subscription(s1.ID); got != nil {
		t.Errorf("Subscription(%q) = %v after unsubscribe, want nil", s1.ID, got)
	}
	// Failed attempts must not consume IDs: golden traces number rejected
	// subscriptions with the ID they would have gotten.
	if _, err := eng.Subscribe("not a query", "SP1", StreamSharing); err == nil {
		t.Fatal("expected parse error")
	}
	s4, err := eng.Subscribe(q4, "SP0", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("q%d", 4)
	if s4.ID != want {
		t.Errorf("ID after a failed attempt = %q, want %q", s4.ID, want)
	}
}

// TestConcurrentSubscribe drives Subscribe from many goroutines at once.
// Under -race it checks Engine.mu: the planner itself is serial, and
// everything it and install touch is guarded by that one lock.
func TestConcurrentSubscribe(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	queries := []string{q1, q2, q3, q4}
	targets := []network.PeerID{"SP0", "SP1", "SP2", "SP3", "SP7"}
	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.Subscribe(queries[i%len(queries)], targets[i%len(targets)], StreamSharing)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent subscribe %d: %v", i, err)
		}
	}
	subs := eng.Subscriptions()
	if len(subs) != len(errs) {
		t.Fatalf("installed %d subscriptions, want %d", len(subs), len(errs))
	}
	seen := map[string]bool{}
	for _, s := range subs {
		if seen[s.ID] {
			t.Errorf("duplicate subscription ID %q", s.ID)
		}
		seen[s.ID] = true
	}
}

// randomNet builds a connected random super-peer topology: a random spanning
// tree plus extra chords. Deterministic for a given seed.
func randomNet(rng *rand.Rand, peers int) *network.Network {
	n := network.New()
	ids := make([]network.PeerID, peers)
	for i := range ids {
		ids[i] = network.PeerID(fmt.Sprintf("SP%d", i))
		n.AddPeer(network.Peer{ID: ids[i], Super: true, Capacity: 3000, PerfIndex: 1})
	}
	bw := 12_500_000.0
	for i := 1; i < peers; i++ {
		n.Connect(ids[i], ids[rng.Intn(i)], bw)
	}
	for k := 0; k < peers/2; k++ {
		a, b := rng.Intn(peers), rng.Intn(peers)
		if a != b && n.Link(ids[a], ids[b]) == nil {
			n.Connect(ids[a], ids[b], bw)
		}
	}
	return n
}

// TestPlannerEquivalence runs identical randomized operation sequences —
// Subscribe, Unsubscribe, peer Fail/repair, Restore/migrate — against two
// engines over the same topology: one with the production planner (index and
// caches) and one from NewReferenceEngine, whose planner answers every lookup
// by brute force. Every decision must come out the same: same winners, same
// rendered traces and plans, same rejections, same final loads.
func TestPlannerEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"admission_widening", Config{Admission: true, Widening: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rngA := rand.New(rand.NewSource(seed))
				rngB := rand.New(rand.NewSource(seed))
				fast := NewEngine(randomNet(rngA, 12), tc.cfg)
				ref := NewReferenceEngine(randomNet(rngB, 12), tc.cfg)
				engines := []*Engine{fast, ref}

				_, st := photons.Stream("photons", photons.DefaultConfig(), 42, 2000)
				for _, e := range engines {
					if _, err := e.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
						t.Fatal(err)
					}
				}

				queries := []string{q1, q2, q3, q4}
				strats := []Strategy{StreamSharing, StreamSharing, StreamSharing, DataShipping, QueryShipping}
				var live [][]string // live subscription IDs, per engine
				live = append(live, nil, nil)
				failed := map[network.PeerID]bool{}

				for step := 0; step < 60; step++ {
					op := rngA.Intn(10)
					rngB.Intn(10) // keep the generators in lockstep
					switch {
					case op < 6: // subscribe
						qi, ti, si := rngA.Intn(len(queries)), rngA.Intn(12), rngA.Intn(len(strats))
						rngB.Intn(len(queries))
						rngB.Intn(12)
						rngB.Intn(len(strats))
						target := network.PeerID(fmt.Sprintf("SP%d", ti))
						var got [2]string
						for i, e := range engines {
							sub, err := e.Subscribe(queries[qi], target, strats[si])
							if err != nil {
								got[i] = "err: " + err.Error()
							} else {
								got[i] = sub.ID + "\n" + normalizeTrace(strings.Join(sub.Trace.Lines(), "\n")) + "\n" + sub.Explain()
								live[i] = append(live[i], sub.ID)
							}
						}
						if got[0] != got[1] {
							t.Fatalf("seed %d step %d: subscribe diverged\nindexed:\n%s\nreference:\n%s", seed, step, got[0], got[1])
						}
					case op < 8: // unsubscribe a random live subscription
						if len(live[0]) == 0 {
							continue
						}
						li := rngA.Intn(len(live[0]))
						rngB.Intn(len(live[0]))
						var got [2]string
						for i, e := range engines {
							id := live[i][li]
							if err := e.Unsubscribe(id); err != nil {
								got[i] = "err: " + err.Error()
							}
							live[i] = append(live[i][:li], live[i][li+1:]...)
						}
						if got[0] != got[1] {
							t.Fatalf("seed %d step %d: unsubscribe diverged: %q vs %q", seed, step, got[0], got[1])
						}
					case op < 9: // fail a random non-source peer, repair
						pi := 1 + rngA.Intn(11)
						rngB.Intn(11)
						p := network.PeerID(fmt.Sprintf("SP%d", pi))
						if failed[p] {
							continue
						}
						failed[p] = true
						var got [2]string
						for i, e := range engines {
							if err := e.Net.FailPeer(p); err != nil {
								t.Fatal(err)
							}
							e.ReleaseBroken()
							for _, sub := range e.Affected() {
								res := "repaired"
								if err := e.Replan(sub, "test repair"); err != nil {
									res = "err: " + err.Error()
									for j, id := range live[i] {
										if id == sub.ID {
											live[i] = append(live[i][:j], live[i][j+1:]...)
											break
										}
									}
								}
								got[i] += sub.ID + " " + res + "\n"
							}
						}
						if got[0] != got[1] {
							t.Fatalf("seed %d step %d: repair diverged\nindexed:\n%s\nreference:\n%s", seed, step, got[0], got[1])
						}
					default: // restore a failed peer, revive, try migrations
						if len(failed) == 0 {
							continue
						}
						ps := make([]network.PeerID, 0, len(failed))
						for p := range failed {
							ps = append(ps, p)
						}
						sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
						p := ps[rngA.Intn(len(ps))]
						rngB.Intn(len(ps))
						delete(failed, p)
						var got [2]string
						for i, e := range engines {
							if err := e.Net.RestorePeer(p); err != nil {
								t.Fatal(err)
							}
							e.ReviveRestored()
							for _, id := range append([]string(nil), live[i]...) {
								sub := e.Subscription(id)
								if sub == nil {
									continue
								}
								mig, err := e.TryMigrate(sub, 0.1, "test migrate")
								got[i] += fmt.Sprintf("%s %v %v\n", id, mig, err)
							}
						}
						if got[0] != got[1] {
							t.Fatalf("seed %d step %d: migrate diverged\nindexed:\n%s\nreference:\n%s", seed, step, got[0], got[1])
						}
					}
				}

				// Final state: identical loads on every link and peer
				// (rendered — the additions are float sums over map order,
				// identical in both engines only up to rounding).
				for _, l := range fast.Net.Links() {
					a, b := fmt.Sprintf("%.6g", fast.LinkLoad(l)), fmt.Sprintf("%.6g", ref.LinkLoad(l))
					if a != b {
						t.Errorf("seed %d: link %s load %s (indexed) vs %s (reference)", seed, l, a, b)
					}
				}
				for _, p := range fast.Net.Peers() {
					a, b := fmt.Sprintf("%.6g", fast.PeerLoad(p)), fmt.Sprintf("%.6g", ref.PeerLoad(p))
					if a != b {
						t.Errorf("seed %d: peer %s load %s (indexed) vs %s (reference)", seed, p, a, b)
					}
				}
				if len(fast.Streams()) != len(ref.Streams()) {
					t.Errorf("seed %d: %d deployed streams (indexed) vs %d (reference)", seed, len(fast.Streams()), len(ref.Streams()))
				}
			}
		})
	}
}

// TestWideningCostDeterministic plans the same widening subscription on fresh
// engines and requires the same cost to the bit and the same trace text: a
// widening candidate's usage lists start from its rewiring delta in key
// order, so the float sum in Model.Cost does not follow map iteration order.
func TestWideningCostDeterministic(t *testing.T) {
	_, st := photons.Stream("photons", photons.DefaultConfig(), 5, 2500)
	q, err := wxquery.Parse(boxB)
	if err != nil {
		t.Fatal(err)
	}
	props, err := properties.FromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var wantBits uint64
	var wantTrace string
	for run := 0; run < 50; run++ {
		eng := NewEngine(lineNet(), Config{Widening: true})
		if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SRC", st); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Subscribe(boxA, "N3", StreamSharing); err != nil {
			t.Fatal(err)
		}
		dt := &obs.DecisionTrace{SubID: "q2"}
		c, err := eng.planner.PlanInput(q, props.Inputs[0], "END", StreamSharing, &RegStats{}, dt.Input("photons"))
		if err != nil {
			t.Fatal(err)
		}
		if c.Widen == nil {
			t.Fatal("expected a widening plan")
		}
		bits, trace := math.Float64bits(c.Cost), strings.Join(dt.Lines(), "\n")
		if run == 0 {
			wantBits, wantTrace = bits, trace
		} else if bits != wantBits || trace != wantTrace {
			t.Fatalf("run %d: cost %x, want %x\n%s\nwant\n%s", run, bits, wantBits, trace, wantTrace)
		}
	}
}
