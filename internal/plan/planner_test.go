package plan

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"streamshare/internal/cost"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/properties"
	"streamshare/internal/stats"
	"streamshare/internal/xmlstream"
)

// winnerSnapshot deep-copies what a returned winner and its trace show.
type winnerSnapshot struct {
	Tap     network.PeerID
	Route   []network.PeerID
	Cost    float64
	Usage   cost.Usage
	LinkAdd map[network.LinkID]float64
	PeerAdd map[network.PeerID]float64
	Rows    [][]string
}

func snapshotWinner(c *Candidate, it *obs.InputTrace) winnerSnapshot {
	s := winnerSnapshot{
		Tap: c.Tap, Route: slices.Clone(c.Route), Cost: c.Cost,
		Usage:   cost.Usage{Links: slices.Clone(c.Usage.Links), Peers: slices.Clone(c.Usage.Peers)},
		LinkAdd: maps.Clone(c.LinkAdd), PeerAdd: maps.Clone(c.PeerAdd),
	}
	for _, ct := range it.Candidates {
		s.Rows = append(s.Rows, slices.Clone(ct.Route))
	}
	return s
}

// TestPlanInputWinnerOwnsItsStorage plans two subscriptions in a row on one
// planner. Every matched stream is priced in the planner's costing scratch,
// so a winner that aliased it would show the second plan's numbers after the
// second call; the first winner and its trace rows must stay as returned.
func TestPlanInputWinnerOwnsItsStorage(t *testing.T) {
	net := lineNet(4) // A-B-C-D
	identity := func() *properties.Input {
		return &properties.Input{Stream: "photons", ItemPath: xmlstream.ParsePath("photons/photon")}
	}
	orig := &Deployed{ID: "orig:photons", Input: identity(), Tap: "A", Route: []network.PeerID{"A"},
		Size: 100, Freq: 10, Original: true}
	shared := &Deployed{ID: "s1", Input: identity(), Parent: orig, Tap: "A",
		Route: []network.PeerID{"A", "B", "C"}, Size: 100, Freq: 10}
	model := cost.DefaultModel()
	p := New(net, fakeHost{streams: []*Deployed{orig, shared}}, Options{
		Model: model,
		Est:   cost.NewEstimator(model, map[string]*stats.Stream{"photons": {Name: "photons", Freq: 10, AvgItemSize: 100}}),
	}, obs.NewObserver())
	p.Install(orig)
	p.Install(shared)

	it1 := &obs.InputTrace{}
	c1, err := p.PlanInput(nil, identity(), "D", StreamSharing, &RegStats{}, it1)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Source != shared || len(it1.Candidates) != 2 {
		t.Fatalf("first plan taps %s over %d rows, want s1 over 2", c1.Source.ID, len(it1.Candidates))
	}
	want := snapshotWinner(c1, it1)

	it2 := &obs.InputTrace{}
	c2, err := p.PlanInput(nil, identity(), "B", StreamSharing, &RegStats{}, it2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Cost == want.Cost {
		t.Fatalf("second plan (cost %g) does not differ from the first (cost %g)", c2.Cost, want.Cost)
	}
	if got := snapshotWinner(c1, it1); !reflect.DeepEqual(got, want) {
		t.Errorf("the first winner changed under the second plan:\n got %+v\nwant %+v", got, want)
	}
}
