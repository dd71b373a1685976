package plan

import (
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/properties"
	"streamshare/internal/xmlstream"
)

func stream(id, input string, route ...network.PeerID) *Deployed {
	return &Deployed{
		ID:    id,
		Input: &properties.Input{Stream: input, ItemPath: xmlstream.ParsePath("doc/item")},
		Tap:   route[0],
		Route: route,
	}
}

func ids(ds []*Deployed) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.ID
	}
	return out
}

func wantIDs(t *testing.T, got []*Deployed, want ...string) {
	t.Helper()
	g := ids(got)
	if len(g) != len(want) {
		t.Fatalf("got %v, want %v", g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("got %v, want %v", g, want)
		}
	}
}

func TestIndexInstallOrderAndUninstall(t *testing.T) {
	x := NewIndex()
	a := stream("a", "photons", "SP0", "SP1", "SP2")
	b := stream("b", "photons", "SP1", "SP3")
	c := stream("c", "photons", "SP2", "SP1")
	ns := stream("ns", "photons", "SP1")
	ns.NotShareable = true
	other := stream("o", "weather", "SP1")
	for _, d := range []*Deployed{a, b, c, ns, other} {
		x.Install(d)
	}

	// Posting lists hold exactly the streams routed through the peer, in
	// install order; non-shareable streams are never indexed.
	wantIDs(t, x.Available("SP1", "photons"), "a", "b", "c")
	wantIDs(t, x.Available("SP2", "photons"), "a", "c")
	wantIDs(t, x.Available("SP3", "photons"), "b")
	wantIDs(t, x.Available("SP1", "weather"), "o")
	wantIDs(t, x.Available("SP9", "photons"))

	x.Uninstall(b)
	wantIDs(t, x.Available("SP1", "photons"), "a", "c")
	wantIDs(t, x.Available("SP3", "photons"))
}

func TestIndexFiltersBrokenAndHidden(t *testing.T) {
	x := NewIndex()
	a := stream("a", "photons", "SP1")
	b := stream("b", "photons", "SP1")
	c := stream("c", "photons", "SP1")
	for _, d := range []*Deployed{a, b, c} {
		x.Install(d)
	}
	// Clean lists come back unfiltered — no allocation, shared storage.
	clean := x.Available("SP1", "photons")
	wantIDs(t, clean, "a", "b", "c")

	b.Broken = true
	wantIDs(t, x.Available("SP1", "photons"), "a", "c")
	c.Hidden = true
	wantIDs(t, x.Available("SP1", "photons"), "a")
	b.Broken, c.Hidden = false, false
	wantIDs(t, x.Available("SP1", "photons"), "a", "b", "c")
}

func TestIndexRebuild(t *testing.T) {
	x := NewIndex()
	a := stream("a", "photons", "SP0", "SP1")
	b := stream("b", "photons", "SP1")
	x.Install(a)
	x.Install(b)
	// Simulate a widening rewire: b now comes first and a's route moved.
	a.Route = []network.PeerID{"SP2", "SP1"}
	x.Rebuild([]*Deployed{b, a})
	wantIDs(t, x.Available("SP1", "photons"), "b", "a")
	wantIDs(t, x.Available("SP2", "photons"), "a")
	wantIDs(t, x.Available("SP0", "photons"))
}

// fakeHost satisfies Host with static state and no reserved usage; the
// cache tests leave it empty and only exercise the planner's route plumbing.
type fakeHost struct {
	streams []*Deployed // originals first
}

func (h fakeHost) Original(name string) *Deployed {
	for _, d := range h.streams {
		if d.Original && d.Input.Stream == name {
			return d
		}
	}
	return nil
}
func (h fakeHost) Streams() []*Deployed            { return h.streams }
func (fakeHost) LinkLoad(network.LinkID) float64   { return 0 }
func (fakeHost) PeerLoad(p network.PeerID) float64 { return 0 }

func lineNet(n int) *network.Network {
	net := network.New()
	for i := 0; i < n; i++ {
		net.AddPeer(network.Peer{ID: network.PeerID(string(rune('A' + i))), Super: true, Capacity: 1000, PerfIndex: 1})
	}
	for i := 1; i < n; i++ {
		net.Connect(network.PeerID(string(rune('A'+i-1))), network.PeerID(string(rune('A'+i))), 1e6)
	}
	return net
}

func TestRouteCacheHitMissAndInvalidation(t *testing.T) {
	o := obs.NewObserver()
	net := lineNet(4)
	p := New(net, fakeHost{}, Options{}, o)
	hit := o.Metrics.Counter("plan.cache.route.hit")
	miss := o.Metrics.Counter("plan.cache.route.miss")

	r1 := p.shortestPath("A", "D")
	if r1 == nil || len(r1.IDs) != 4 {
		t.Fatalf("path A→D = %v", r1)
	}
	for i, v := range r1.IDs {
		if r1.Peers[i] != net.Peer(v) || r1.Names[i] != string(v) {
			t.Fatalf("route A→D resolves %s to %v/%q", v, r1.Peers[i], r1.Names[i])
		}
		if i > 0 && r1.Links[i-1] != net.Link(r1.IDs[i-1], v) {
			t.Fatalf("route A→D resolves link %s-%s to %v", r1.IDs[i-1], v, r1.Links[i-1])
		}
	}
	r2 := p.shortestPath("A", "D")
	if r1 != r2 {
		t.Error("second lookup should return the memoized route")
	}
	if hit.Value() != 1 || miss.Value() != 1 {
		t.Fatalf("hit=%v miss=%v, want 1/1", hit.Value(), miss.Value())
	}

	// Topology change → OnChange fires → cache cleared → next lookup misses
	// and sees the new edge.
	net.Connect("A", "D", 1e6)
	r3 := p.shortestPath("A", "D")
	if r3 == nil || len(r3.IDs) != 2 {
		t.Fatalf("path A→D after connect = %v, want direct", r3)
	}
	if r3 == r1 {
		t.Error("a topology change must drop the memoized route")
	}
	if miss.Value() != 2 {
		t.Fatalf("miss=%v after invalidation, want 2", miss.Value())
	}

	// Negative results are cached too.
	net.AddPeer(network.Peer{ID: "Z", Super: true, Capacity: 1000, PerfIndex: 1})
	if p.shortestPath("A", "Z") != nil {
		t.Fatal("expected no path to isolated peer")
	}
	before := hit.Value()
	if p.shortestPath("A", "Z") != nil {
		t.Fatal("expected no path to isolated peer")
	}
	if hit.Value() != before+1 {
		t.Error("negative result should be served from cache")
	}
}

func TestMatchCacheMemoizes(t *testing.T) {
	o := obs.NewObserver()
	p := New(lineNet(2), fakeHost{}, Options{}, o)
	have := &properties.Input{Stream: "photons", ItemPath: xmlstream.ParsePath("photons/photon")}
	want := &properties.Input{Stream: "photons", ItemPath: xmlstream.ParsePath("photons/photon")}
	hit := o.Metrics.Counter("plan.cache.match.hit")
	miss := o.Metrics.Counter("plan.cache.match.miss")

	if !p.matchInput(have, want) {
		t.Fatal("identity inputs must match")
	}
	if !p.matchInput(have, want) {
		t.Fatal("identity inputs must match")
	}
	if hit.Value() != 1 || miss.Value() != 1 {
		t.Fatalf("hit=%v miss=%v, want 1/1", hit.Value(), miss.Value())
	}
	// A distinct shape is a distinct key.
	other := &properties.Input{Stream: "photons", ItemPath: xmlstream.ParsePath("photons/burst")}
	p.matchInput(have, other)
	if miss.Value() != 2 {
		t.Fatalf("miss=%v after new shape, want 2", miss.Value())
	}
}
