package core

import (
	"testing"

	"streamshare/internal/network"
	"streamshare/internal/xmlstream"
)

func totalUse(e *Engine) (links, peers float64) {
	for _, l := range e.Net.Links() {
		links += e.LinkLoad(l)
	}
	for _, p := range e.Net.Peers() {
		peers += e.PeerLoad(p)
	}
	return
}

func TestUnsubscribeReleasesPlan(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	s1, err := eng.Subscribe(q1, "SP1", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	linksBefore, peersBefore := totalUse(eng)
	s2, err := eng.Subscribe(q2, "SP7", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Unsubscribe(s2.ID); err != nil {
		t.Fatal(err)
	}
	if len(eng.Subscriptions()) != 1 {
		t.Fatalf("subs = %d", len(eng.Subscriptions()))
	}
	// Q2's derived stream is gone; Q1's stream and the original remain.
	if got := len(eng.Streams()); got != 2 {
		t.Fatalf("streams = %d", got)
	}
	linksAfter, peersAfter := totalUse(eng)
	if linksAfter != linksBefore || peersAfter != peersBefore {
		t.Errorf("usage not restored: links %v→%v, peers %v→%v",
			linksBefore, linksAfter, peersBefore, peersAfter)
	}
	_ = s1
}

func TestUnsubscribeKeepsSharedParent(t *testing.T) {
	eng, items := newEngine(t, Config{})
	s1, _ := eng.Subscribe(q1, "SP1", StreamSharing)
	s2, err := eng.Subscribe(q2, "SP7", StreamSharing)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Inputs[0].Feed.Parent != s1.Inputs[0].Feed {
		t.Fatal("test premise: Q2 reuses Q1")
	}
	// Removing Q1 must keep its stream alive: Q2 still depends on it.
	if err := eng.Unsubscribe(s1.ID); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Streams()); got != 3 {
		t.Fatalf("streams = %d, want original + q1 feed + q2 feed", got)
	}
	res, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[s2.ID] == 0 {
		t.Error("Q2 should keep producing after Q1 unsubscribes")
	}
	if res.Results[s1.ID] != 0 {
		t.Error("unsubscribed Q1 must not receive results")
	}
	// Removing Q2 now tears down the whole chain.
	if err := eng.Unsubscribe(s2.ID); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Streams()); got != 1 {
		t.Fatalf("streams = %d, want only the original", got)
	}
	links, peers := totalUse(eng)
	if links != 0 || peers != 0 {
		t.Errorf("residual usage after full teardown: links %v, peers %v", links, peers)
	}
}

func TestUnsubscribeUnknown(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	if err := eng.Unsubscribe("nope"); err == nil {
		t.Error("unknown subscription should error")
	}
}

func TestUnsubscribeFreesAdmissionCapacity(t *testing.T) {
	// On a capacity-starved network the second identical data-shipping
	// query is rejected; after unsubscribing the first, it fits again.
	eng, _ := newEngine(t, Config{})
	st := eng.Est.Stats["photons"]
	rawBps := st.AvgItemSize * st.Freq
	tight := exampleNet2(rawBps * 1.5)
	eng2 := NewEngine(tight, Config{Admission: true})
	if _, err := eng2.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP4", st); err != nil {
		t.Fatal(err)
	}
	s1, err := eng2.Subscribe(q1, "SP1", DataShipping)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Subscribe(q1, "SP1", DataShipping); err == nil {
		t.Fatal("second raw copy should overload the link")
	}
	if err := eng2.Unsubscribe(s1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Subscribe(q1, "SP1", DataShipping); err != nil {
		t.Errorf("after unsubscribe the plan should fit again: %v", err)
	}
}

// exampleNet2 builds the test topology with a custom bandwidth.
func exampleNet2(bw float64) *network.Network {
	n := exampleNet()
	out := network.New()
	for _, id := range n.Peers() {
		out.AddPeer(*n.Peer(id))
	}
	for _, l := range n.Links() {
		out.Connect(l.A, l.B, bw)
	}
	return out
}
