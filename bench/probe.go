package main

import (
	"strconv"
	"time"
)

// The sandbox this benchmark runs in shares its memory system with other
// tenants. For minutes at a time a neighbour takes memory bandwidth and
// cache away: a register-only loop keeps its speed, a loop streaming
// through memory takes up to three times as long, and the data path —
// which builds, walks and discards element trees — takes 1.5 to 2.5 times
// as long. Over ten runs the median of any wall-clock timing then spreads
// by 25–50 %, whatever estimator a single run uses, because the state
// outlasts the run (README.md has the measurements).
//
// So every timed block is bracketed by a fixed probe: code in this file
// only, no call into the system under test, doing the same kind of work on
// the same kind of data. A block's time is scaled by how long the probes
// next to it took relative to probeRefMs, and the end-to-end timings are
// medians of the scaled blocks: times "at reference speed". Pairing each
// block with its own neighbours cancels both bursts and minute-long states;
// measured spreads drop from 45–55 % to 3–10 %. A change to the system
// cannot move the probe, so a real regression still shows in full.

// probeRefMs is what one probe sample takes on the quiet sandbox: timings
// are reported as if every probe took exactly this long.
const probeRefMs = 6.0

// probeNode mirrors the shape of an xmlstream.Element without being one.
type probeNode struct {
	name, text string
	kids       []*probeNode
}

// probeState is one probe thread's working set: a ring of recent items kept
// alive, as batches in flight keep theirs.
type probeState struct {
	ring [2048]*probeNode
	n    int
	x    uint64
	buf  []byte
}

func (p *probeState) rnd() uint64 {
	p.x ^= p.x << 13
	p.x ^= p.x >> 7
	p.x ^= p.x << 17
	return p.x
}

// item builds one photon-shaped tree with fresh strings.
func (p *probeState) item() *probeNode {
	leaf := func(name string, scale uint64) *probeNode {
		return &probeNode{name: name, text: strconv.FormatFloat(float64(p.rnd()%scale)/10, 'f', 1, 64)}
	}
	return &probeNode{name: "photon", kids: []*probeNode{
		{name: "coord", kids: []*probeNode{
			{name: "cel", kids: []*probeNode{leaf("ra", 3600), leaf("dec", 900)}},
			{name: "det", kids: []*probeNode{leaf("dx", 5120), leaf("dy", 5120)}},
		}},
		leaf("phc", 2550), leaf("en", 30), leaf("det_time", 1<<30),
	}}
}

func (p *probeState) marshal(n *probeNode) {
	p.buf = append(append(append(p.buf, '<'), n.name...), '>')
	p.buf = append(p.buf, n.text...)
	for _, k := range n.kids {
		p.marshal(k)
	}
	p.buf = append(append(append(p.buf, '<', '/'), n.name...), '>')
}

// run builds probeItems items, serializes each and re-reads an older item
// of the ring: allocation, pointer chasing and byte copying over a few
// megabytes.
func (p *probeState) run() {
	const probeItems = 1000
	for i := 0; i < probeItems; i++ {
		it := p.item()
		p.ring[p.n%len(p.ring)] = it
		p.n++
		p.buf = p.buf[:0]
		p.marshal(it)
		if old := p.ring[int(p.rnd()%uint64(len(p.ring)))]; old != nil {
			p.marshal(old)
		}
	}
}

// prober takes probe samples over a run and scales block timings by them.
// One sample is the probe once on one thread and then once on two threads
// at the same time — the data path runs on both cores, and a neighbour may
// slow either — and its value is the wall time of the two together.
type prober struct {
	st [2]probeState
	ms []float64
}

func newProber() *prober {
	p := &prober{}
	for i := range p.st {
		p.st[i].x = 88172645463325252 + uint64(i)
		p.st[i].run() // fill the ring
	}
	p.sample()
	return p
}

// sample takes one probe sample. Call it right before a timed block that
// follows untimed work, so that the block's leading neighbour is fresh.
func (p *prober) sample() {
	t0 := time.Now()
	p.st[0].run()
	done := make(chan struct{})
	go func() { p.st[1].run(); close(done) }()
	p.st[0].run()
	<-done
	p.ms = append(p.ms, durMs(time.Since(t0)))
}

// last is the index of the newest sample.
func (p *prober) last() int { return len(p.ms) - 1 }

// bracket names the probe samples around a timed block: the newest one when
// the block began and the newest one after it ended.
type bracket struct{ i, j int }

// close ends the block that began right after the newest sample: it takes
// the trailing sample and returns the block's bracket.
func (p *prober) close() bracket {
	i := p.last()
	p.sample()
	return bracket{i, p.last()}
}

// probeWindow is how many samples on each side of a bracket join it when
// the block is scaled. Single samples are noisy themselves (a probe can fall
// into a burst its block escaped); the median over the bracket and its
// neighbours still follows the machine's state while ignoring one stray
// sample. Over ten seeds, windows of 0, 1 and 2 gave the same spreads within
// what ten runs can tell; wider ones were worse.
const probeWindow = 1

// scale is the factor that brings a block to reference speed: probeRefMs
// over the median probe sample around the block. Call it once the phase has
// ended, when the samples that followed the block exist too.
func (p *prober) scale(b bracket) float64 {
	lo, hi := max(b.i-probeWindow, 0), min(b.j+probeWindow, p.last())
	return probeRefMs / median(p.ms[lo:hi+1])
}
