package exec

import (
	"testing"

	"streamshare/internal/properties"
	"streamshare/internal/workload"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

// TestRandomSharingEquivalence is the system-level correctness property:
// for every ordered pair (a, b) of generated queries where Algorithm 2
// declares a's result stream reusable for b, evaluating b over a's shared
// canonical stream must equal evaluating b directly over the raw input,
// item for item, trailing windows included. Each (generator, item) seed pair
// draws its own 30 queries and 700 photons.
func TestRandomSharingEquivalence(t *testing.T) {
	seeds := [][2]int64{{31, 17}, {1, 2}, {5, 21}, {7, 77}, {13, 3}, {42, 9}, {99, 100}, {2024, 11}}
	for _, seed := range seeds {
		sharingEquivalence(t, seed[0], seed[1])
	}
}

func sharingEquivalence(t *testing.T, genSeed, itemSeed int64) {
	gen := workload.NewGenerator("photons", workload.DefaultSets(), genSeed)
	queries := gen.Generate(30)
	items := randomPhotons(700, itemSeed)

	type built struct {
		src    string
		props  *properties.Properties
		direct []*xmlstream.Element
	}
	var qs []built
	for _, src := range queries {
		p, err := properties.FromQuery(wxquery.MustParse(src))
		if err != nil {
			t.Fatalf("seeds (%d, %d): %v\n%s", genSeed, itemSeed, err, src)
		}
		qs = append(qs, built{src: src, props: p, direct: runFull(t, src, items)})
	}

	pairs, mismatches := 0, 0
	for i := range qs {
		for j := range qs {
			if i == j {
				continue
			}
			a, b := &qs[i], &qs[j]
			ain, _ := a.props.Result().SingleInput()
			bin, _ := b.props.SingleInput()
			if !properties.MatchInput(ain, bin) {
				continue
			}
			pairs++
			via := shared(t, a.src, b.src, items)
			if len(via) != len(b.direct) {
				t.Errorf("seeds (%d, %d) pair (%d→%d): direct %d items, shared %d\nstream: %s\nsub: %s",
					genSeed, itemSeed, i, j, len(b.direct), len(via), a.src, b.src)
				mismatches++
				continue
			}
			for k := range via {
				if !b.direct[k].Equal(via[k]) {
					t.Errorf("seeds (%d, %d) pair (%d→%d) item %d differs:\n%s\n%s",
						genSeed, itemSeed, i, j, k, xmlstream.Marshal(b.direct[k]), xmlstream.Marshal(via[k]))
					mismatches++
					break
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatalf("seeds (%d, %d): workload produced no shareable pairs; property not exercised", genSeed, itemSeed)
	}
	t.Logf("seeds (%d, %d): verified %d shareable pairs (%d mismatches)", genSeed, itemSeed, pairs, mismatches)
}

// TestSharingThroughClosure evaluates, over hand-picked photons, two pairs
// that match only on the closure of their minimized selections, shared
// against direct. In the first the subscription implies the stream's en ≥ 3
// through phc ≥ 2 ∧ phc < en − 1, so its own filter stays as the residual.
// The second is one equality cycle written two ways: the reused stream's
// selection implies the subscription's, so residualSelection drops it.
func TestSharingThroughClosure(t *testing.T) {
	src := func(sel string) string {
		return `<r>{ for $p in stream("photons")/photons/photon where ` + sel +
			` return <o>{ $p/phc }{ $p/en }{ $p/det_time }</o> }</r>`
	}
	items := []*xmlstream.Element{
		photon("130.0", "-45.0", "2", "4", "2"),     // first pair: both pass
		photon("130.0", "-45.0", "2.8", "3.5", "3"), // first pair: stream only (phc ≥ en − 1)
		photon("130.0", "-45.0", "1", "5", "4"),     // first pair: stream only (phc < 2)
		photon("130.0", "-45.0", "0", "2", "5"),     // neither passes
		photon("130.0", "-45.0", "6", "6", "6"),     // second pair: both pass
		photon("130.0", "-45.0", "7", "7", "8"),     // second pair: neither passes
	}
	for _, c := range []struct {
		stream, sub string
		residual    bool
	}{
		{"$p/en >= 3 and $p/phc < $p/en - 0.5", "$p/en >= 3 and $p/phc < $p/en - 1 and $p/phc >= 2", true},
		{"$p/phc = $p/en and $p/en = $p/det_time", "$p/phc = $p/det_time and $p/det_time = $p/en", false},
	} {
		direct := runFull(t, src(c.sub), items)
		via := shared(t, src(c.stream), src(c.sub), items)
		if len(direct) == 0 || len(via) != len(direct) {
			t.Fatalf("%s over %s: direct %d items, shared %d", c.sub, c.stream, len(direct), len(via))
		}
		sameItems(t, c.sub, direct, via)
		_, sp := mustProps(t, src(c.stream))
		_, subp := mustProps(t, src(c.sub))
		reused, _ := sp.Result().SingleInput()
		sub, _ := subp.SingleInput()
		if got := residualSelection(reused, sub) != nil; got != c.residual {
			t.Errorf("%s over %s: residual selection kept = %v, want %v", c.sub, c.stream, got, c.residual)
		}
	}
}
