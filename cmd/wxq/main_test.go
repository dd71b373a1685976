package main

import (
	"strings"
	"testing"
)

// The paper's Queries 1 and 2 (§1) and a filtered window average.
const (
	vela = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0
  and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0
  return <vela> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/phc } { $p/en } { $p/det_time } </vela> }
</photons>`

	rxj = `<photons>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3
  and $p/coord/cel/ra >= 130.5 and $p/coord/cel/ra <= 135.5
  and $p/coord/cel/dec >= -48.0 and $p/coord/cel/dec <= -45.0
  return <rxj> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/en } { $p/det_time } </rxj> }
</photons>`

	avgEn = `<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0]
  |det_time diff 60 step 40|
  let $a := avg($w/en)
  where $a >= 1.3
  return <avg_en> { $a } </avg_en> }
</photons>`
)

// TestREADMEInvocations runs README's two invocations, `wxq query.xq` and
// `wxq stream.xq sub.xq` (both ways round), against their golden output.
func TestREADMEInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(w *strings.Builder) error
		want string
	}{
		{"explain", func(w *strings.Builder) error { return explain(w, avgEn) }, `parsed:
  <photons> { for $w in stream("photons")/photons/photon[coord/cel/ra >= 120 and coord/cel/ra <= 138] |det_time diff 60 step 40| let $a := avg($w/en) where $a >= 1.3 return <avg_en> { $a } </avg_en> } </photons>
properties:
  input stream "photons", item path photons/photon
  σ selection (minimized): #0 ≤ coord/cel/ra + -120 ∧ coord/cel/ra ≤ #0 + 138
    satisfiable: true
    atom: coord/cel/ra >= 120
    atom: coord/cel/ra <= 138
  Φ aggregation: avg(en) over window |det_time diff 60 step 40|
    result filter: #0 ≤ avg(en) + -1.3
  π projection: returned [], referenced [coord/cel/ra det_time en]
`},
		{"match", func(w *strings.Builder) error { return match(w, vela, rxj) }, `stream properties: photons/photons/photon: σ[#0 ≤ coord/cel/dec + 49 ∧ #0 ≤ coord/cel/ra + -120 ∧ coord/cel/dec ≤ #0 + -40 ∧ coord/cel/ra ≤ #0 + 138], π{coord/cel/dec,coord/cel/ra,det_time,en,phc}
subscription     : photons/photons/photon: σ[#0 ≤ coord/cel/dec + 48 ∧ #0 ≤ coord/cel/ra + -130.5 ∧ #0 ≤ en + -1.3 ∧ coord/cel/dec ≤ #0 + -45 ∧ coord/cel/ra ≤ #0 + 135.5], π{coord/cel/dec,coord/cel/ra,det_time,en}
MATCH: the stream can be shared to answer the subscription (Algorithm 2)
`},
		{"no match", func(w *strings.Builder) error { return match(w, rxj, vela) }, `stream properties: photons/photons/photon: σ[#0 ≤ coord/cel/dec + 48 ∧ #0 ≤ coord/cel/ra + -130.5 ∧ #0 ≤ en + -1.3 ∧ coord/cel/dec ≤ #0 + -45 ∧ coord/cel/ra ≤ #0 + 135.5], π{coord/cel/dec,coord/cel/ra,det_time,en}
subscription     : photons/photons/photon: σ[#0 ≤ coord/cel/dec + 49 ∧ #0 ≤ coord/cel/ra + -120 ∧ coord/cel/dec ≤ #0 + -40 ∧ coord/cel/ra ≤ #0 + 138], π{coord/cel/dec,coord/cel/ra,det_time,en,phc}
NO MATCH: subscription predicates do not imply the stream's selection [#0 ≤ coord/cel/dec + 48 ∧ #0 ≤ coord/cel/ra + -130.5 ∧ #0 ≤ en + -1.3 ∧ coord/cel/dec ≤ #0 + -45 ∧ coord/cel/ra ≤ #0 + 135.5]
`},
	} {
		var out strings.Builder
		if err := tc.run(&out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.String() != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, out.String(), tc.want)
		}
	}
	if err := explain(&strings.Builder{}, "not a query"); err == nil {
		t.Error("explain accepted a malformed query")
	}
}
