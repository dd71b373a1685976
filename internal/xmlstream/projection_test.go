package xmlstream

import (
	"math/rand"
	"testing"

	"streamshare/internal/testutil"
)

// Prune is the projection this package shipped before Projection: it
// re-filters the path list per child and deep-copies what it keeps. It
// stays here as the reference Projection.Apply is compared with.
func (e *Element) Prune(paths []Path) *Element {
	if e == nil {
		return nil
	}
	keepSelf := false
	for _, p := range paths {
		if len(p) == 0 {
			keepSelf = true
			break
		}
	}
	if keepSelf {
		return e.Clone()
	}
	out := &Element{Name: e.Name, Text: e.Text}
	for _, c := range e.Children {
		var sub []Path
		for _, p := range paths {
			if len(p) > 0 && p[0] == c.Name {
				sub = append(sub, p[1:])
			}
		}
		if len(sub) == 0 {
			continue
		}
		if pc := c.Prune(sub); pc != nil {
			out.Children = append(out.Children, pc)
		}
	}
	if len(out.Children) == 0 {
		return nil
	}
	out.Text = ""
	return out
}

func TestProjectionShares(t *testing.T) {
	p := photon("130.7", "-46.2", "11", "12", "77", "1.5", "100")
	var s Slab
	pr := CompileProjection([]Path{ParsePath("coord/cel"), ParsePath("en")}).Apply(&s, p)
	if pr == p || pr.Child("coord") == p.Child("coord") {
		t.Error("a node that lost children must be a new node")
	}
	if pr.First(ParsePath("coord/cel")) != p.First(ParsePath("coord/cel")) || pr.Child("en") != p.Child("en") {
		t.Error("kept subtrees are shared, not copied")
	}
	if len(pr.Children) != cap(pr.Children) {
		t.Errorf("child slice len %d cap %d, want exact", len(pr.Children), cap(pr.Children))
	}
	// Every child survives unchanged: the element itself is the result.
	all := CompileProjection([]Path{ParsePath("coord/cel/ra"), ParsePath("coord/cel/dec")}).Apply(&s, p)
	if all.First(ParsePath("coord/cel")) != p.First(ParsePath("coord/cel")) {
		t.Error("cel keeps both children and should be returned as is")
	}
	if CompileProjection([]Path{nil}).Apply(&s, p) != p {
		t.Error("the empty path keeps the item itself")
	}
}

// randTree draws a tree over a three-name alphabet, so sibling names repeat
// and paths hit interior nodes, leaves and nothing. Some interior nodes
// carry text, which only the API can build and projection must drop.
func randTree(r *rand.Rand, depth int) *Element {
	name := string(rune('a' + r.Intn(3)))
	if depth >= 4 || r.Intn(3) == 0 {
		return T(name, string(rune('0'+r.Intn(10))))
	}
	kids := make([]*Element, r.Intn(5))
	for i := range kids {
		kids[i] = randTree(r, depth+1)
	}
	e := E(name, kids...)
	if r.Intn(8) == 0 {
		e.Text = "mixed"
	}
	return e
}

// randPaths draws up to five paths of length 0–4 over the same alphabet:
// the empty path, duplicates, prefixes of one another and paths longer than
// the tree is deep all occur.
func randPaths(r *rand.Rand) []Path {
	ps := make([]Path, r.Intn(6))
	for i := range ps {
		if i > 0 && r.Intn(4) == 0 {
			// Extend or repeat an earlier path.
			ps[i] = append(Path(nil), ps[r.Intn(i)]...)
			if r.Intn(2) == 0 {
				ps[i] = append(ps[i], string(rune('a'+r.Intn(3))))
			}
			continue
		}
		n := r.Intn(5)
		if r.Intn(10) > 0 && n == 0 {
			n = 1 // the empty path keeps everything; keep it rare
		}
		for j := 0; j < n; j++ {
			ps[i] = append(ps[i], string(rune('a'+r.Intn(3))))
		}
	}
	return ps
}

// FuzzProjection compares Projection.Apply with the reference Prune on
// random trees and path sets, and checks Apply leaves its input untouched.
// A second pass applies a batch of trees into one slab, sized below and
// above what they take, and re-checks every earlier output after each
// Apply: nodes and child slices handed out of a shared slab must not
// change when later ones are.
func FuzzProjection(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, seed*7919+1)
	}
	f.Fuzz(func(t *testing.T, treeSeed, pathSeed int64) {
		tr := rand.New(rand.NewSource(treeSeed))
		tree := randTree(tr, 0)
		paths := randPaths(rand.New(rand.NewSource(pathSeed)))
		pr := CompileProjection(paths)
		before := tree.Clone()
		want := tree.Prune(paths)
		var heap Slab
		got := pr.Apply(&heap, tree)
		if !got.Equal(want) {
			t.Fatalf("paths %v over %s:\n got  %s\n want %s", paths, Marshal(tree), Marshal(got), Marshal(want))
		}
		if got.ByteSize() != want.ByteSize() {
			t.Fatalf("ByteSize %d, want %d", got.ByteSize(), want.ByteSize())
		}
		if !tree.Equal(before) {
			t.Fatalf("Apply changed its input:\n before %s\n after  %s", Marshal(before), Marshal(tree))
		}

		trees := []*Element{tree}
		for n := tr.Intn(8); n > 0; n-- {
			trees = append(trees, randTree(tr, 0))
		}
		nodes, kids := pr.Bound()
		scale := tr.Intn(len(trees) + 1)
		s := NewSlab(scale*nodes, scale*kids, 0)
		var outs, wants []*Element
		for _, in := range trees {
			outs, wants = append(outs, pr.Apply(&s, in)), append(wants, in.Prune(paths))
			for i := range outs {
				if !outs[i].Equal(wants[i]) {
					t.Fatalf("shared slab, output %d of %d: paths %v over %s:\n got  %s\n want %s",
						i, len(outs), paths, Marshal(trees[i]), Marshal(outs[i]), Marshal(wants[i]))
				}
				if out := outs[i]; out != nil && len(out.Children) != cap(out.Children) {
					t.Fatalf("shared slab, output %d: child slice len %d cap %d", i, len(out.Children), cap(out.Children))
				}
			}
		}
	})
}

// TestAllocBudgetProjection pins what a projection allocates per photon of a
// 64-photon batch applied into one slab sized by the projection's bound: the
// slab's node and child arrays, once per batch. The new photon and coord
// nodes and their child slices come from them; cel keeps both children and
// is shared, as are the kept leaves.
func TestAllocBudgetProjection(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	items, _ := photonDoc(t, 64)
	pr := CompileProjection([]Path{
		ParsePath("coord/cel/ra"), ParsePath("coord/cel/dec"),
		ParsePath("phc"), ParsePath("en"), ParsePath("det_time"),
	})
	nodes, kids := pr.Bound()
	got := testing.AllocsPerRun(200, func() {
		s := NewSlab(len(items)*nodes, len(items)*kids, 0)
		for _, p := range items {
			pr.Apply(&s, p)
		}
	}) / float64(len(items))
	t.Logf("Apply into a batch slab: %.3f allocations per photon", got)
	const budget = 0.038 // measured 0.031 (2 per batch), +20 %; 4 per photon on the heap
	if got > budget {
		t.Errorf("Apply allocates %.3f objects per photon, budget %.3f", got, budget)
	}
}
