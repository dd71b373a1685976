package xmlstream

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

// photon builds a stream item matching the paper's photon DTD.
func photon(ra, dec, dx, dy, phc, en, det string) *Element {
	return E("photon",
		E("coord",
			E("cel", T("ra", ra), T("dec", dec)),
			E("det", T("dx", dx), T("dy", dy)),
		),
		T("phc", phc),
		T("en", en),
		T("det_time", det),
	)
}

func TestFindFirst(t *testing.T) {
	p := photon("130.7", "-46.2", "11", "12", "77", "1.5", "100")
	if got := p.First(ParsePath("coord/cel/ra")).Value(); got != "130.7" {
		t.Errorf("ra = %q", got)
	}
	if got := p.First(ParsePath("en")).Value(); got != "1.5" {
		t.Errorf("en = %q", got)
	}
	if p.First(ParsePath("coord/cel/nothere")) != nil {
		t.Error("missing path should yield nil")
	}
	if n := len(p.AppendFind(nil, ParsePath("coord"))); n != 1 {
		t.Errorf("AppendFind(coord) returned %d nodes", n)
	}
	multi := E("r", T("a", "1"), T("a", "2"), E("b", T("a", "3")))
	if n := len(multi.AppendFind(nil, ParsePath("a"))); n != 2 {
		t.Errorf("AppendFind(a) = %d matches, want 2 (child axis only)", n)
	}
}

func TestDecimal(t *testing.T) {
	p := photon("130.7", "-46.2", "11", "12", "77", "1.5", "100")
	d, ok := p.Decimal(ParsePath("coord/cel/dec"))
	if !ok || d.String() != "-46.2" {
		t.Errorf("Decimal(dec) = %v %v", d, ok)
	}
	if _, ok := p.Decimal(ParsePath("coord")); ok {
		t.Error("interior node text should not parse as decimal")
	}
	if _, ok := p.Decimal(ParsePath("nope")); ok {
		t.Error("missing path should not parse")
	}
}

func TestCloneEqual(t *testing.T) {
	p := photon("130.7", "-46.2", "11", "12", "77", "1.5", "100")
	c := p.Clone()
	if !p.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.First(ParsePath("en")).Text = "9.9"
	if p.Equal(c) {
		t.Error("mutating clone affected original or Equal is broken")
	}
	if p.First(ParsePath("en")).Value() != "1.5" {
		t.Error("clone aliases original")
	}
}

func TestByteSizeMatchesMarshal(t *testing.T) {
	p := photon("130.7", "-46.2", "11", "12", "77", "1.5", "100")
	if p.ByteSize() != len(Marshal(p)) {
		t.Errorf("ByteSize %d != len(Marshal) %d", p.ByteSize(), len(Marshal(p)))
	}
	empty := T("e", "")
	if empty.ByteSize() != len(Marshal(empty)) {
		t.Errorf("empty leaf: %d != %d", empty.ByteSize(), len(Marshal(empty)))
	}
}

// randomTree builds a tree of the shapes the tree plane can carry: nested
// interiors, empty leaves, and text leaves some of which need escaping.
func randomTree(r *rand.Rand, depth int) *Element {
	name := string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26)))
	if depth >= 3 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return E(name) // empty leaf
		case 1:
			return T(name, []string{"a<b", "x&y", "1>0", "\"q\"", "\r\n", "<&>"}[r.Intn(6)])
		default:
			return T(name, strconv.Itoa(r.Intn(1000)))
		}
	}
	kids := make([]*Element, 1+r.Intn(3))
	for i := range kids {
		kids[i] = randomTree(r, depth+1)
	}
	return E(name, kids...)
}

// Property: MarshalSize prices arbitrary trees exactly — it must equal the
// length of the canonical serialization for any shape the tree plane can
// carry, since metering and journal pre-sizing trust it without ever
// materializing the bytes.
func TestQuickMarshalSizeMatchesAppendMarshal(t *testing.T) {
	f := func(seed int64) bool {
		e := randomTree(rand.New(rand.NewSource(seed)), 0)
		return MarshalSize(e) == len(AppendMarshal(nil, e))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestByteSizeMemo: an element remembers its size, and that is invisible.
// Eight goroutines size the same fresh trees at once — under -race the memo's
// one post-build write must not be a reported race — and each gets
// len(AppendMarshal), first call and second. A subtree two parents share is
// scanned for the first and remembered for the second: the test (and only a
// test may) rewrites a leaf of the shared subtree in between, and the second
// parent's size still counts the subtree as it was.
func TestByteSizeMemo(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	trees := make([]*Element, 300)
	want := make([]int, len(trees))
	for i := range trees {
		trees[i] = randomTree(r, 0)
		want[i] = len(AppendMarshal(nil, trees[i]))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i, e := range trees {
					if got := e.ByteSize(); got != want[i] {
						t.Errorf("tree %d, pass %d: ByteSize %d, serialization has %d bytes", i, pass, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	shared := E("coord", E("cel", T("ra", "130.7"), T("dec", "-46.2")))
	a, b := E("a", shared, T("en", "1.5")), E("b", T("phc", "7"), shared)
	sizeB := len(AppendMarshal(nil, b))
	if got, want := a.ByteSize(), len(AppendMarshal(nil, a)); got != want {
		t.Fatalf("first parent: ByteSize %d, serialization has %d bytes", got, want)
	}
	shared.Children[0].Children[0].Text = "130.7000000"
	if got := b.ByteSize(); got != sizeB {
		t.Errorf("second parent: ByteSize %d, want %d: the shared subtree was scanned again", got, sizeB)
	}
	// A copy carries the memo with it; a clone is a new tree and starts clean.
	if c := shared.Clone(); c.ByteSize() != len(AppendMarshal(nil, c)) {
		t.Errorf("clone: ByteSize %d, serialization has %d bytes", c.ByteSize(), len(AppendMarshal(nil, c)))
	}
}

func TestPrune(t *testing.T) {
	p := photon("130.7", "-46.2", "11", "12", "77", "1.5", "100")
	keep := []Path{ParsePath("coord/cel/ra"), ParsePath("en")}
	pr := p.Prune(keep)
	if pr == nil {
		t.Fatal("prune dropped everything")
	}
	if pr.First(ParsePath("coord/cel/ra")).Value() != "130.7" {
		t.Error("kept path lost")
	}
	if pr.First(ParsePath("coord/cel/dec")) != nil {
		t.Error("dec should be projected away")
	}
	if pr.First(ParsePath("phc")) != nil {
		t.Error("phc should be projected away")
	}
	// Keeping a subtree root keeps the whole subtree.
	pr2 := p.Prune([]Path{ParsePath("coord/cel")})
	if pr2.First(ParsePath("coord/cel/dec")) == nil {
		t.Error("subtree prefix should keep descendants")
	}
	if p.Prune([]Path{ParsePath("does/not/exist")}) != nil {
		t.Error("no match should yield nil")
	}
	// Empty path keeps everything.
	if !p.Prune([]Path{nil}).Equal(p) {
		t.Error("empty path should keep the item")
	}
}

func TestPathOps(t *testing.T) {
	p := ParsePath("/coord/cel/ra/")
	if p.String() != "coord/cel/ra" {
		t.Errorf("trim slashes: %s", p)
	}
	if !p.HasPrefix(ParsePath("coord/cel")) || p.HasPrefix(ParsePath("coord/det")) {
		t.Error("HasPrefix broken")
	}
	if len(ParsePath("")) != 0 {
		t.Error("empty path should be nil")
	}
}

func TestDedupPaths(t *testing.T) {
	ps := []Path{
		ParsePath("coord/cel/ra"),
		ParsePath("coord/cel"),
		ParsePath("coord/cel/dec"),
		ParsePath("en"),
		ParsePath("en"),
	}
	got := DedupPaths(ps)
	want := []string{"coord/cel", "en"}
	if len(got) != len(want) {
		t.Fatalf("DedupPaths = %v", got)
	}
	for i, w := range want {
		if got[i].String() != w {
			t.Errorf("dedup %d = %s, want %s", i, got[i], w)
		}
	}
}

// Property: Prune keeps exactly the addressed values for arbitrary subsets
// of photon leaf paths.
func TestQuickPruneKeepsAddressed(t *testing.T) {
	p := photon("130.7", "-46.2", "11", "12", "77", "1.5", "100")
	var all []Path
	for _, s := range []string{"coord/cel/ra", "coord/cel/dec", "coord/det/dx", "coord/det/dy", "phc", "en", "det_time"} {
		all = append(all, ParsePath(s))
	}
	f := func(mask uint8) bool {
		var keep []Path
		for i, pa := range all {
			if mask&(1<<uint(i%8)) != 0 && i < 8 {
				keep = append(keep, pa)
			}
		}
		pr := p.Prune(keep)
		for i, pa := range all {
			kept := mask&(1<<uint(i%8)) != 0 && i < 8
			has := pr.First(pa) != nil
			if kept != has {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
