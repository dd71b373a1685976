package photons

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"streamshare/internal/xmlstream"
)

func TestGeneratorShape(t *testing.T) {
	g := NewGenerator(DefaultConfig(), 42)
	p := g.Next()
	for _, path := range []string{
		"coord/cel/ra", "coord/cel/dec", "coord/det/dx", "coord/det/dy",
		"phc", "en", "det_time",
	} {
		if p.First(xmlstream.ParsePath(path)) == nil {
			t.Errorf("photon lacks %s", path)
		}
	}
	if p.Name != "photon" {
		t.Errorf("item name = %s", p.Name)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGenerator(DefaultConfig(), 7).Generate(50)
	b := NewGenerator(DefaultConfig(), 7).Generate(50)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("item %d differs between equal seeds", i)
		}
	}
	c := NewGenerator(DefaultConfig(), 8).Generate(50)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRangesAndOrdering(t *testing.T) {
	cfg := DefaultConfig()
	items := NewGenerator(cfg, 1).Generate(2000)
	prev := -1.0
	for i, p := range items {
		ra, _ := p.Decimal(xmlstream.ParsePath("coord/cel/ra"))
		if ra.Float() < cfg.RAMin || ra.Float() > cfg.RAMax {
			t.Fatalf("item %d ra out of range: %s", i, ra)
		}
		en, _ := p.Decimal(xmlstream.ParsePath("en"))
		if en.Float() < cfg.EnMin || en.Float() > cfg.EnMax+1 {
			t.Fatalf("item %d en out of range: %s", i, en)
		}
		dt, ok := p.Decimal(xmlstream.ParsePath("det_time"))
		if !ok || dt.Float() < prev {
			t.Fatalf("det_time not non-decreasing at %d", i)
		}
		prev = dt.Float()
	}
}

func TestStreamStats(t *testing.T) {
	_, st := Stream("photons", DefaultConfig(), 3, 1000)
	if st.Name != "photons" || st.Freq != DefaultConfig().Freq {
		t.Errorf("stats header = %+v", st)
	}
	dt := st.Lookup(xmlstream.ParsePath("det_time"))
	if dt == nil || !dt.Sorted || dt.AvgIncrement <= 0 {
		t.Fatalf("det_time stats = %+v", dt)
	}
	ra := st.Lookup(xmlstream.ParsePath("coord/cel/ra"))
	if ra == nil || !ra.Numeric {
		t.Fatal("no ra stats")
	}
	// Queries 1–4 select proper subsets: their constants must lie inside
	// the generated ranges.
	if ra.Min.Float() > 120 || ra.Max.Float() < 138 {
		t.Errorf("ra range %s..%s does not cover the vela box", ra.Min, ra.Max)
	}
	en := st.Lookup(xmlstream.ParsePath("en"))
	if en.Min.Float() > 1.3 || en.Max.Float() < 1.3 {
		t.Errorf("en range %s..%s does not straddle 1.3", en.Min, en.Max)
	}
}

// TestGeneratorGolden pins the generated stream byte for byte: the benchmark,
// sgd's RUN and every test feed read it, so a change to how photons are built
// must not change what they are.
func TestGeneratorGolden(t *testing.T) {
	h := sha256.New()
	for _, p := range NewGenerator(DefaultConfig(), 1).Generate(2000) {
		h.Write([]byte(xmlstream.Marshal(p)))
	}
	const want = "166cad0880f8240930ff66811e9353e22caf900eb438ab017e6c0b381011cd96"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("2 000 photons of seed 1 hash to %s, want %s", got, want)
	}
}

// BenchmarkGenerate builds subscribe-churn's set-up stream, 41 000 photons.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewGenerator(DefaultConfig(), 1).Generate(41_000)
	}
}
