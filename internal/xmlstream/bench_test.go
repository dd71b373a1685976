package xmlstream

import (
	goruntime "runtime"
	"strings"
	"testing"
)

func benchItem() *Element {
	return photon("130.7", "-46.2", "11", "12", "77", "1.5", "100")
}

func BenchmarkMarshal(b *testing.B) {
	it := benchItem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Marshal(it)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	doc := Marshal(benchItem())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeStream(b *testing.B) {
	doc := "<photons>" + strings.Repeat(Marshal(benchItem()), 64) + "</photons>"
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(strings.NewReader(doc))
		for {
			if _, err := d.Next(); err != nil {
				break
			}
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/item")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*64), "allocs/item")
}

func BenchmarkFind(b *testing.B) {
	it := benchItem()
	p := ParsePath("coord/cel/ra")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if it.First(p) == nil {
			b.Fatal("missing")
		}
	}
}
