package exec

import (
	"testing"

	"streamshare/internal/properties"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
)

func benchPhotons(n int) []*xmlstream.Element {
	return randomPhotons(n, 99)
}

// benchOut is the operator benchmarks' reused output buffer: each iteration feeds
// a one-item batch, the shape Pipeline.Process gives a stage.
var benchOut []*xmlstream.Element

func BenchmarkSelect(b *testing.B) {
	s := NewSelect(velaGraph())
	items := benchPhotons(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOut = s.Process(benchOut[:0], items[i%len(items):][:1])
	}
}

func BenchmarkProject(b *testing.B) {
	p := NewProject([]xmlstream.Path{
		xmlstream.ParsePath("coord/cel/ra"),
		xmlstream.ParsePath("en"),
		xmlstream.ParsePath("det_time"),
	})
	items := benchPhotons(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOut = p.Process(benchOut[:0], items[i%len(items):][:1])
	}
}

func BenchmarkWindowAggDiff(b *testing.B) {
	w := wxquery.Window{Kind: wxquery.WindowDiff, Ref: xmlstream.ParsePath("det_time"), Size: dec("20"), Step: dec("10")}
	items := benchPhotons(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var agg *WindowAgg
	for i := 0; i < b.N; i++ {
		if i%len(items) == 0 {
			agg = NewWindowAgg(w, []AggSpec{{Op: wxquery.AggAvg, Elem: xmlstream.ParsePath("en")}}, nil)
		}
		benchOut = agg.Process(benchOut[:0], items[i%len(items):][:1])
	}
}

func BenchmarkWindowMerge(b *testing.B) {
	fine := wxquery.Window{Kind: wxquery.WindowDiff, Ref: xmlstream.ParsePath("det_time"), Size: dec("20"), Step: dec("10")}
	coarse := wxquery.Window{Kind: wxquery.WindowDiff, Ref: xmlstream.ParsePath("det_time"), Size: dec("60"), Step: dec("40")}
	elem := xmlstream.ParsePath("en")
	fineItems := NewPipeline(NewWindowAgg(fine, []AggSpec{{Op: wxquery.AggAvg, Elem: elem}}, nil)).Run(benchPhotons(8192))
	if len(fineItems) == 0 {
		b.Fatal("no fine windows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m *WindowMerge
	for i := 0; i < b.N; i++ {
		if i%len(fineItems) == 0 {
			m = NewWindowMerge(fine, coarse, []AggSpec{{Op: wxquery.AggAvg, Elem: elem}}, []int{0}, []wxquery.AggOp{wxquery.AggAvg})
		}
		benchOut = m.Process(benchOut[:0], fineItems[i%len(fineItems):][:1])
	}
}

func BenchmarkRestructure(b *testing.B) {
	q := wxquery.MustParse(q1src)
	rs, err := RestructureFor(q, mustInput(b, q1src))
	if err != nil {
		b.Fatal(err)
	}
	items := benchPhotons(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOut = rs.Process(benchOut[:0], items[i%len(items):][:1])
	}
}

func mustInput(b *testing.B, src string) *properties.Input {
	b.Helper()
	q := wxquery.MustParse(src)
	p, err := properties.FromQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	in, _ := p.SingleInput()
	return in
}

func BenchmarkFullPipelineQ1(b *testing.B) {
	q := wxquery.MustParse(q1src)
	in := mustInput(b, q1src)
	pl, err := FullPipeline(q, in, nil)
	if err != nil {
		b.Fatal(err)
	}
	items := benchPhotons(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Process(items[i%len(items)])
	}
}

func BenchmarkSortBuffer(b *testing.B) {
	sb := NewSortBuffer(xmlstream.ParsePath("det_time"), 16)
	items := benchPhotons(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOut = sb.Process(benchOut[:0], items[i%len(items):][:1])
	}
}
