package geo_test

import (
	"testing"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/geo"
)

// frontEndSet returns the default deployment's 64 front-end metros as a
// PointSet, and the catalog metros as queries.
func frontEndSet(b *testing.B) (*geo.PointSet, []geo.Point) {
	var fes []geo.Point
	for _, sp := range cdn.DefaultSiteSpecs() {
		if sp.FrontEnd {
			m, ok := geo.FindMetro(sp.Metro)
			if !ok {
				b.Fatalf("front-end metro %q missing", sp.Metro)
			}
			fes = append(fes, m.Point)
		}
	}
	var queries []geo.Point
	for _, m := range geo.World() {
		o := geo.NewOrigin(m.Point)
		queries = append(queries, o.Offset(25, 45))
	}
	return geo.NewPointSet(fes), queries
}

var (
	nearestSink int
	rankSink    []int
)

func BenchmarkPointSetNearest(b *testing.B) {
	s, queries := frontEndSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearestSink, _ = s.Nearest(queries[i%len(queries)])
	}
}

func BenchmarkPointSetRank(b *testing.B) {
	s, queries := frontEndSet(b)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink = s.RankInto(queries[i%len(queries)], 64, buf)
	}
}
