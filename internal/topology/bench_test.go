package topology_test

import (
	"testing"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
)

var rankSink []topology.SiteID

// BenchmarkRankPeeringByAir ranks all of the default deployment's 70
// peering sites for catalog-metro clients, into a reused buffer: the
// full ranking a switch draw past the schedule's prefix takes.
func BenchmarkRankPeeringByAir(b *testing.B) {
	dep, err := cdn.BuildDefault()
	if err != nil {
		b.Fatal(err)
	}
	bb := dep.Backbone
	var queries []geo.Point
	for _, m := range geo.World() {
		o := geo.NewOrigin(m.Point)
		queries = append(queries, o.Offset(25, 45))
	}
	n := len(bb.PeeringSites())
	buf := make([]topology.SiteID, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink = bb.RankPeeringByAirInto(queries[i%len(queries)], n, buf)
	}
}
