package beacon

import (
	"testing"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/cdn"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/latency"
	"anycastcdn/internal/topology"
)

// generate builds an n-client population and its LDNS mapping in one
// walk, serially.
func generate(tb testing.TB, isps *topology.ISPModel, metros []geo.Metro, n int) (*clients.Population, *dns.Mapping) {
	tb.Helper()
	g, err := clients.NewGenerator(metros, isps, clients.DefaultConfig(2, n), 0, n)
	if err != nil {
		tb.Fatal(err)
	}
	rm, err := dns.NewRangeMapper(isps, metros, dns.DefaultMapperConfig(3), 0, uint64(n))
	if err != nil {
		tb.Fatal(err)
	}
	for {
		blk, err := g.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if len(blk) == 0 {
			return g.Population(), rm.Mapping()
		}
		for j := range blk {
			g.Draw(&blk[j])
			rm.Intern(blk[j].ID, rm.Key(&blk[j]))
		}
	}
}

type fixture struct {
	exec *Executor
	pop  *clients.Population
}

func setup(t *testing.T) fixture {
	t.Helper()
	dep, err := cdn.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	metros := geo.World()
	isps := topology.BuildISPs(dep.Backbone, metros, topology.DefaultISPModelConfig(1))
	pop, mp := generate(t, isps, metros, 1000)
	router := bgp.NewRouter(dep.Backbone, isps, 4, bgp.DefaultConfig())
	exec := &Executor{
		Router:    router,
		Authority: dns.NewAuthority(dep, geo.PerfectDB()),
		Latency:   latency.NewModel(5, latency.DefaultConfig()),
		Mapping:   mp,
		Seed:      6,
	}
	return fixture{exec: exec, pop: pop}
}

func TestRunProducesFourSamples(t *testing.T) {
	f := setup(t)
	c := f.pop.Clients[0]
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	assign := f.exec.Router.Assign(rc, f.exec.Router.BaseIngress(rc))
	m := f.exec.Run(c, 0, assign, 123)
	if m.QueryID != 123 || m.ClientID != c.ID || m.Day != 0 {
		t.Fatalf("bad measurement metadata %+v", m)
	}
	if m.Anycast.RTTms <= 0 {
		t.Fatal("anycast sample non-positive")
	}
	if m.Anycast.Site != assign.FrontEnd {
		t.Fatal("anycast sample reported wrong front-end")
	}
	for i, u := range m.Unicast {
		if u.RTTms <= 0 {
			t.Fatalf("unicast sample %d non-positive", i)
		}
		if !f.exec.Router.Backbone().Site(u.Site).FrontEnd {
			t.Fatalf("unicast target %d is not a front-end", i)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	f := setup(t)
	c := f.pop.Clients[1]
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	assign := f.exec.Router.Assign(rc, f.exec.Router.BaseIngress(rc))
	a := f.exec.Run(c, 2, assign, 55)
	b := f.exec.Run(c, 2, assign, 55)
	if a != b {
		t.Fatal("identical beacon executions differ")
	}
	// Different query IDs should draw different noise in at least one of
	// the four samples (individual samples can collide after rounding).
	different := false
	for q := uint64(56); q < 66 && !different; q++ {
		c2 := f.exec.Run(c, 2, assign, q)
		if a.Anycast.RTTms != c2.Anycast.RTTms {
			different = true
		}
		for i := range c2.Unicast {
			if c2.Unicast[i] != a.Unicast[i] {
				different = true
			}
		}
	}
	if !different {
		t.Fatal("different query IDs should draw different noise")
	}
}

func TestBestUnicastAndPenalty(t *testing.T) {
	m := Measurement{
		Anycast: TargetSample{Site: 9, RTTms: 50},
		Unicast: [3]TargetSample{{Site: 1, RTTms: 60}, {Site: 2, RTTms: 40}, {Site: 3, RTTms: 70}},
	}
	if got := m.BestUnicast(); got.Site != 2 {
		t.Fatalf("BestUnicast = %+v", got)
	}
	if got := m.AnycastPenaltyMs(); got != 10 {
		t.Fatalf("penalty = %v, want 10", got)
	}
	m.Anycast.RTTms = 30
	if got := m.AnycastPenaltyMs(); got != -10 {
		t.Fatalf("penalty = %v, want -10 (anycast wins)", got)
	}
}

func TestAnycastUsuallyCompetitive(t *testing.T) {
	f := setup(t)
	good := 0
	total := 0
	for _, c := range f.pop.Clients[:500] {
		rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
		assign := f.exec.Router.Assign(rc, f.exec.Router.BaseIngress(rc))
		m := f.exec.Run(c, 0, assign, c.ID)
		total++
		if m.AnycastPenaltyMs() < 25 {
			good++
		}
	}
	frac := float64(good) / float64(total)
	// The paper's headline: anycast within 25ms of best unicast for ~80%
	// of requests. The simulator should be in that ballpark (loose bounds;
	// the precise calibration is checked in the experiments package).
	if frac < 0.6 {
		t.Fatalf("anycast within 25ms for only %.2f of requests", frac)
	}
}

func TestMeasureCandidates(t *testing.T) {
	f := setup(t)
	c := f.pop.Clients[2]
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	assign := f.exec.Router.Assign(rc, f.exec.Router.BaseIngress(rc))
	var b Batch
	b.Start(f.exec, c, 1, assign)
	samples := b.CandidateSamples(nil, 99)
	if len(samples) != 10 {
		t.Fatalf("got %d candidate samples, want 10", len(samples))
	}
	seen := map[topology.SiteID]bool{}
	for _, s := range samples {
		if s.RTTms <= 0 {
			t.Fatal("candidate sample non-positive")
		}
		if seen[s.Site] {
			t.Fatal("duplicate candidate site")
		}
		seen[s.Site] = true
	}
}

func TestNearerCandidatesFasterOnAverage(t *testing.T) {
	f := setup(t)
	var first, last float64
	n := 0
	var b Batch
	var samples []TargetSample
	for _, c := range f.pop.Clients[:300] {
		rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
		b.Start(f.exec, c, 0, f.exec.Router.Assign(rc, f.exec.Router.BaseIngress(rc)))
		samples = b.CandidateSamples(samples[:0], 1000+c.ID)
		first += samples[0].RTTms.Float()
		last += samples[len(samples)-1].RTTms.Float()
		n++
	}
	if first/float64(n) >= last/float64(n) {
		t.Fatalf("closest candidate mean RTT %.1f should beat farthest %.1f",
			first/float64(n), last/float64(n))
	}
}

// benchExecutor builds a 100-client world's executor for the benchmarks.
func benchExecutor(b *testing.B) (*Executor, *clients.Population) {
	b.Helper()
	dep, err := cdn.BuildDefault()
	if err != nil {
		b.Fatal(err)
	}
	metros := geo.World()
	isps := topology.BuildISPs(dep.Backbone, metros, topology.DefaultISPModelConfig(1))
	pop, mp := generate(b, isps, metros, 100)
	return &Executor{
		Router:    bgp.NewRouter(dep.Backbone, isps, 4, bgp.DefaultConfig()),
		Authority: dns.NewAuthority(dep, geo.PerfectDB()),
		Latency:   latency.NewModel(5, latency.DefaultConfig()),
		Mapping:   mp,
		Seed:      6,
	}, pop
}

func BenchmarkBeaconRun(b *testing.B) {
	exec, pop := benchExecutor(b)
	c := pop.Clients[0]
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	assign := exec.Router.Assign(rc, exec.Router.BaseIngress(rc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = exec.Run(c, i%30, assign, uint64(i))
	}
}

// batchSink keeps the benchmarked measurements live.
var batchSink Measurement

// BenchmarkBeaconBatch times one client-day's beacons run as a Batch: 12
// executions, about the default configuration's mean per client-day.
// The candidate list is cached before the timer starts, as it is for all
// but a resolver's first beacon of a run, so an operation allocates
// nothing.
func BenchmarkBeaconBatch(b *testing.B) {
	exec, pop := benchExecutor(b)
	c := pop.Clients[0]
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	assign := exec.Router.Assign(rc, exec.Router.BaseIngress(rc))
	_ = exec.Authority.Candidates(exec.Mapping.Resolver(c.ID))
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := i % 30
		batch.Start(exec, c, day, assign)
		for k := uint64(0); k < 12; k++ {
			batchSink = batch.Run(uint64(day)<<8 | k)
		}
	}
}
