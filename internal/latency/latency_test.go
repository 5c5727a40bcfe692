package latency

import (
	"math"
	"testing"
	"testing/quick"

	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

func model() *Model { return NewModel(42, DefaultConfig()) }

func TestBaseRTTDeterministic(t *testing.T) {
	m := model()
	p := Path{PrefixID: 1, EntryKey: 2, AirKm: 1000}
	if m.BaseRTTms(p) != m.BaseRTTms(p) {
		t.Fatal("BaseRTTms not deterministic")
	}
	m2 := NewModel(42, DefaultConfig())
	if m.BaseRTTms(p) != m2.BaseRTTms(p) {
		t.Fatal("BaseRTTms differs across identical models")
	}
}

func TestBaseRTTScalesWithDistance(t *testing.T) {
	m := model()
	near := Path{PrefixID: 1, EntryKey: 2, AirKm: 100}
	far := Path{PrefixID: 1, EntryKey: 2, AirKm: 5000}
	if m.BaseRTTms(far) <= m.BaseRTTms(near) {
		t.Fatal("longer path should have higher RTT")
	}
	// Sanity: 1000 km with inflation <= 2 should be under ~40ms plus
	// last-mile; cross-ocean should be big.
	p := Path{PrefixID: 3, EntryKey: 4, AirKm: 1000}
	rtt := m.BaseRTTms(p)
	if rtt < 10 || rtt > 80 {
		t.Fatalf("1000 km RTT = %.1f ms, outside plausible range", rtt)
	}
}

func TestBaseRTTPositiveProperty(t *testing.T) {
	m := model()
	f := func(prefix, entry uint64, air, backbone float64) bool {
		p := Path{
			PrefixID:   prefix,
			EntryKey:   entry,
			AirKm:      units.Kilometers(math.Abs(math.Mod(air, 20000))),
			BackboneKm: units.Kilometers(math.Abs(math.Mod(backbone, 20000))),
		}
		return m.BaseRTTms(p) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackboneLegCheaperThanInternetLeg(t *testing.T) {
	m := model()
	// Anycast-style path: short Internet leg + backbone leg, versus
	// unicast-style path covering the whole distance on the public
	// Internet. With equal endpoints the anycast decomposition should
	// usually win because backbone inflation < Internet inflation.
	wins := 0
	const n = 1000
	for i := uint64(0); i < n; i++ {
		anycast := Path{PrefixID: i, EntryKey: 100, AirKm: 100, BackboneKm: 900}
		unicast := Path{PrefixID: i, EntryKey: 200, AirKm: 1000}
		if m.BaseRTTms(anycast) < m.BaseRTTms(unicast) {
			wins++
		}
	}
	if wins < n*80/100 {
		t.Fatalf("anycast decomposition won only %d/%d; backbone should usually be faster", wins, n)
	}
}

func TestLastMileDistribution(t *testing.T) {
	m := model()
	var vals []float64
	for i := uint64(0); i < 4000; i++ {
		v := m.LastMileMs(i)
		if v <= 0 {
			t.Fatalf("non-positive last mile %v", v)
		}
		vals = append(vals, v.Float())
	}
	med := medianOf(vals)
	if med < 6 || med > 13 {
		t.Fatalf("last-mile median %.1f, want near 9", med)
	}
}

func TestCongestionRate(t *testing.T) {
	m := model()
	events := 0
	const n = 20000
	for i := uint64(0); i < n; i++ {
		p := Path{PrefixID: i, EntryKey: 5, AirKm: 500}
		if c := m.CongestionMs(p, 3); c > 0 {
			events++
		} else if c < 0 {
			t.Fatalf("negative congestion %v", c)
		}
	}
	rate := float64(events) / n
	want := DefaultConfig().CongestionDailyRate
	if math.Abs(rate-want) > 0.01 {
		t.Fatalf("congestion rate %.3f, want ~%.3f", rate, want)
	}
}

func TestCongestionStableWithinDay(t *testing.T) {
	m := model()
	p := Path{PrefixID: 9, EntryKey: 1, AirKm: 500}
	for day := 0; day < 40; day++ {
		if m.CongestionMs(p, day) != m.CongestionMs(p, day) {
			t.Fatal("congestion not stable within day")
		}
	}
}

func TestCongestionVariesAcrossDays(t *testing.T) {
	m := model()
	// Over many paths and days, events on consecutive days should be
	// mostly independent: P(event on day d+1 | event on day d) ≈ rate.
	bothDays, firstDay := 0, 0
	for i := uint64(0); i < 30000; i++ {
		p := Path{PrefixID: i, EntryKey: 2, AirKm: 300}
		if m.CongestionMs(p, 10) > 0 {
			firstDay++
			if m.CongestionMs(p, 11) > 0 {
				bothDays++
			}
		}
	}
	if firstDay == 0 {
		t.Fatal("no events at all")
	}
	cond := float64(bothDays) / float64(firstDay)
	if cond > 0.15 {
		t.Fatalf("consecutive-day event correlation %.2f too high; events should be transient", cond)
	}
}

// sampleRTTms is one sample composed from scratch: the day RTT, then the
// jitter drawn from the sample's substream derived from the root under
// the string label.
func sampleRTTms(m *Model, p Path, day int, sampleKey uint64) units.Millis {
	rs := xrand.Substream(m.seed, "jitter", p.PrefixID, p.EntryKey, uint64(day), sampleKey)
	rtt := m.DayRTTms(p, day).Float() + rs.Exp(m.cfg.JitterMeanMs.Float())
	if m.cfg.JitterBurstProb > 0 && rs.Bool(m.cfg.JitterBurstProb) {
		rtt += rs.Exp(m.cfg.JitterBurstMeanMs.Float())
	}
	return units.Millis(rtt)
}

// measuredRTTms is the timing model composed from scratch: the browser's
// Resource Timing support redrawn for every sample, and the bias drawn
// from the sample's substream derived from the root.
func measuredRTTms(m *Model, trueRTT units.Millis, browserKey, sampleKey uint64) units.Millis {
	if xrand.Substream(m.seed, "timing", browserKey).Bool(m.cfg.ResourceTimingSupportRate) {
		return trueRTT
	}
	rs := xrand.Substream(m.seed, "timing-bias", browserKey, sampleKey)
	return trueRTT + units.Millis(rs.Exp(m.cfg.PrimitiveTimingBiasMs.Float()))
}

// sample is one RTT sample of p through the per-sample step, its jitter
// prefix derived for the call.
func sample(m *Model, p Path, day int, sampleKey uint64) units.Millis {
	var rs xrand.Stream
	return m.SampleFromDayRTTInto(&rs, m.DayRTTms(p, day), m.JitterPrefix(p.PrefixID, p.EntryKey, day), sampleKey)
}

// measured is trueRTT measured by browserKey's browser for sample
// sampleKey, its Browser drawn for the call.
func measured(m *Model, trueRTT units.Millis, browserKey, sampleKey uint64) units.Millis {
	var rs xrand.Stream
	return m.MeasuredRTTmsInto(&rs, trueRTT, m.Browser(browserKey), sampleKey)
}

func TestSampleJitterPositive(t *testing.T) {
	m := model()
	p := Path{PrefixID: 1, EntryKey: 1, AirKm: 800}
	day := m.DayRTTms(p, 0)
	for k := uint64(0); k < 200; k++ {
		s := sample(m, p, 0, k)
		if s < day {
			t.Fatalf("sample %v below day RTT %v", s, day)
		}
	}
	// Different sample keys must differ (jitter present).
	if sample(m, p, 0, 1) == sample(m, p, 0, 2) {
		t.Fatal("samples with different keys are identical")
	}
}

func TestMeasuredRTTBias(t *testing.T) {
	m := model()
	const trueRTT = 50.0
	biased, exact := 0, 0
	for b := uint64(0); b < 5000; b++ {
		v := measured(m, trueRTT, b, 1)
		if v == trueRTT {
			exact++
		} else if v > trueRTT {
			biased++
		} else {
			t.Fatalf("measured RTT %v below true RTT", v)
		}
	}
	supportRate := float64(exact) / 5000
	want := DefaultConfig().ResourceTimingSupportRate
	if math.Abs(supportRate-want) > 0.03 {
		t.Fatalf("resource-timing support rate %.2f, want ~%.2f", supportRate, want)
	}
}

// TestMeasuredRTTSupportStablePerBrowser checks that support is a
// property of the browser: the from-scratch model, which redraws it for
// every sample, agrees with itself across samples and with the Browser
// value drawn once.
func TestMeasuredRTTSupportStablePerBrowser(t *testing.T) {
	m := model()
	for b := uint64(0); b < 100; b++ {
		br := m.Browser(b)
		a := measuredRTTms(m, 10, b, 1) == 10
		c := measuredRTTms(m, 10, b, 2) == 10
		if a != c {
			t.Fatal("resource timing support flapped within one browser")
		}
		if br.resourceTiming != a {
			t.Fatalf("browser %d: Browser says support %v, the per-sample draw %v", b, br.resourceTiming, a)
		}
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestDayRTTCacheTransparent(t *testing.T) {
	// The model keeps no day-RTT cache or other state: a fresh model and a
	// heavily exercised one agree on every value.
	warm := model()
	for i := uint64(0); i < 3000; i++ {
		p := Path{PrefixID: i, EntryKey: i % 7, AirKm: 500}
		_ = warm.DayRTTms(p, int(i%30))
	}
	cold := NewModel(42, DefaultConfig())
	for i := uint64(0); i < 200; i++ {
		p := Path{PrefixID: i, EntryKey: i % 7, AirKm: 500, BackboneKm: 100, Household: i % 6}
		for day := 0; day < 5; day++ {
			if warm.DayRTTms(p, day) != cold.DayRTTms(p, day) {
				t.Fatalf("DayRTTms diverged from a fresh model at prefix %d day %d", i, day)
			}
			if sample(warm, p, day, i) != sample(cold, p, day, i) {
				t.Fatalf("a sample diverged from a fresh model at prefix %d day %d", i, day)
			}
		}
	}
}

// TestDayRTTMatchesFormula pins the split of a day RTT into shared path
// terms and a household's last mile to the single expression it replaced,
// bit for bit: PathDayOf ignores the household, and the household enters
// only through HouseholdLastMileMs.
func TestDayRTTMatchesFormula(t *testing.T) {
	m := model()
	for i := uint64(0); i < 2000; i++ {
		p := Path{
			PrefixID:   i,
			EntryKey:   i % 13,
			AirKm:      units.Kilometers(10 + float64(i%97)*61.3),
			BackboneKm: units.Kilometers(float64(i%5) * 377.1),
			Household:  i % 6,
			Unicast:    i%3 == 0,
		}
		day := int(i % 30)
		prop := 2 * p.AirKm.Float() * m.inflation(p) / m.cfg.FiberKmPerMs
		backbone := 2 * p.BackboneKm.Float() * m.cfg.BackboneInflation / m.cfg.FiberKmPerMs
		lastMile := m.LastMileMs(p.PrefixID).Float() * m.householdFactor(p.PrefixID, p.Household)
		want := units.Millis(lastMile+prop+backbone+m.unicastDetourMs(p).Float()) + m.CongestionMs(p, day)
		if got := m.DayRTTms(p, day); got != want {
			t.Fatalf("path %+v day %d: DayRTTms %v, formula %v", p, day, got, want)
		}
		other := p
		other.Household = p.Household + 1
		lm := m.HouseholdLastMileMs(m.LastMileMs(p.PrefixID), p.PrefixID, p.Household)
		if got := m.PathDayOf(other, day).DayRTTms(lm); got != want {
			t.Fatalf("path %+v day %d: PathDay of another household gives %v, formula %v", p, day, got, want)
		}
	}
}

// TestSampleRTTIntoMatchesSampleRTT checks the per-sample step, scratch
// stream reused, against the from-scratch composition on one path per
// prefix, and the Browser-based timing model against the per-sample one.
func TestSampleRTTIntoMatchesSampleRTT(t *testing.T) {
	m := model()
	var rs xrand.Stream
	for i := uint64(0); i < 500; i++ {
		p := Path{PrefixID: i, EntryKey: 3, AirKm: 900, Unicast: i%2 == 0}
		day := int(i % 30)
		want := sampleRTTms(m, p, day, i)
		if m.SampleFromDayRTTInto(&rs, m.DayRTTms(p, day), m.JitterPrefix(p.PrefixID, p.EntryKey, day), i) != want {
			t.Fatalf("SampleFromDayRTTInto diverged at prefix %d", i)
		}
		if m.MeasuredRTTmsInto(&rs, 50, m.Browser(i), 1) != measuredRTTms(m, 50, i, 1) {
			t.Fatalf("MeasuredRTTmsInto diverged at browser %d", i)
		}
	}
}

// TestSampleStepMatchesFromScratch checks 10^6 samples of the per-sample
// step — a path-day's day RTT and jitter prefix and a browser's Browser
// computed once, then each sample's jitter and timing model — against
// the from-scratch composition, which derives every substream from the
// root for every sample. It covers both browser kinds, bursts off and at
// the default rate, and Resource Timing support at 0 and 1.
func TestSampleStepMatchesFromScratch(t *testing.T) {
	const pathDays, perPathDay = 25_000, 10
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"no bursts", func(c *Config) { c.JitterBurstProb = 0 }},
		{"no support", func(c *Config) { c.ResourceTimingSupportRate = 0 }},
		{"full support", func(c *Config) { c.ResourceTimingSupportRate = 1 }},
	} {
		name := tc.name
		cfg := DefaultConfig()
		tc.mut(&cfg)
		m := NewModel(42, cfg)
		var rs xrand.Stream
		kinds := [2]int{}
		for i := uint64(0); i < pathDays; i++ {
			p := Path{
				PrefixID:   i / 3,
				EntryKey:   i % 13,
				AirKm:      units.Kilometers(10 + float64(i%97)*61.3),
				BackboneKm: units.Kilometers(float64(i%5) * 377.1),
				Household:  i % 6,
				Unicast:    i%3 == 0,
			}
			day := int(i % 30)
			dayRTT := m.DayRTTms(p, day)
			jitter := m.JitterPrefix(p.PrefixID, p.EntryKey, day)
			br := m.Browser(p.PrefixID)
			if br.resourceTiming {
				kinds[1]++
			} else {
				kinds[0]++
			}
			for k := uint64(0); k < perPathDay; k++ {
				key := i*8 + k
				trueRTT := m.SampleFromDayRTTInto(&rs, dayRTT, jitter, key)
				if want := sampleRTTms(m, p, day, key); trueRTT != want {
					t.Fatalf("%s: path %+v day %d sample %d: step %v, from scratch %v", name, p, day, key, trueRTT, want)
				}
				got := m.MeasuredRTTmsInto(&rs, trueRTT, br, key)
				if want := measuredRTTms(m, trueRTT, p.PrefixID, key); got != want {
					t.Fatalf("%s: browser %d sample %d: step %v, from scratch %v", name, p.PrefixID, key, got, want)
				}
			}
		}
		switch {
		case name == "no support" && kinds[1] != 0, name == "full support" && kinds[0] != 0:
			t.Fatalf("%s: %d browsers without and %d with support", name, kinds[0], kinds[1])
		case name == "default" && (kinds[0] == 0 || kinds[1] == 0):
			t.Fatalf("%s: %d browsers without and %d with support, want both kinds", name, kinds[0], kinds[1])
		}
	}
}

// TestSampleRTTZeroAlloc pins the per-sample step at zero heap
// allocations per sample (DESIGN.md §11).
func TestSampleRTTZeroAlloc(t *testing.T) {
	m := model()
	p := Path{PrefixID: 1, EntryKey: 2, AirKm: 1200, BackboneKm: 300}
	dayRTT := m.DayRTTms(p, 0)
	jitter := m.JitterPrefix(p.PrefixID, p.EntryKey, 0)
	var br Browser // no Resource Timing support: the biased branch draws
	var rs xrand.Stream
	var k uint64
	allocs := testing.AllocsPerRun(200, func() {
		_ = m.MeasuredRTTmsInto(&rs, m.SampleFromDayRTTInto(&rs, dayRTT, jitter, k), br, k)
		k++
	})
	if allocs != 0 {
		t.Fatalf("the per-sample step allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSampleRTT times one latency sample computed from scratch, day
// RTT and jitter prefix included.
func BenchmarkSampleRTT(b *testing.B) {
	m := model()
	p := Path{PrefixID: 1, EntryKey: 2, AirKm: 1200, BackboneKm: 300}
	var rs xrand.Stream
	for day := 0; day < 30; day++ {
		_ = sample(m, p, day, 0) // fault in the code and data a 1-iteration CI run would otherwise time
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := i % 30
		_ = m.SampleFromDayRTTInto(&rs, m.DayRTTms(p, day), m.JitterPrefix(p.PrefixID, p.EntryKey, day), uint64(i))
	}
}

func BenchmarkDayRTTCold(b *testing.B) {
	m := model()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := Path{PrefixID: uint64(i), EntryKey: 2, AirKm: 1200, BackboneKm: 300}
		_ = m.DayRTTms(p, i%30)
	}
}
