package experiments

import (
	"testing"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// loadScenario surges a small region whose deep rings live elsewhere: the
// excess must travel through the layer stack (or, under withdrawal,
// cascade into the neighbouring region) instead of being absorbed by a
// co-located mega-DC.
const loadScenario = "surge south-america day=2 for=5 qps=15"

func loadMgmtScenario(t testing.TB) faults.Scenario {
	t.Helper()
	sc, err := faults.ParseScenario(loadScenario)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestLoadManagementReportGolden(t *testing.T) {
	r, err := LoadManagement(testutil.SmallConfig(1), loadMgmtScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "loadmanagement", r.Render())
}

// TestLoadManagementAcceptance pins the paper-level outcome: under the
// same flash crowd, static anycast overloads, naive withdrawal makes it
// worse (cascading withdrawals, higher peak), and FastRoute spillover
// holds peak utilization at or under capacity by shedding to deeper
// rings at a bounded latency cost.
func TestLoadManagementAcceptance(t *testing.T) {
	r, err := LoadManagement(testutil.SmallConfig(1), loadMgmtScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Static.PeakUtil <= 2 {
		t.Errorf("static arm peak util = %.3f, want > 2 (the surge should overload the static fleet)", r.Static.PeakUtil)
	}
	if r.Withdraw.WithdrawnSiteDays == 0 {
		t.Error("withdraw arm withdrew no routes under the surge")
	}
	if r.Withdraw.PeakUtil <= 2 {
		t.Errorf("withdraw peak util = %.3f, want > 2 (withdrawal re-concentrates the overload)", r.Withdraw.PeakUtil)
	}
	// The cascade must roll: the withdrawn set grows well past the first
	// reaction instead of settling after one withdrawal.
	first, peakWd := 0, 0
	for _, wd := range r.Withdraw.PerDayWithdrawn {
		if wd > 0 && first == 0 {
			first = wd
		}
		if wd > peakWd {
			peakWd = wd
		}
	}
	if peakWd < 2*first || peakWd < 4 {
		t.Errorf("withdrawal cascade did not roll: per-day withdrawn %v", r.Withdraw.PerDayWithdrawn)
	}
	const eps = 1e-9
	if r.FastRoute.PeakUtil > 1+eps {
		t.Errorf("fastroute peak util = %.3f, want <= 1 (spillover should hold the fleet)", r.FastRoute.PeakUtil)
	}
	if r.FastRoute.PeakUtil >= r.Static.PeakUtil || r.FastRoute.PeakUtil >= r.Withdraw.PeakUtil {
		t.Errorf("fastroute peak %.3f should beat static %.3f and withdraw %.3f",
			r.FastRoute.PeakUtil, r.Static.PeakUtil, r.Withdraw.PeakUtil)
	}
	if r.FastRoute.OverloadSiteDays != 0 {
		t.Errorf("fastroute overload site-days = %d, want 0", r.FastRoute.OverloadSiteDays)
	}
	if r.FastRoute.ShedQueries == 0 {
		t.Error("fastroute shed no volume under the surge")
	}
	if got := r.FastRoute.ShedFrac(); got <= 0 || got >= 1 {
		t.Errorf("fastroute shed fraction = %v, want in (0, 1)", got)
	}
	if r.FastRoute.RedirectedClientDays == 0 {
		t.Error("fastroute redirected no client-days")
	}
	if r.FastRoute.DeltaECDF == nil {
		t.Fatal("fastroute delta ECDF missing")
	}
	if med := r.FastRoute.DeltaECDF.Quantile(0.5); med < 0 {
		t.Errorf("median redirection delta = %v ms, want >= 0 (deeper rings are farther)", med)
	}
	// Static and FastRoute see the same offered load; only serving
	// placement differs.
	if r.Static.TotalQueries != r.FastRoute.TotalQueries {
		t.Errorf("arms observed different total volume: static %d, fastroute %d",
			r.Static.TotalQueries, r.FastRoute.TotalQueries)
	}
	if r.Static.ShedQueries != 0 || r.Static.RedirectedClientDays != 0 {
		t.Errorf("static arm redirected traffic: shed=%d redirected=%d",
			r.Static.ShedQueries, r.Static.RedirectedClientDays)
	}
}

// BenchmarkLoadManagement measures the full three-arm comparison over a
// 1000-prefix surge day — the load-management hot path end to end
// (capacity derivation, controller convergence, per-client re-routing,
// aggregation).
func BenchmarkLoadManagement(b *testing.B) {
	cfg := sim.DefaultConfig(3)
	cfg.Prefixes = 1000
	cfg.Days = 2
	sc, err := faults.ParseScenario("surge south-america day=1 qps=6")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadManagement(cfg, sc); err != nil {
			b.Fatal(err)
		}
	}
}
