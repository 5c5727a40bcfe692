package experiments

import (
	"slices"
	"strings"
	"testing"

	"anycastcdn/internal/core"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/units"
)

// testSuite wraps the process-wide cached simulation fixture; the Suite
// itself is cheap, and sharing one keeps its derived caches warm.
var sharedSuite *Suite

func testSuite(t *testing.T) *Suite {
	t.Helper()
	res := testutil.SuiteResult(t)
	if sharedSuite == nil || sharedSuite.Res != res {
		sharedSuite = NewSuite(res)
	}
	return sharedSuite
}

func seriesByName(t *testing.T, r Report, name string) []float64 {
	t.Helper()
	for _, s := range r.Figure.Series {
		if s.Name == name {
			out := make([]float64, len(s.Points))
			for i, p := range s.Points {
				out[i] = p.Y
			}
			return out
		}
	}
	t.Fatalf("series %q missing from %s", name, r.ID)
	return nil
}

func assertMonotoneCDF(t *testing.T, ys []float64, name string) {
	t.Helper()
	prev := -1.0
	for _, y := range ys {
		if y < prev-1e-9 || y < 0 || y > 1 {
			t.Fatalf("series %s is not a CDF: %v", name, ys)
		}
		prev = y
	}
}

func TestFigure1DiminishingReturns(t *testing.T) {
	s := testSuite(t)
	r := s.Figure1()
	if len(r.Figure.Series) != 5 {
		t.Fatalf("fig1 has %d series, want 5", len(r.Figure.Series))
	}
	one := seriesByName(t, r, "1 front-ends")
	five := seriesByName(t, r, "5 front-ends")
	nine := seriesByName(t, r, "9 front-ends")
	assertMonotoneCDF(t, one, "1 front-ends")
	// More candidates can only lower the min latency: CDF dominates.
	for i := range one {
		if five[i] < one[i]-1e-9 {
			t.Fatal("5-front-end CDF must dominate 1-front-end CDF")
		}
		if nine[i] < five[i]-1e-9 {
			t.Fatal("9-front-end CDF must dominate 5-front-end CDF")
		}
	}
	// Diminishing returns: gap(1→5) should exceed gap(5→9).
	var gap15, gap59 float64
	for i := range one {
		gap15 += five[i] - one[i]
		gap59 += nine[i] - five[i]
	}
	if gap59 > gap15 {
		t.Fatalf("gap 5→9 (%v) exceeds gap 1→5 (%v); expected diminishing returns", gap59, gap15)
	}
}

// TestFigure1SameAcrossWorkers pins Figure 1's split into client ranges:
// measured by 1, 2 and 3 workers, every client's minima land in the same
// slots and the figure renders the same text.
func TestFigure1SameAcrossWorkers(t *testing.T) {
	res := testutil.SuiteResult(t)
	var wantMins [len(fig1Ns)][]units.Millis
	var want string
	for _, workers := range []int{1, 2, 3} {
		cfg := res.Cfg
		cfg.Workers = workers
		s := &StreamSuite{Cfg: cfg, World: res.World}
		mins, got := s.fig1Minima(), s.Figure1().Render()
		if workers == 1 {
			wantMins, want = mins, got
			continue
		}
		for j := range mins {
			if !slices.Equal(mins[j], wantMins[j]) {
				t.Fatalf("%d workers: minima over the nearest %d candidates differ from one worker's", workers, fig1Ns[j])
			}
		}
		if got != want {
			t.Fatalf("%d workers render Figure 1 as\n%s\none worker as\n%s", workers, got, want)
		}
	}
}

func TestFigure2Ordering(t *testing.T) {
	s := testSuite(t)
	r := s.Figure2()
	first := seriesByName(t, r, "1st closest")
	fourth := seriesByName(t, r, "4th closest")
	assertMonotoneCDF(t, first, "1st closest")
	assertMonotoneCDF(t, fourth, "4th closest")
	for i := range first {
		if first[i] < fourth[i]-1e-9 {
			t.Fatal("distance to 1st closest must stochastically dominate 4th closest")
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Figure3()
	world := seriesByName(t, r, "World")
	// CCDF must be non-increasing.
	prev := 2.0
	for _, y := range world {
		if y > prev+1e-9 {
			t.Fatal("world CCDF not non-increasing")
		}
		prev = y
	}
	// Headline shape: a minority but non-trivial fraction of requests see
	// a >= 25ms penalty.
	at25 := world[5] // grid is 0..100 step 5
	if at25 < 0.05 || at25 > 0.40 {
		t.Fatalf("CCDF(25ms) = %v, outside the paper-like band", at25)
	}
}

func TestFigure4Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Figure4()
	if len(r.Figure.Series) != 4 {
		t.Fatalf("fig4 has %d series, want 4", len(r.Figure.Series))
	}
	past := seriesByName(t, r, "clients past closest")
	toFE := seriesByName(t, r, "clients to front-end")
	assertMonotoneCDF(t, past, "past closest")
	assertMonotoneCDF(t, toFE, "to front-end")
	// Distance past closest is bounded by distance to front-end, so its
	// CDF dominates.
	for i := range past {
		if past[i] < toFE[i]-1e-9 {
			t.Fatal("past-closest CDF must dominate to-front-end CDF")
		}
	}
	// A majority — but not all — clients should be at their closest FE.
	if past[0] < 0.3 || past[0] > 0.9 {
		t.Fatalf("fraction at/near closest = %v, implausible", past[0])
	}
}

func TestFigure5Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Figure5()
	if len(r.Figure.Series) != 5 {
		t.Fatalf("fig5 has %d series, want 5", len(r.Figure.Series))
	}
	all := seriesByName(t, r, "all")
	over50 := seriesByName(t, r, "> 50ms")
	if len(all) == 0 {
		t.Fatal("no daily points")
	}
	for i := range all {
		if over50[i] > all[i]+1e-9 {
			t.Fatal("threshold lines must be nested: >50ms cannot exceed all")
		}
		if all[i] < 0.02 || all[i] > 0.6 {
			t.Fatalf("daily any-improvement fraction %v implausible", all[i])
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Figure6()
	days := seriesByName(t, r, "# days")
	streaks := seriesByName(t, r, "max # consecutive days")
	assertMonotoneCDF(t, days, "# days")
	assertMonotoneCDF(t, streaks, "max consecutive")
	// Max consecutive streak <= total poor days, so its CDF dominates.
	for i := range days {
		if streaks[i] < days[i]-1e-9 {
			t.Fatal("consecutive-days CDF must dominate total-days CDF")
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Figure7()
	line := seriesByName(t, r, "switched at least once")
	if len(line) != 7 {
		t.Fatalf("fig7 has %d points, want 7", len(line))
	}
	prev := 0.0
	for _, v := range line {
		if v < prev-1e-12 {
			t.Fatal("cumulative switched fraction must be non-decreasing")
		}
		prev = v
	}
	if line[6] < 0.05 || line[6] > 0.5 {
		t.Fatalf("weekly switched fraction %v implausible (paper: 21%%)", line[6])
	}
	// Weekend days (indices 3, 4 = Sat, Sun) should contribute less than
	// the first weekday.
	weekend := (line[3] - line[2]) + (line[4] - line[3])
	if weekend > line[0] {
		t.Fatalf("weekend churn %v exceeds first-day churn %v", weekend, line[0])
	}
}

func TestFigure8Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Figure8()
	line := seriesByName(t, r, "front-end changes")
	assertMonotoneCDF(t, line, "front-end changes")
	if line[len(line)-1] < 0.95 {
		t.Fatal("nearly all switches should be within the 8192 km grid")
	}
}

func TestFigure9Shape(t *testing.T) {
	s := testSuite(t)
	r := s.Figure9()
	if len(r.Figure.Series) != 4 {
		t.Fatalf("fig9 has %d series, want 4", len(r.Figure.Series))
	}
	for _, name := range []string{"EDNS-0 Median", "EDNS-0 75th", "LDNS Median", "LDNS 75th"} {
		line := seriesByName(t, r, name)
		assertMonotoneCDF(t, line, name)
	}
	// Most mass at zero improvement: the CDF at +1ms minus at -1ms is the
	// no-change bucket and should be the single biggest.
	ecsMed := seriesByName(t, r, "EDNS-0 Median")
	// grid -400..400 step 25: index of 0 is 16.
	zeroBand := ecsMed[17] - ecsMed[15]
	if zeroBand < 0.4 {
		t.Fatalf("no-change mass %v; most clients should see no difference", zeroBand)
	}
}

func TestCDNSizeTable(t *testing.T) {
	r := CDNSizeTable()
	if r.Table == nil {
		t.Fatal("no table")
	}
	if len(r.Table.Rows) != 22 {
		t.Fatalf("table has %d rows, want 22", len(r.Table.Rows))
	}
	out := r.Render()
	for _, want := range []string{"level3", "cloudflare", "bing", "paper vs measured"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := testSuite(t)
	reports := s.All()
	if len(reports) != 10 {
		t.Fatalf("All produced %d reports, want 10", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if seen[r.ID] {
			t.Fatalf("duplicate report id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Figure == nil && r.Table == nil {
			t.Fatalf("report %s has no content", r.ID)
		}
		if out := r.Render(); len(out) < 50 {
			t.Fatalf("report %s render too small", r.ID)
		}
	}
}

func TestFigure9Ablation(t *testing.T) {
	s := testSuite(t)
	// The predictor under a different metric must still produce the four
	// series; the hybrid margin must reduce (or keep equal) the worse
	// fraction relative to the plain scheme.
	plain := s.Figure9WithConfig(core.Config{Metric: core.MetricP25, MinMeasurements: 20})
	hybrid := s.Figure9WithConfig(core.Config{Metric: core.MetricP25, MinMeasurements: 20, HybridMarginMs: 15})
	pLine := seriesByName(t, plain, "EDNS-0 Median")
	hLine := seriesByName(t, hybrid, "EDNS-0 Median")
	// P(improvement < -1ms): hybrid should not be more harmful.
	// grid -400..400 step 25; index 15 is -25ms.
	if hLine[15] > pLine[15]+0.02 {
		t.Fatalf("hybrid worse-mass %v exceeds plain %v", hLine[15], pLine[15])
	}
}
