package experiments

import (
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestMetricStability(t *testing.T) {
	s := testSuite(t)
	r := s.MetricStability()
	if r.Table == nil || len(r.Table.Rows) < 4 {
		t.Fatalf("stability table too small: %+v", r.Table)
	}
	// The paper's claim: CoV grows with the percentile. Compare p25 vs
	// p95 CoV columns.
	covOf := func(pct string) float64 {
		for _, row := range r.Table.Rows {
			if row[0] == pct {
				v, err := strconv.ParseFloat(row[1], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("row %s missing", pct)
		return 0
	}
	p25, p95 := covOf("p25"), covOf("p95")
	if p25 >= p95 {
		t.Fatalf("p25 CoV %.4f should be below p95 CoV %.4f (the paper's stability claim)", p25, p95)
	}
}

func TestHybridDeployment(t *testing.T) {
	s := testSuite(t)
	r := s.HybridDeployment()
	if r.Table == nil || len(r.Table.Rows) != 4 {
		t.Fatalf("hybrid table rows = %d, want 4 policies", len(r.Table.Rows))
	}
	med := func(row int) float64 {
		v, err := strconv.ParseFloat(r.Table.Rows[row][1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	anycastOnly, geoDNS, plain, hybrid := med(0), med(1), med(2), med(3)
	// Redirection should not make the weighted median materially worse,
	// and typically improves it.
	if plain > anycastOnly*1.05 {
		t.Fatalf("plain prediction median %.1f much worse than anycast-only %.1f", plain, anycastOnly)
	}
	if hybrid > anycastOnly*1.05 {
		t.Fatalf("hybrid median %.1f much worse than anycast-only %.1f", hybrid, anycastOnly)
	}
	// The paper's conclusion: anycast is competitive with traditional
	// geo-DNS for the bulk of clients (the unicast haul penalty means
	// blanket geo-DNS should not dominate anycast).
	if geoDNS < anycastOnly*0.85 {
		t.Fatalf("geo-DNS median %.1f dominates anycast %.1f; anycast should be competitive", geoDNS, anycastOnly)
	}
	// The hybrid redirects fewer clients than the plain scheme.
	redir := func(row int) string { return r.Table.Rows[row][4] }
	if redir(0) != "0.0%" {
		t.Fatalf("anycast-only redirected share = %s", redir(0))
	}
	plainShare, _ := strconv.ParseFloat(strings.TrimSuffix(redir(2), "%"), 64)
	hybridShare, _ := strconv.ParseFloat(strings.TrimSuffix(redir(3), "%"), 64)
	if hybridShare > plainShare {
		t.Fatalf("hybrid redirects %.1f%% > plain %.1f%%", hybridShare, plainShare)
	}
	// The first headline quotes the hybrid's and the plain scheme's p95
	// and redirected share as the table prints them.
	want := []string{r.Table.Rows[3][3], r.Table.Rows[2][3], redir(3), redir(2)}
	if got := headlineNumbers(r.Lines[0].Measured); !slices.Equal(got, want) {
		t.Fatalf("hybrid headline %q quotes %q, want the table's %q", r.Lines[0].Measured, got, want)
	}
}

// headlineNumbers returns the numbers a headline quotes, in order, each
// with its percent sign when it has one. Digits inside a word, such as
// the 95 of "p95", are a label, not a number.
func headlineNumbers(s string) []string {
	return regexp.MustCompile(`\b[0-9]+(\.[0-9]+)?%?`).FindAllString(s, -1)
}

func TestTCPDisruption(t *testing.T) {
	s := testSuite(t)
	r := s.TCPDisruption()
	if r.Table == nil || len(r.Table.Rows) < 5 {
		t.Fatal("tcp table too small")
	}
	// Disruption probability must grow with flow duration, and be tiny
	// for 10-second flows.
	var prev float64
	for i, row := range r.Table.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("disruption probability not monotone at row %d", i)
		}
		prev = v
	}
	tenSec, _ := strconv.ParseFloat(r.Table.Rows[1][1], 64)
	if tenSec > 0.0005 {
		t.Fatalf("10s flow disruption %.6f; short flows should be essentially safe", tenSec)
	}
	day, _ := strconv.ParseFloat(r.Table.Rows[len(r.Table.Rows)-1][1], 64)
	if day <= tenSec {
		t.Fatal("day-long flows should be at materially higher risk")
	}
}

func TestLoadShedding(t *testing.T) {
	s := testSuite(t)
	r := s.LoadShedding(4)
	if r.Table == nil {
		t.Fatal("no table")
	}
	rows := map[string]string{}
	for _, row := range r.Table.Rows {
		rows[row[0]] = row[1]
	}
	if _, bad := rows["error"]; bad {
		t.Fatalf("load shedding errored: %s", rows["error"])
	}
	before, _ := strconv.ParseFloat(rows["hot utilization before shedding"], 64)
	after, _ := strconv.ParseFloat(rows["max utilization after shedding"], 64)
	if before <= 1 {
		t.Fatalf("flash crowd did not overload the hot site (util %.2f)", before)
	}
	if after >= before {
		t.Fatalf("shedding did not reduce max utilization: %.2f -> %.2f", before, after)
	}
	shed, _ := strconv.ParseFloat(rows["hot site shed fraction"], 64)
	if shed <= 0 {
		t.Fatal("hot site should shed")
	}
}

func TestExportCSVAndGnuplot(t *testing.T) {
	s := testSuite(t)
	dir := t.TempDir()
	fig := s.Figure7()
	csvPath, err := ExportCSV(fig, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 8 { // header + 7 days
		t.Fatalf("fig7 CSV has %d lines, want 8", len(lines))
	}
	if !strings.HasPrefix(lines[0], "x,") {
		t.Fatalf("bad CSV header %q", lines[0])
	}
	gpPath, err := ExportGnuplot(fig, dir)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := os.ReadFile(gpPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plot ", "fig7.csv", "set xlabel"} {
		if !strings.Contains(string(gp), want) {
			t.Fatalf("gnuplot script missing %q", want)
		}
	}
	// Tables export as CSV but not gnuplot.
	table := CDNSizeTable()
	if _, err := ExportCSV(table, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ExportGnuplot(table, dir); err == nil {
		t.Fatal("gnuplot export of a table should fail")
	}
	if _, err := os.Stat(filepath.Join(dir, "cdn-table.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestExportCSVEscaping(t *testing.T) {
	r := Report{ID: "esc", Table: &tableWithComma}
	dir := t.TempDir()
	p, err := ExportCSV(r, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(p)
	if !strings.Contains(string(data), `"a,b"`) {
		t.Fatalf("comma not escaped: %s", data)
	}
}

var tableWithComma = func() (t stats.Table) {
	t.Title = "esc"
	t.Columns = []string{"a,b", "c"}
	t.Rows = [][]string{{`say "hi"`, "x"}}
	return
}()

func TestDeploymentDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := sim.DefaultConfig(31)
	cfg.Prefixes = 800
	cfg.Days = 2
	r, err := DeploymentDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 3 {
		t.Fatalf("density rows = %d, want 3", len(r.Table.Rows))
	}
	// Median distance must grow as the deployment thins.
	var meds []float64
	for _, row := range r.Table.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		meds = append(meds, v)
	}
	if !(meds[0] < meds[1] && meds[1] < meds[2]) {
		t.Fatalf("median distances not increasing with sparsity: %v", meds)
	}
	// Front-end counts must decrease.
	var fes []int
	for _, row := range r.Table.Rows {
		v, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		fes = append(fes, v)
	}
	if !(fes[0] > fes[1] && fes[1] > fes[2]) {
		t.Fatalf("front-end counts not decreasing: %v", fes)
	}
	// The headline quotes the median column as the table prints it.
	var want []string
	for _, row := range r.Table.Rows {
		want = append(want, row[2])
	}
	if len(r.Lines) != 1 {
		t.Fatalf("density headlines = %d, want 1", len(r.Lines))
	}
	if got := headlineNumbers(r.Lines[0].Measured); !slices.Equal(got, want) {
		t.Fatalf("density headline %q quotes %q, want the table's %q", r.Lines[0].Measured, got, want)
	}
}

func TestCatchments(t *testing.T) {
	s := testSuite(t)
	r := s.Catchments(10)
	if r.Table == nil || len(r.Table.Rows) == 0 {
		t.Fatal("no catchment rows")
	}
	if len(r.Table.Rows) > 10 {
		t.Fatalf("topN not respected: %d rows", len(r.Table.Rows))
	}
	// Volume shares must be sorted descending.
	var prev float64 = 101
	for _, row := range r.Table.Rows {
		var share float64
		if _, err := fmt.Sscanf(row[2], "%f%%", &share); err != nil {
			t.Fatalf("bad share cell %q", row[2])
		}
		if share > prev {
			t.Fatal("catchment rows not sorted by volume share")
		}
		prev = share
		// Median <= p90 distance.
		med, _ := strconv.ParseFloat(row[3], 64)
		p90, _ := strconv.ParseFloat(row[4], 64)
		if med > p90 {
			t.Fatalf("median %v above p90 %v for %s", med, p90, row[0])
		}
	}
	if len(r.Lines) == 0 {
		t.Fatal("no imbalance headline")
	}
}
