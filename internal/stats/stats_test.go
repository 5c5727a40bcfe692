package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestQuantileBasics(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, _ := Quantile(xs, 0.25)
	if math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("Quantile(0.25) = %v, want 2.5", got)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile[float64](nil, 0.5); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("q<0 should error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("q>1 should error")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Error("NaN q should error")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v, err := Quantile(xs, q)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDevCov(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, _ := Mean(xs)
	if m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	sd, _ := StdDev(xs)
	if math.Abs(sd-2) > 1e-9 {
		t.Fatalf("StdDev = %v, want 2", sd)
	}
	cov, _ := CoefficientOfVariation(xs)
	if math.Abs(cov-0.4) > 1e-9 {
		t.Fatalf("CoV = %v, want 0.4", cov)
	}
}

func TestCovErrors(t *testing.T) {
	if _, err := CoefficientOfVariation[float64](nil); err == nil {
		t.Error("empty CoV should error")
	}
	if _, err := CoefficientOfVariation([]float64{0, 0}); err == nil {
		t.Error("zero-mean CoV should error")
	}
}

func TestECDFUnweighted(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := e.CCDF(2); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("CCDF(2) = %v, want 0.25", got)
	}
}

func TestECDFWeighted(t *testing.T) {
	e, err := NewWeightedECDF([]float64{1, 2, 3}, []float64{1, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.P(2); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("weighted P(2) = %v, want 0.2", got)
	}
	if got := e.Quantile(0.5); got != 3 {
		t.Fatalf("weighted median = %v, want 3", got)
	}
}

func TestECDFErrors(t *testing.T) {
	if _, err := NewECDF[float64](nil); err == nil {
		t.Error("empty ECDF should error")
	}
	if _, err := NewWeightedECDF([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewWeightedECDF([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := NewWeightedECDF([]float64{1}, []float64{0}); err == nil {
		t.Error("zero total weight should error")
	}
	if _, err := NewWeightedECDF([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("NaN sample should error")
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	e, _ := NewECDF(xs)
	if got := e.Quantile(0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v, want 1", got)
	}
	if got := e.Quantile(1); got != 10 {
		t.Fatalf("Quantile(1) = %v, want 10", got)
	}
}

func TestECDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		// P is 0 below min, 1 at max, monotone along sorted xs.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		below := math.Nextafter(sorted[0], math.Inf(-1))
		if e.P(below) != 0 || e.P(sorted[len(sorted)-1]) != 1 {
			return false
		}
		prev := 0.0
		for _, x := range sorted {
			p := e.P(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSeries(t *testing.T) {
	e, _ := NewECDF([]float64{1, 2, 3, 4})
	grid := []float64{0, 2, 5}
	s := e.SampleCDF("line", grid)
	if s.Name != "line" || len(s.Points) != 3 {
		t.Fatalf("bad series %+v", s)
	}
	if s.Points[0].Y != 0 || s.Points[1].Y != 0.5 || s.Points[2].Y != 1 {
		t.Fatalf("bad CDF values %+v", s.Points)
	}
	c := e.SampleCCDF("cline", grid)
	for i := range grid {
		if math.Abs(c.Points[i].Y-(1-s.Points[i].Y)) > 1e-12 {
			t.Fatal("CCDF != 1-CDF")
		}
	}
}

func TestGrids(t *testing.T) {
	lin := LinearGrid[float64](0, 10, 5)
	if len(lin) != 6 || lin[0] != 0 || lin[5] != 10 || lin[1] != 2 {
		t.Fatalf("LinearGrid = %v", lin)
	}
	lg := LogGrid[float64](1, 100, 2)
	if len(lg) != 3 || math.Abs(lg[0]-1) > 1e-9 || math.Abs(lg[1]-10) > 1e-9 || math.Abs(lg[2]-100) > 1e-9 {
		t.Fatalf("LogGrid = %v", lg)
	}
	if got := LinearGrid[float64](0, 1, 0); len(got) != 2 {
		t.Fatalf("LinearGrid n<1 = %v", got)
	}
}

func TestFigureRender(t *testing.T) {
	e, _ := NewECDF([]float64{1, 2, 3})
	f := Figure{
		Title:  "Test figure",
		XLabel: "x",
		YLabel: "cdf",
		Series: []Series{e.SampleCDF("a", []float64{1, 2, 3})},
		Notes:  []string{"hello"},
	}
	out := f.Render()
	for _, want := range []string{"Test figure", "a", "note: hello", "0.3333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	empty := Figure{Title: "empty"}
	if !strings.Contains(empty.Render(), "(no series)") {
		t.Error("empty figure render missing placeholder")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:   "CDNs",
		Columns: []string{"name", "locations"},
		Rows:    [][]string{{"level3", "62"}, {"cdnify", "17"}},
		Notes:   []string{"public data"},
	}
	out := tb.Render()
	for _, want := range []string{"CDNs", "level3", "62", "note: public data"} {
		if !strings.Contains(out, want) {
			t.Errorf("table render missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkECDFBuild(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 10007)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewECDF(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDFLookup(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 10007)
	}
	e, _ := NewECDF(xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.P(float64(i % 10007))
	}
}
