package logs

import (
	"math"
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
)

func backbone(t *testing.T) *topology.Backbone {
	t.Helper()
	b, err := topology.Build([]topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "los-angeles", FrontEnd: true, Peering: true},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrontEndChanged(t *testing.T) {
	r := DayRecord{Switched: true, PrevFrontEnd: 1, FrontEnd: 2}
	if !r.FrontEndChanged() {
		t.Fatal("switch with different FE should count")
	}
	r = DayRecord{Switched: true, PrevFrontEnd: 2, FrontEnd: 2}
	if r.FrontEndChanged() {
		t.Fatal("ingress-only switch should not count as a front-end change")
	}
	r = DayRecord{Switched: false, PrevFrontEnd: 1, FrontEnd: 2}
	if r.FrontEndChanged() {
		t.Fatal("no switch event means no change")
	}
}

func TestCumulativeSwitched(t *testing.T) {
	var l Log
	// Client 1: changes FE on day 0. Client 2: changes on day 2.
	// Client 3: never changes. Client 4: switch without FE change.
	l.Append(DayRecord{ClientID: 1, Day: 0, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 5})
	l.Append(DayRecord{ClientID: 1, Day: 1, FrontEnd: 1, Queries: 5})
	l.Append(DayRecord{ClientID: 2, Day: 0, FrontEnd: 0, Queries: 5})
	l.Append(DayRecord{ClientID: 2, Day: 2, FrontEnd: 2, Switched: true, PrevFrontEnd: 0, Queries: 5})
	l.Append(DayRecord{ClientID: 3, Day: 0, FrontEnd: 0, Queries: 5})
	l.Append(DayRecord{ClientID: 4, Day: 1, FrontEnd: 0, Switched: true, PrevFrontEnd: 0, Queries: 5})
	got := l.CumulativeSwitched(3)
	want := []float64{0.25, 0.25, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("CumulativeSwitched = %v, want %v", got, want)
		}
	}
}

func TestCumulativeSwitchedIgnoresZeroQueryRecords(t *testing.T) {
	var l Log
	l.Append(DayRecord{ClientID: 1, Day: 0, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 0})
	got := l.CumulativeSwitched(1)
	if got[0] != 0 {
		t.Fatalf("zero-query client should be invisible, got %v", got)
	}
}

func TestCumulativeSwitchedEmpty(t *testing.T) {
	var l Log
	got := l.CumulativeSwitched(5)
	for _, v := range got {
		if v != 0 {
			t.Fatal("empty log should yield zeros")
		}
	}
}

func TestSwitchDistances(t *testing.T) {
	b := backbone(t)
	var l Log
	l.Append(DayRecord{ClientID: 1, Day: 0, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 1})
	l.Append(DayRecord{ClientID: 2, Day: 0, FrontEnd: 2, Switched: true, PrevFrontEnd: 2, Queries: 1}) // no FE change
	l.Append(DayRecord{ClientID: 3, Day: 1, FrontEnd: 0, Queries: 1})
	ds := l.SwitchDistancesKm(b)
	if len(ds) != 1 {
		t.Fatalf("got %d switch distances, want 1", len(ds))
	}
	wantD := geo.DistanceKm(b.Site(0).Metro.Point, b.Site(1).Metro.Point)
	if math.Abs(ds[0].Float()-wantD.Float()) > 1e-9 {
		t.Fatalf("distance %v, want %v", ds[0], wantD)
	}
}

// TestZeroQuerySwitchInvisibleToBothFigures is the regression test for the
// observability rule shared by Figures 7 and 8: a front-end change on a day
// with zero queries produces no passive-log row in a real CDN, so it must be
// excluded from both the cumulative-switch fraction (Figure 7) and the
// switch-distance sample (Figure 8). SwitchDistancesKm used to include it.
func TestZeroQuerySwitchInvisibleToBothFigures(t *testing.T) {
	b := backbone(t)
	var l Log
	// A silent switch (zero queries) and, for contrast, an observed one.
	l.Append(DayRecord{ClientID: 1, Day: 0, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 0})
	l.Append(DayRecord{ClientID: 2, Day: 0, FrontEnd: 2, Switched: true, PrevFrontEnd: 0, Queries: 3})
	if got := l.CumulativeSwitched(1); math.Abs(got[0]-1.0) > 1e-9 {
		t.Fatalf("Figure 7: only client 2 is observable and it switched, want fraction 1.0, got %v", got)
	}
	ds := l.SwitchDistancesKm(b)
	if len(ds) != 1 {
		t.Fatalf("Figure 8: zero-query switch must be excluded, got %d distances, want 1", len(ds))
	}
	want := geo.DistanceKm(b.Site(0).Metro.Point, b.Site(2).Metro.Point)
	if math.Abs(ds[0].Float()-want.Float()) > 1e-9 {
		t.Fatalf("Figure 8 kept the wrong switch: distance %v, want %v", ds[0], want)
	}
}

func TestAppendAtRoundTrip(t *testing.T) {
	recs := []DayRecord{
		{ClientID: 7, Day: 3, FrontEnd: 2, Switched: true, PrevFrontEnd: 1, Queries: 11},
		{ClientID: 9, Day: 0, FrontEnd: 0, Switched: false, PrevFrontEnd: 0, Queries: 0},
		{ClientID: 1, Day: 29, FrontEnd: 5, Switched: true, PrevFrontEnd: 5, Queries: 1},
	}
	var l Log
	for _, r := range recs {
		l.Append(r)
	}
	if l.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(recs))
	}
	for i, want := range recs {
		if got := l.At(i); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
}

func TestExtendSetAndAt(t *testing.T) {
	var l Log
	l.Append(DayRecord{ClientID: 1, Day: 0, Queries: 1})
	base := l.Extend(2)
	if base != 1 {
		t.Fatalf("Extend base = %d, want 1", base)
	}
	if l.Len() != 3 {
		t.Fatalf("Len after Extend = %d, want 3", l.Len())
	}
	want1 := DayRecord{ClientID: 2, Day: 1, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 4}
	want2 := DayRecord{ClientID: 3, Day: 2, FrontEnd: 2, Queries: 9}
	l.Set(base+1, want2)
	l.Set(base, want1)
	want := []DayRecord{{ClientID: 1, Day: 0, Queries: 1}, want1, want2}
	if l.Len() != len(want) {
		t.Fatalf("log holds %d records, want %d", l.Len(), len(want))
	}
	for i := range want {
		if got := l.At(i); got != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got, want[i])
		}
	}
}

func TestGrowPreservesRecords(t *testing.T) {
	var l Log
	r0 := DayRecord{ClientID: 5, Day: 1, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 2}
	l.Append(r0)
	l.Grow(1000)
	if l.Len() != 1 {
		t.Fatalf("Grow changed Len to %d", l.Len())
	}
	if got := l.At(0); got != r0 {
		t.Fatalf("Grow corrupted record: %+v", got)
	}
	l.Grow(-5) // no-op
	l.Append(DayRecord{ClientID: 6, Day: 2, Queries: 3})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestFrontEndShare(t *testing.T) {
	var l Log
	l.Append(DayRecord{ClientID: 1, Day: 0, FrontEnd: 0, Queries: 30})
	l.Append(DayRecord{ClientID: 2, Day: 0, FrontEnd: 1, Queries: 70})
	share := l.FrontEndShare()
	if math.Abs(share[0]-0.3) > 1e-9 || math.Abs(share[1]-0.7) > 1e-9 {
		t.Fatalf("shares = %v", share)
	}
	var empty Log
	if got := empty.FrontEndShare(); len(got) != 0 {
		t.Fatal("empty log should have empty shares")
	}
}

func TestClientDays(t *testing.T) {
	var l Log
	l.Append(DayRecord{ClientID: 1, Day: 3, Queries: 1})
	l.Append(DayRecord{ClientID: 1, Day: 1, Queries: 1})
	l.Append(DayRecord{ClientID: 1, Day: 2, Queries: 0}) // inactive day
	l.Append(DayRecord{ClientID: 2, Day: 0, Queries: 1})
	got := l.ClientDays(1)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("ClientDays = %v", got)
	}
}
