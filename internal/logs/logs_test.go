package logs

import "testing"

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

func TestAppendAtRoundTrip(t *testing.T) {
	recs := []DayRecord{
		{ClientID: 7, Day: 3, FrontEnd: 2, Switched: true, PrevFrontEnd: 1, Queries: 11},
		{ClientID: 9, Day: 0, FrontEnd: 0, Switched: false, PrevFrontEnd: 0, Queries: 0},
		{ClientID: 1, Day: 29, FrontEnd: 5, Switched: true, PrevFrontEnd: 5, Queries: 1},
	}
	var l Log
	base := l.Extend(len(recs))
	for i, r := range recs {
		l.Set(base+i, r)
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
	l.Set(l.Extend(1), DayRecord{ClientID: 1, Day: 0, Queries: 1})
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
	l.Set(l.Extend(1), r0)
	l.grow(1000)
	if l.Len() != 1 {
		t.Fatalf("grow changed Len to %d", l.Len())
	}
	if got := l.At(0); got != r0 {
		t.Fatalf("grow corrupted record: %+v", got)
	}
	l.grow(-5) // no-op
	l.Set(l.Extend(1), DayRecord{ClientID: 6, Day: 2, Queries: 3})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}
