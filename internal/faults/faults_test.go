package faults

import (
	"strings"
	"testing"

	"anycastcdn/internal/units"
)

func TestParseScenario(t *testing.T) {
	text := `
# weekend maintenance
drain paris day=2 for=3
flap denver day=4          # one withdraw/restore cycle
ldns-outage europe day=1; inflate south-america day=5 for=2 ms=42.5
`
	sc, err := ParseScenario(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: Drain, Target: "paris", Day: 2, Days: 3},
		{Kind: Flap, Target: "denver", Day: 4, Days: 1},
		{Kind: LDNSOutage, Target: "europe", Day: 1, Days: 1},
		{Kind: Inflate, Target: "south-america", Day: 5, Days: 2, ExtraMs: units.Millis(42.5)},
	}
	if len(sc.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d: %+v", len(sc.Events), len(want), sc.Events)
	}
	for i, e := range want {
		if sc.Events[i] != e {
			t.Errorf("event %d = %+v, want %+v", i, sc.Events[i], e)
		}
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"unknown kind", "melt paris day=1", "unknown event kind"},
		{"missing day", "drain paris for=2", "missing day="},
		{"missing target", "drain day=1 for=2", "missing its target"},
		{"duplicate option", "drain paris day=1 day=2", "duplicate option"},
		{"bad day", "drain paris day=soon", "not an integer"},
		{"bad for", "drain paris day=1 for=long", "not an integer"},
		{"bad ms", "inflate europe day=1 ms=lots", "not a number"},
		{"unknown option", "drain paris day=1 until=9", "unknown option"},
		{"not key=value", "drain paris day=1 loudly", "not key=value"},
		{"ms on drain", "drain paris day=1 ms=5", "only inflate takes ms"},
		{"inflate without ms", "inflate europe day=1", "needs ms > 0"},
		{"inflate negative ms", "inflate europe day=1 ms=-3", "needs ms > 0"},
		{"inflate infinite ms", "inflate europe day=1 ms=1e999", "not a number"},
		{"negative day", "drain paris day=-1", "negative day"},
		{"zero duration", "drain paris day=1 for=0", "non-positive duration"},
		{"negative duration", "drain paris day=1 for=-2", "non-positive duration"},
		{"bad target charset", "drain Paris day=1", "lowercase"},
		{"short clause", "drain", "needs at least"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario(tc.text)
			if err == nil {
				t.Fatalf("ParseScenario(%q) succeeded, want error mentioning %q", tc.text, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseScenarioEmpty(t *testing.T) {
	for _, text := range []string{"", "\n\n", "# only a comment\n", " ; ; "} {
		sc, err := ParseScenario(text)
		if err != nil {
			t.Fatalf("ParseScenario(%q) = %v", text, err)
		}
		if !sc.Empty() {
			t.Fatalf("ParseScenario(%q) produced events: %+v", text, sc.Events)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	scenarios := []Scenario{
		{},
		{Events: []Event{{Kind: Drain, Target: "paris", Day: 0, Days: 1}}},
		{Events: []Event{
			{Kind: Flap, Target: "denver", Day: 3, Days: 2},
			{Kind: LDNSOutage, Target: "asia", Day: 1, Days: 4},
			{Kind: Inflate, Target: "europe", Day: 2, Days: 1, ExtraMs: units.Millis(0.125)},
			{Kind: Inflate, Target: "oceania", Day: 0, Days: 9, ExtraMs: units.Millis(33.333333333333336)},
		}},
	}
	for _, sc := range scenarios {
		text := sc.Format()
		back, err := ParseScenario(text)
		if err != nil {
			t.Fatalf("reparsing %q: %v", text, err)
		}
		if len(back.Events) != len(sc.Events) {
			t.Fatalf("round trip of %q changed event count", text)
		}
		for i := range sc.Events {
			if back.Events[i] != sc.Events[i] {
				t.Fatalf("round trip of %q: event %d = %+v, want %+v", text, i, back.Events[i], sc.Events[i])
			}
		}
	}
}

func TestEventWindow(t *testing.T) {
	e := Event{Kind: Drain, Target: "paris", Day: 3, Days: 2}
	if e.End() != 5 {
		t.Fatalf("End() = %d, want 5", e.End())
	}
	for day, want := range map[int]bool{2: false, 3: true, 4: true, 5: false} {
		if e.ActiveOn(day) != want {
			t.Errorf("ActiveOn(%d) = %v, want %v", day, e.ActiveOn(day), want)
		}
	}
}

func TestScenarioHelpers(t *testing.T) {
	sc := Scenario{Events: []Event{
		{Kind: Inflate, Target: "europe", Day: 2, Days: 3, ExtraMs: 10},
		{Kind: Drain, Target: "paris", Day: 4, Days: 1},
	}}
	if got := sc.MaxDay(); got != 4 {
		t.Fatalf("MaxDay() = %d, want 4", got)
	}
	if got := len(sc.ActiveOn(4)); got != 2 {
		t.Fatalf("ActiveOn(4) has %d events, want 2", got)
	}
	if got := len(sc.ActiveOn(5)); got != 0 {
		t.Fatalf("ActiveOn(5) has %d events, want 0", got)
	}
	if got := sc.Summary(); got != "inflate europe d2+3; drain paris d4+1" {
		t.Fatalf("Summary() = %q", got)
	}
	if got := (Scenario{}).Summary(); got != "no faults" {
		t.Fatalf("empty Summary() = %q", got)
	}
	if (Scenario{}).MaxDay() != -1 {
		t.Fatal("empty MaxDay should be -1")
	}
}

func TestKindString(t *testing.T) {
	if Kind(99).String() != "Kind(99)" {
		t.Fatalf("unknown kind renders %q", Kind(99).String())
	}
	if err := (Event{Kind: Kind(99), Target: "x", Day: 0, Days: 1}).Validate(); err == nil {
		t.Fatal("unknown kind should fail validation")
	}
}
