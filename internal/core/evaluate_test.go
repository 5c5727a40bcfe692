package core

import (
	"reflect"
	"testing"

	"anycastcdn/internal/units"
)

// TestGroupSamples feeds interleaved, out-of-order observations of three
// clients and checks the grouped day's order and the per-client fields.
func TestGroupSamples(t *testing.T) {
	obs := []Observation{
		{ClientID: 30, LDNS: 7, Target: Target{Site: 9}, RTTms: 40, Slot: 2},
		{ClientID: 10, LDNS: 1, Target: AnycastTarget, RTTms: 25, Slot: 0},
		{ClientID: 30, LDNS: 7, Target: Target{Site: 4}, RTTms: 31, Slot: 1},
		{ClientID: 10, LDNS: 1, Target: Target{Site: 5}, RTTms: 12, Slot: 1},
		{ClientID: 20, LDNS: 3, Target: Target{Site: 2}, RTTms: 60, Slot: 3},
		{ClientID: 10, LDNS: 2, Target: Target{Site: 3}, RTTms: 18, Slot: 2},
		{ClientID: 30, LDNS: 7, Target: AnycastTarget, RTTms: 33, Slot: 0},
		{ClientID: 10, LDNS: 2, Target: AnycastTarget, RTTms: 21, Slot: 0},
		{ClientID: 30, LDNS: 8, Target: Target{Site: 9}, RTTms: 35, Slot: 1},
		{ClientID: 10, LDNS: 2, Target: Target{Site: 5}, RTTms: 11, Slot: 3},
		{ClientID: 30, LDNS: 6, Target: Target{Site: 4}, RTTms: 30, Slot: 2},
		{ClientID: 10, LDNS: 2, Target: AnycastTarget, RTTms: 23, Slot: 0},
	}
	ms := func(xs ...units.Millis) []units.Millis { return xs }
	want := []ClientSamples{
		{ClientID: 10, LDNS: 2, Closest: Target{Site: 5}, Targets: []TargetSamples{
			{AnycastTarget, ms(21, 23, 25)},
			{Target{Site: 3}, ms(18)},
			{Target{Site: 5}, ms(11, 12)},
		}},
		// No slot-1 observation: Closest stays anycast.
		{ClientID: 20, LDNS: 3, Closest: AnycastTarget, Targets: []TargetSamples{
			{Target{Site: 2}, ms(60)},
		}},
		// The last slot-1 observation (site 9) wins over an earlier one
		// (site 4); LDNS comes from the last observation of any slot.
		{ClientID: 30, LDNS: 6, Closest: Target{Site: 9}, Targets: []TargetSamples{
			{AnycastTarget, ms(33)},
			{Target{Site: 4}, ms(30, 31)},
			{Target{Site: 9}, ms(35, 40)},
		}},
	}
	if got := GroupSamples(obs); !reflect.DeepEqual(got, want) {
		t.Fatalf("GroupSamples =\n%+v\nwant\n%+v", got, want)
	}
	if got := GroupSamples(nil); len(got) != 0 {
		t.Fatalf("GroupSamples(nil) = %+v, want empty", got)
	}
}
