package sim_test

import (
	"math"
	"strings"
	"testing"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

func TestConfigValidate(t *testing.T) {
	mut := func(f func(*sim.Config)) sim.Config {
		cfg := testutil.SmallConfig(1)
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name    string
		cfg     sim.Config
		wantErr string // empty means valid
	}{
		{"default small", testutil.SmallConfig(1), ""},
		{"zero workers means GOMAXPROCS", mut(func(c *sim.Config) { c.Workers = 0 }), ""},
		{"zero prefixes", mut(func(c *sim.Config) { c.Prefixes = 0 }), "prefix"},
		{"negative prefixes", mut(func(c *sim.Config) { c.Prefixes = -4 }), "prefix"},
		{"prefixes filling the /24 pool", mut(func(c *sim.Config) { c.Prefixes = 5_308_416 }), ""},
		{"prefixes one past the /24 pool", mut(func(c *sim.Config) { c.Prefixes = 5_308_417 }), "above 5308416"},
		{"zero days", mut(func(c *sim.Config) { c.Days = 0 }), "day"},
		{"negative days", mut(func(c *sim.Config) { c.Days = -1 }), "day"},
		{"negative workers", mut(func(c *sim.Config) { c.Workers = -2 }), "worker"},
		{"negative query rate", mut(func(c *sim.Config) { c.QueriesPerVolume = -1 }), "quer"},
		{"beacon rate above one", mut(func(c *sim.Config) { c.BeaconSampleRate = 1.5 }), "sample rate"},
		{"beacon rate below zero", mut(func(c *sim.Config) { c.BeaconSampleRate = -0.1 }), "sample rate"},
		{"negative beacon cap", mut(func(c *sim.Config) { c.MaxBeaconsPerClientDay = -1 }), "beacon cap"},
		{"NaN beacon rate", mut(func(c *sim.Config) { c.BeaconSampleRate = math.NaN() }), "sample rate"},
		{"NaN query rate", mut(func(c *sim.Config) { c.QueriesPerVolume = math.NaN() }), "quer"},
		{"infinite query rate", mut(func(c *sim.Config) { c.QueriesPerVolume = math.Inf(1) }), "quer"},
		{"default query rate", mut(func(c *sim.Config) { c.QueriesPerVolume = sim.DefaultConfig(1).QueriesPerVolume }), ""},
		{"query rate of the queries-column test", mut(func(c *sim.Config) { c.QueriesPerVolume = 600 }), ""},
		{"query rate just inside the overflow bound", mut(func(c *sim.Config) { c.QueriesPerVolume = 629 }), ""},
		{"query rate just past the overflow bound", mut(func(c *sim.Config) { c.QueriesPerVolume = 631 }), "above 629.99"},
		{"query rate overflowing counts", mut(func(c *sim.Config) { c.QueriesPerVolume = 1e18 }), "overflows an int"},
		{"query rate overflowing every count", mut(func(c *sim.Config) { c.QueriesPerVolume = 1e300 }), "overflows an int"},
		{"scenario event past end", mut(func(c *sim.Config) {
			c.Scenario = &faults.Scenario{Events: []faults.Event{
				{Kind: faults.Drain, Target: "paris", Day: c.Days + 3, Days: 1},
			}}
		}), "ends after day"},
		{"invalid routing config", mut(func(c *sim.Config) {
			r := bgp.DefaultConfig()
			r.StableFrac = 0.9
			c.Routing = &r
		}), "StableFrac"},
		{"invalid scenario event", mut(func(c *sim.Config) {
			c.Scenario = &faults.Scenario{Events: []faults.Event{
				{Kind: faults.Drain, Target: "paris", Day: 1, Days: 0},
			}}
		}), "duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestBuildWorldValidates confirms BuildWorld rejects what Validate
// rejects, so a bad config cannot slip into a run through any entry point.
func TestBuildWorldValidates(t *testing.T) {
	cfg := testutil.SmallConfig(1)
	cfg.Workers = -1
	if _, err := sim.BuildWorld(cfg); err == nil {
		t.Fatal("BuildWorld accepted a config Validate rejects")
	}
	if _, err := sim.Run(cfg); err == nil {
		t.Fatal("Run accepted a config Validate rejects")
	}
}
