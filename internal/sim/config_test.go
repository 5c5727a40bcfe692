package sim_test

import (
	"math"
	"strings"
	"testing"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/latency"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
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
		{"zero candidates means default", mut(func(c *sim.Config) { c.CandidateCount = 0 }), ""},
		{"negative candidates", mut(func(c *sim.Config) { c.CandidateCount = -3 }), "candidate"},
		{"gross-error rate above one", mut(func(c *sim.Config) { c.GeoGrossRate = 2 }), "gross-error rate"},
		{"gross-error rate below zero", mut(func(c *sim.Config) { c.GeoGrossRate = -0.5 }), "gross-error rate"},
		{"NaN gross-error rate", mut(func(c *sim.Config) { c.GeoGrossRate = math.NaN() }), "gross-error rate"},
		{"negative geo median error", mut(func(c *sim.Config) { c.GeoMedianErrKm = -25 }), "geolocation error"},
		{"NaN geo median error", mut(func(c *sim.Config) { c.GeoMedianErrKm = units.Kilometers(math.NaN()) }), "median error"},
		{"negative geo gross error", mut(func(c *sim.Config) { c.GeoGrossKm = -1 }), "geolocation error"},
		{"infinite geo gross error", mut(func(c *sim.Config) { c.GeoGrossKm = units.Kilometers(math.Inf(1)) }), "gross error"},
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
		{"invalid latency config", mut(func(c *sim.Config) {
			l := latency.DefaultConfig()
			l.FiberKmPerMs = 0
			c.Latency = &l
		}), "FiberKmPerMs"},
		{"valid ISP model config", mut(func(c *sim.Config) {
			i := topology.DefaultISPModelConfig(1)
			i.CentralizedFrac, i.TieBreakFrac = 0.6, 0.4
			c.ISPs = &i
		}), ""},
		{"ISP policy fractions above one", mut(func(c *sim.Config) {
			i := topology.DefaultISPModelConfig(1)
			i.CentralizedFrac, i.TieBreakFrac = 0.7, 0.4
			c.ISPs = &i
		}), "TieBreakFrac"},
		{"NaN ISP transit fraction", mut(func(c *sim.Config) {
			i := topology.DefaultISPModelConfig(1)
			i.TransitAbroadFrac = math.NaN()
			c.ISPs = &i
		}), "TransitAbroadFrac"},
		{"negative ISP single-interconnect fraction", mut(func(c *sim.Config) {
			i := topology.DefaultISPModelConfig(1)
			i.SingleInterconnectFrac = -0.1
			c.ISPs = &i
		}), "SingleInterconnectFrac"},
		{"infinite ISP centralized fraction", mut(func(c *sim.Config) {
			i := topology.DefaultISPModelConfig(1)
			i.CentralizedFrac = math.Inf(1)
			c.ISPs = &i
		}), "CentralizedFrac"},
		{"ISP tie-break fraction above one", mut(func(c *sim.Config) {
			i := topology.DefaultISPModelConfig(1)
			i.CentralizedFrac, i.TieBreakFrac = 0, 1.5
			c.ISPs = &i
		}), "TieBreakFrac"},
		{"valid mapper config", mut(func(c *sim.Config) {
			m := dns.DefaultMapperConfig(1)
			m.PublicFrac, m.HubFrac = 1, 0
			c.Mapper = &m
		}), ""},
		{"mapper public fraction above one", mut(func(c *sim.Config) {
			m := dns.DefaultMapperConfig(1)
			m.PublicFrac = 1.2
			c.Mapper = &m
		}), "PublicFrac"},
		{"NaN mapper hub fraction", mut(func(c *sim.Config) {
			m := dns.DefaultMapperConfig(1)
			m.HubFrac = math.NaN()
			c.Mapper = &m
		}), "HubFrac"},
		{"negative mapper hub fraction", mut(func(c *sim.Config) {
			m := dns.DefaultMapperConfig(1)
			m.HubFrac = -0.01
			c.Mapper = &m
		}), "HubFrac"},
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
