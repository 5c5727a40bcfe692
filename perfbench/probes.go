package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/core"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/xrand"
)

// The probes run after a traced run's timed part, re-timing single layer
// calls over the run's own outputs.

// probeCore re-times the Predictor.Train and Evaluator.Evaluate calls
// Figure 9 makes: its four lines (ECS or LDNS grouping, median or 75th
// evaluation percentile), each training on day d and evaluating on d+1.
func probeCore(tr *tracer, res *sim.Result) {
	p := tr.begin("probe.core")
	defer tr.end(p)
	days := len(res.Beacons)
	obs := make([][]core.Observation, days)
	for d, ms := range res.Beacons {
		obs[d] = make([]core.Observation, 0, 4*len(ms))
		for _, m := range ms {
			obs[d] = append(obs[d], core.FromMeasurement(m)...)
		}
	}
	vols := res.Volumes()
	pred := core.NewPredictor(core.DefaultConfig())
	for _, g := range []core.Grouping{core.ByPrefix, core.ByLDNS} {
		for _, pctile := range []float64{0.50, 0.75} {
			for d := 0; d+1 < days; d++ {
				s := tr.begin("core.Predictor.Train")
				trained := pred.Train(obs[d], g)
				tr.end(s)
				s = tr.begin("core.Evaluator.Evaluate")
				core.Evaluator{Percentile: pctile, MinSamples: 2}.Evaluate(trained, obs[d+1], vols)
				tr.end(s)
			}
		}
	}
}

// beaconSampleSize bounds the replayed beacon sample.
const beaconSampleSize = 20_000

// beaconTuple is one beacon execution of the run, with the inputs that
// reproduce it.
type beaconTuple struct {
	client clients.Client
	assign bgp.Assignment
	want   beacon.Measurement
}

// probeBeacons replays beacon.Executor.Run on an evenly strided sample of
// the run's beacons, checking each replay reproduces the recorded
// measurement, then times the DNS authority's target selection alone on
// the same sample.
func probeBeacons(tr *tracer, res *sim.Result) error {
	w := res.World
	total := res.TotalBeacons()
	if total == 0 {
		return nil
	}
	stride := max(1, total/beaconSampleSize)
	sample := make([]beaconTuple, 0, min(total, beaconSampleSize+1))
	k := 0
	for _, ms := range res.Beacons {
		for _, m := range ms {
			if k%stride == 0 {
				sample = append(sample, beaconTuple{
					client: *w.Population.Client(m.ClientID),
					assign: res.Assignments[m.ClientID][m.Day],
					want:   m,
				})
			}
			k++
		}
	}

	p := tr.begin("probe.beacon")
	defer tr.end(p)
	got := make([]beacon.Measurement, len(sample))
	s := tr.begin("beacon.Executor.Run")
	for i, t := range sample {
		got[i] = w.Executor.Run(t.client, t.want.Day, t.assign, t.want.QueryID)
	}
	tr.endN(s, len(sample))
	for i, t := range sample {
		if got[i] != t.want {
			return fmt.Errorf("beacon replay of query %d (client %d, day %d) differs from the run's measurement",
				t.want.QueryID, t.client.ID, t.want.Day)
		}
	}

	// The same stream seeding Executor.Run uses, so target selection sees
	// the draws it sees inside a beacon.
	label := xrand.NewLabel("beacon")
	var rs xrand.Stream
	s = tr.begin("dns.Authority.SelectBeaconTargets")
	for _, t := range sample {
		rs.Reseed(xrand.DeriveSeedL1(w.Executor.Seed, label, t.want.QueryID))
		targetSink = w.Authority.SelectBeaconTargets(w.Mapping.Resolver(t.client.ID), &rs)
	}
	tr.endN(s, len(sample))
	return nil
}

// targetSink keeps the timed target selections from being optimised away.
var targetSink dns.BeaconTargets

// probeCaps times capacity derivation over the full population: the load
// matrix of every client, then the capacities derived from it.
func probeCaps(tr *tracer, cfg sim.Config, w *sim.World) error {
	p := tr.begin("probe.caps")
	defer tr.end(p)
	s := tr.begin("sim.ShardLoadMatrix")
	m, err := sim.ShardLoadMatrix(cfg, w, 0, cfg.Prefixes)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("sim.CapsFromLoadMatrix")
	_, err = sim.CapsFromLoadMatrix(cfg, w, m)
	tr.end(s)
	return err
}

// peakRSS is this process's peak resident set in bytes (VmHWM), or 0 if
// the kernel does not report it.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// resetPeakRSS restarts the peak-RSS mark at the current resident set.
// Where the kernel refuses, the peak keeps counting from process start,
// which only overstates it.
func resetPeakRSS() {
	// Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
