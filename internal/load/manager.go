package load

import "fmt"

// Policy selects the overload response the simulator applies when a
// ManagerConfig activates load management.
type Policy int

const (
	// Static serves every query where anycast lands it and only observes
	// utilization — the paper's measured baseline, blind to load.
	Static Policy = iota
	// FastRoute sheds excess through the layered balancer: each
	// front-end redirects a locally-chosen fraction of its DNS queries
	// to the next anycast ring.
	FastRoute
	// Withdraw applies the naive strategy of §2: an overloaded
	// front-end's route is withdrawn outright, moving all of its traffic
	// at once and inviting the cascading-overload cliff.
	Withdraw
)

// String returns the flag/report spelling of the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case FastRoute:
		return "fastroute"
	case Withdraw:
		return "withdraw"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy inverts String for flag parsing.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "static":
		return Static, nil
	case "fastroute":
		return FastRoute, nil
	case "withdraw":
		return Withdraw, nil
	}
	return 0, fmt.Errorf("load: unknown policy %q (want static, fastroute or withdraw)", s)
}

// The load manager's tuning. Every managed run uses these values:
// capacity derivation reads Headroom, DeriveRings the two ring shares,
// the day loop StepsPerDay, and NewBalancer starts every balancer's
// controller at the watermarks, gain, step cap and heavy-hitter share
// (see Balancer for what each does).
const (
	// Headroom scales each front-end's derived capacity over its
	// fault-free PEAK daily load (a floor at half the fleet-mean peak
	// keeps idle sites able to absorb spillover). Peak, not mean: daily
	// per-prefix volume is lognormally bursty, so a mean-sized site would
	// overload on ordinary fault-free days.
	Headroom = 1.4
	// deepRingShare sizes the regional ring-1 data centers: together
	// they hold this fraction of fleet capacity.
	deepRingShare = 1.0
	// megaShare sizes the terminal mega-DC ring as a multiple of fleet
	// capacity.
	megaShare = 2.0
	// HighWatermark is the utilization above which a site sheds more.
	HighWatermark = 0.85
	lowWatermark  = 0.765
	gain          = 0.25
	maxStep       = 0.2
	heavyShare    = 0.1
	// StepsPerDay bounds the intra-day controller rounds the balancer
	// runs before each day's shed fractions are frozen.
	StepsPerDay = 60
)

// ManagerConfig activates load management inside the simulation day
// loop; a nil *ManagerConfig on sim.Config deactivates the subsystem
// entirely and leaves the simulator byte-identical to a build without
// it. Capacities are always derived from the fault-free load matrix.
type ManagerConfig struct {
	// Policy is the overload response to simulate.
	Policy Policy
}

// Validate checks the policy.
func (c ManagerConfig) Validate() error {
	if c.Policy != Static && c.Policy != FastRoute && c.Policy != Withdraw {
		return fmt.Errorf("load: unknown policy %d", int(c.Policy))
	}
	return nil
}
