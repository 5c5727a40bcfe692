// Package faults is the deterministic fault-injection layer of the
// simulator: it composes timed disruption events — the kind the paper's
// operational sections describe but its measurement month happened to
// avoid — into a simulated study, so the analysis machinery of
// internal/experiments can quantify how the anycast CDN degrades and
// recovers.
//
// The event vocabulary mirrors the paper's operational story:
//
//   - drain: a front-end is taken out of service (maintenance drain or
//     failure); hot-potato routing inside the CDN AS falls through to the
//     next-nearest front-end while the peering site keeps announcing the
//     anycast prefix.
//   - flap: a peering site's anycast route is withdrawn for the window
//     and restored at its end (one flap cycle). Clients whose BGP path
//     entered there shift to their next-ranked peering site — the ~20%
//     catchment shift of §4.2/§5, forced mid-study.
//   - ldns-outage: the ISP resolvers of a region go dark; their clients
//     fall back to the nearest public resolver, whose distant geolocation
//     changes which front-end candidates the authoritative DNS returns
//     (§3.3's LDNS-grained view, degraded the way §6's LDNS grouping is).
//   - inflate: transit congestion adds a fixed latency to every path of a
//     region's clients for the window.
//   - surge: a flash crowd multiplies the query volume of a region's
//     clients by a factor for the window — the load-management papers'
//     "large burst of traffic" that static anycast cannot steer away from
//     an overloaded front-end. Query counts scale deterministically
//     (half-up rounding, no randomness consumed), so qps=1 is exactly a
//     no-op.
//
// Everything is pure and replay-deterministic: a Scenario applied to a
// world consumes no randomness, so the same seed plus the same scenario
// is byte-identical across runs, and an empty scenario is byte-identical
// to a fault-free run.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"anycastcdn/internal/units"
)

// Kind classifies a fault event.
type Kind int

// Event kinds, in scenario-text spelling order.
const (
	// Drain takes a front-end out of service for the window.
	Drain Kind = iota
	// Flap withdraws a peering site's anycast route for the window.
	Flap
	// LDNSOutage fails a region's ISP resolvers for the window.
	LDNSOutage
	// Inflate adds ExtraMs to every path of a region's clients.
	Inflate
	// Surge multiplies the query volume of a region's clients by QPS.
	Surge
)

// String returns the scenario-text spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Drain:
		return "drain"
	case Flap:
		return "flap"
	case LDNSOutage:
		return "ldns-outage"
	case Inflate:
		return "inflate"
	case Surge:
		return "surge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kindByName inverts String for the parser.
var kindByName = map[string]Kind{
	"drain":       Drain,
	"flap":        Flap,
	"ldns-outage": LDNSOutage,
	"inflate":     Inflate,
	"surge":       Surge,
}

// Event is one timed disruption.
type Event struct {
	Kind Kind
	// Target names what the event hits: a site metro name for Drain and
	// Flap (e.g. "paris"), a region for LDNSOutage and Inflate (e.g.
	// "europe"). Resolution against the built world happens in
	// NewInjector.
	Target string
	// Day is the first simulated day the event is active.
	Day int
	// Days is the event duration in days (>= 1).
	Days int
	// ExtraMs is the added latency of an Inflate event; zero otherwise.
	ExtraMs units.Millis
	// QPS is the query-volume multiplier of a Surge event; zero
	// otherwise. qps=0 silences the region for the window, qps=1 is a
	// no-op, and fractional values are legal (a brown-out is a surge
	// below 1).
	QPS float64
}

// End returns the first day the event is no longer active.
func (e Event) End() int { return e.Day + e.Days }

// ActiveOn reports whether the event is in effect on the given day.
func (e Event) ActiveOn(day int) bool { return day >= e.Day && day < e.End() }

// Validate checks the event's fields independently of any world.
func (e Event) Validate() error {
	if _, ok := kindByName[e.Kind.String()]; !ok {
		return fmt.Errorf("faults: unknown event kind %d", int(e.Kind))
	}
	if err := validTarget(e.Target); err != nil {
		return err
	}
	if e.Day < 0 {
		return fmt.Errorf("faults: %s %s starts on negative day %d", e.Kind, e.Target, e.Day)
	}
	if e.Days < 1 {
		return fmt.Errorf("faults: %s %s has non-positive duration %d days", e.Kind, e.Target, e.Days)
	}
	ms := e.ExtraMs.Float()
	if math.IsNaN(ms) || math.IsInf(ms, 0) {
		return fmt.Errorf("faults: %s %s has non-finite ms", e.Kind, e.Target)
	}
	if e.Kind == Inflate {
		if ms <= 0 {
			return fmt.Errorf("faults: inflate %s needs ms > 0, got %v", e.Target, ms)
		}
	} else if ms != 0 {
		return fmt.Errorf("faults: %s %s carries ms=%v but only inflate takes ms", e.Kind, e.Target, ms)
	}
	if e.Kind == Surge {
		if math.IsNaN(e.QPS) || math.IsInf(e.QPS, 0) {
			return fmt.Errorf("faults: surge %s has non-finite qps", e.Target)
		}
		if e.QPS < 0 {
			return fmt.Errorf("faults: surge %s needs qps >= 0, got %v", e.Target, e.QPS)
		}
	} else if e.QPS != 0 {
		return fmt.Errorf("faults: %s %s carries qps=%v but only surge takes qps", e.Kind, e.Target, e.QPS)
	}
	return nil
}

// validTarget enforces the token shape the text form can round-trip.
func validTarget(t string) error {
	if t == "" {
		return fmt.Errorf("faults: event with empty target")
	}
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("faults: target %q contains %q; targets are lowercase metro or region tokens", t, r)
		}
	}
	return nil
}

// Format renders the event in canonical scenario text.
func (e Event) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s day=%d for=%d", e.Kind, e.Target, e.Day, e.Days)
	if e.Kind == Inflate {
		fmt.Fprintf(&b, " ms=%s", strconv.FormatFloat(e.ExtraMs.Float(), 'g', -1, 64))
	}
	if e.Kind == Surge {
		fmt.Fprintf(&b, " qps=%s", strconv.FormatFloat(e.QPS, 'g', -1, 64))
	}
	return b.String()
}

// Scenario is an ordered list of fault events. The zero value is the
// empty scenario, which injects nothing.
type Scenario struct {
	Events []Event
}

// Empty reports whether the scenario has no events.
func (s Scenario) Empty() bool { return len(s.Events) == 0 }

// MaxDay returns the last day any event is active, or -1 for an empty
// scenario.
func (s Scenario) MaxDay() int {
	last := -1
	for _, e := range s.Events {
		if e.End()-1 > last {
			last = e.End() - 1
		}
	}
	return last
}

// Validate checks every event.
func (s Scenario) Validate() error {
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Format renders the scenario in canonical text: one event per line, in
// event order. ParseScenario(s.Format()) yields an equal scenario.
func (s Scenario) Format() string {
	lines := make([]string, len(s.Events))
	for i, e := range s.Events {
		lines[i] = e.Format()
	}
	return strings.Join(lines, "\n")
}

// ActiveOn returns the events in effect on the given day, in scenario
// order.
func (s Scenario) ActiveOn(day int) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.ActiveOn(day) {
			out = append(out, e)
		}
	}
	return out
}

// ParseScenario parses the scenario text form. Events are separated by
// newlines or semicolons; '#' starts a comment that runs to end of line.
// Each event is
//
//	<kind> <target> day=<int> [for=<int>] [ms=<float>] [qps=<float>]
//
// where kind is drain, flap, ldns-outage, inflate or surge; for defaults
// to 1; ms is required for inflate and rejected elsewhere; qps is
// required for surge and rejected elsewhere. The parse is strict enough
// that parse → Format → parse round-trips to equal events.
func ParseScenario(text string) (Scenario, error) {
	var sc Scenario
	for ln, rawLine := range strings.Split(text, "\n") {
		if i := strings.IndexByte(rawLine, '#'); i >= 0 {
			rawLine = rawLine[:i]
		}
		for _, raw := range strings.Split(rawLine, ";") {
			raw = strings.TrimSpace(raw)
			if raw == "" {
				continue
			}
			e, err := parseEvent(raw)
			if err != nil {
				return Scenario{}, fmt.Errorf("faults: line %d: %w", ln+1, err)
			}
			sc.Events = append(sc.Events, e)
		}
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// parseEvent parses one event clause.
func parseEvent(raw string) (Event, error) {
	fields := strings.Fields(raw)
	if len(fields) < 3 {
		return Event{}, fmt.Errorf("event %q needs at least '<kind> <target> day=<n>'", raw)
	}
	kind, ok := kindByName[fields[0]]
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q (want drain, flap, ldns-outage, inflate or surge)", fields[0])
	}
	e := Event{Kind: kind, Target: fields[1], Days: 1}
	if strings.Contains(fields[1], "=") {
		return Event{}, fmt.Errorf("event %q is missing its target (got option %q)", raw, fields[1])
	}
	seen := map[string]bool{}
	haveDay := false
	for _, f := range fields[2:] {
		key, val, found := strings.Cut(f, "=")
		if !found {
			return Event{}, fmt.Errorf("option %q is not key=value", f)
		}
		if seen[key] {
			return Event{}, fmt.Errorf("duplicate option %q", key)
		}
		seen[key] = true
		switch key {
		case "day":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Event{}, fmt.Errorf("day=%q is not an integer", val)
			}
			e.Day, haveDay = n, true
		case "for":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Event{}, fmt.Errorf("for=%q is not an integer", val)
			}
			e.Days = n
		case "ms":
			ms, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Event{}, fmt.Errorf("ms=%q is not a number", val)
			}
			e.ExtraMs = units.Millis(ms)
		case "qps":
			if kind != Surge {
				return Event{}, fmt.Errorf("%s takes no qps= option", kind)
			}
			qps, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Event{}, fmt.Errorf("qps=%q is not a number", val)
			}
			e.QPS = qps
		default:
			return Event{}, fmt.Errorf("unknown option %q (want day=, for=, ms= or qps=)", key)
		}
	}
	if !haveDay {
		return Event{}, fmt.Errorf("event %q is missing day=", raw)
	}
	if kind == Surge && !seen["qps"] {
		return Event{}, fmt.Errorf("event %q is missing qps=", raw)
	}
	return e, nil
}

// Summary returns a compact single-line description of the scenario for
// logs and report headers, e.g. "drain paris d2+3; inflate europe d5+1".
func (s Scenario) Summary() string {
	if s.Empty() {
		return "no faults"
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = fmt.Sprintf("%s %s d%d+%d", e.Kind, e.Target, e.Day, e.Days)
	}
	return strings.Join(parts, "; ")
}
