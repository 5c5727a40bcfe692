// Package units defines the two physical dimensions the reproduction
// measures everything in: latency in milliseconds and distance in
// kilometers. Both are defined types over float64, so a km value can no
// longer flow silently into a ms comparison — mixing them is a compile
// error, and the unitsafety analyzer (internal/analysis) additionally
// rejects explicit cross-unit conversions that bypass Float().
//
// The types deliberately carry no String method: every render path in
// the repo formats with explicit float verbs (%.0f, %.1f, %g), and a
// Stringer would change %v output and break replay identity.
package units

// Millis is a latency or latency difference in milliseconds.
type Millis float64

// Kilometers is a great-circle or backbone distance in kilometers.
type Kilometers float64

// Float returns the raw float64 value. Use it at arithmetic boundaries
// that genuinely leave the dimension (scaling by a dimensionless factor,
// dividing by a rate) — it is the one sanctioned escape hatch, and the
// unitsafety analyzer treats any other cross-unit route as a violation.
func (m Millis) Float() float64 { return float64(m) }

// Float returns the raw float64 value.
func (k Kilometers) Float() float64 { return float64(k) }
