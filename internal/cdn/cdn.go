// Package cdn defines the simulated CDN deployment: which metros host
// front-ends, which are peering-only, the anycast and unicast addressing of
// §3.1 of the paper, and the public deployment catalog used by the §4
// size comparison.
package cdn

import (
	"fmt"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/netaddr"
	"anycastcdn/internal/topology"
)

// FrontEnd is one front-end location with its addressing.
type FrontEnd struct {
	Site topology.SiteID
	Name string
	// Unicast is the /24 announced only at this front-end's closest
	// peering point (§3.1), used by the beacon's test URLs.
	Unicast netaddr.Prefix24
}

// Deployment couples a backbone with front-end addressing.
type Deployment struct {
	Backbone   *topology.Backbone
	FrontEnds  []FrontEnd
	AnycastVIP netaddr.Prefix24
}

// NewDeployment assigns unicast prefixes to every front-end site of the
// backbone.
func NewDeployment(b *topology.Backbone) (*Deployment, error) {
	d := &Deployment{
		Backbone:   b,
		AnycastVIP: netaddr.AnycastPrefix,
	}
	for i, id := range b.FrontEnds() {
		p, ok := netaddr.FrontEndPrefix(i)
		if !ok {
			return nil, fmt.Errorf("cdn: front-end address pool exhausted at site %d", id)
		}
		fe := FrontEnd{
			Site:    id,
			Name:    b.Site(id).Metro.Name,
			Unicast: p,
		}
		d.FrontEnds = append(d.FrontEnds, fe)
	}
	return d, nil
}

// NumFrontEnds returns the number of front-end locations.
func (d *Deployment) NumFrontEnds() int { return len(d.FrontEnds) }

// DefaultSiteSpecs returns the simulated deployment used by the
// experiments: 64 front-end metros, dense in North America and Europe and
// sparser elsewhere — the scale the paper describes as "a few dozen
// locations, most similar to Level3 and MaxCDN" — plus a handful of
// peering-only interconnection sites that create the intradomain detour
// pathology of §5.
func DefaultSiteSpecs() []topology.SiteSpec {
	fe := func(m string) topology.SiteSpec { return topology.SiteSpec{Metro: m, FrontEnd: true, Peering: true} }
	peer := func(m string) topology.SiteSpec { return topology.SiteSpec{Metro: m, FrontEnd: false, Peering: true} }
	return []topology.SiteSpec{
		// North America (22 FE + 3 peering-only).
		fe("new-york"), fe("washington"), fe("boston"), fe("atlanta"),
		fe("miami"), fe("chicago"), fe("dallas"), fe("houston"),
		fe("st-louis"), fe("minneapolis"), fe("phoenix"), fe("los-angeles"),
		fe("san-francisco"), fe("seattle"), fe("portland"), fe("las-vegas"),
		fe("detroit"), fe("philadelphia"), fe("charlotte"), fe("toronto"),
		fe("montreal"), fe("mexico-city"),
		peer("denver"), peer("kansas-city"), peer("salt-lake-city"),

		// Europe (20 FE + 2 peering-only).
		fe("london"), fe("paris"), fe("frankfurt"), fe("amsterdam"),
		fe("madrid"), fe("milan"), fe("stockholm"), fe("copenhagen"),
		fe("warsaw"), fe("vienna"), fe("dublin"), fe("zurich"),
		fe("prague"), fe("budapest"), fe("bucharest"), fe("athens"),
		fe("helsinki"), fe("lisbon"), fe("manchester"), fe("istanbul"),
		peer("brussels"), peer("marseille"),

		// Asia & Middle East (12 FE + 1 peering-only).
		fe("tokyo"), fe("osaka"), fe("seoul"), fe("hong-kong"),
		fe("singapore"), fe("taipei"), fe("mumbai"), fe("chennai"),
		fe("delhi"), fe("kuala-lumpur"), fe("dubai"), fe("tel-aviv"),
		peer("bangkok"),

		// South America (4 FE).
		fe("sao-paulo"), fe("rio-de-janeiro"), fe("buenos-aires"), fe("bogota"),

		// Oceania (3 FE).
		fe("sydney"), fe("melbourne"), fe("auckland"),

		// Africa (3 FE).
		fe("johannesburg"), fe("cape-town"), fe("cairo"),
	}
}

// BuildDefault constructs the default backbone and deployment.
func BuildDefault() (*Deployment, error) {
	b, err := topology.Build(DefaultSiteSpecs(), 3)
	if err != nil {
		return nil, err
	}
	return NewDeployment(b)
}

// Preset names a deployment density. §4 of the paper leaves "how to
// extend these performance results to CDNs with different numbers and
// locations of servers" as future work; the presets make that an
// experiment.
type Preset string

// Deployment presets.
const (
	// PresetDefault is the 64-site deployment (Bing-like scale).
	PresetDefault Preset = "default"
	// PresetMedium keeps roughly every other front-end (~CloudFlare/
	// EdgeCast scale).
	PresetMedium Preset = "medium"
	// PresetSparse keeps roughly every fourth front-end (~CDNify scale).
	PresetSparse Preset = "sparse"
)

// SiteSpecsFor returns the site list of a preset. Sparser presets retain
// every front-end metro whose index is divisible by the stride, always
// keeping the first site of each region so no region goes dark; peering-
// only sites are kept (interconnection does not disappear when servers
// do — which is exactly what makes sparse anycast interesting).
func SiteSpecsFor(p Preset) ([]topology.SiteSpec, error) {
	specs := DefaultSiteSpecs()
	var stride int
	switch p {
	case PresetDefault, "":
		return specs, nil
	case PresetMedium:
		stride = 2
	case PresetSparse:
		stride = 4
	default:
		return nil, fmt.Errorf("cdn: unknown deployment preset %q", p)
	}
	seenRegion := map[string]bool{}
	out := make([]topology.SiteSpec, 0, len(specs))
	feIdx := 0
	for _, sp := range specs {
		if !sp.FrontEnd {
			out = append(out, sp)
			continue
		}
		m, ok := geo.FindMetro(sp.Metro)
		if !ok {
			return nil, fmt.Errorf("cdn: unknown metro %q", sp.Metro)
		}
		region := string(m.Region)
		keep := feIdx%stride == 0 || !seenRegion[region]
		feIdx++
		if !keep {
			// Demote to peering-only: the interconnect remains.
			sp.FrontEnd = false
			out = append(out, sp)
			continue
		}
		seenRegion[region] = true
		out = append(out, sp)
	}
	return out, nil
}

// BuildPreset constructs a deployment for a preset.
func BuildPreset(p Preset) (*Deployment, error) {
	specs, err := SiteSpecsFor(p)
	if err != nil {
		return nil, err
	}
	b, err := topology.Build(specs, 3)
	if err != nil {
		return nil, err
	}
	return NewDeployment(b)
}
