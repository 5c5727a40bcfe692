package topology

import (
	"fmt"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/xrand"
)

// EgressPolicy is how an ISP chooses the peering point toward the CDN for a
// given client. The mix of policies across ISPs is what makes anycast
// sometimes, but not always, land clients at a nearby front-end.
type EgressPolicy int

// Egress policies observed in the paper's case studies.
const (
	// HotPotato exits at the peering site nearest to the client — the
	// behaviour that makes anycast work well when peering is uniform.
	HotPotato EgressPolicy = iota
	// Centralized carries all of the ISP's traffic to one or two national
	// hub peering sites regardless of client location (the paper's
	// "ISP carrying traffic from a client in Denver to Phoenix" and
	// "Moscow to Stockholm" examples).
	Centralized
	// TieBreak picks among the few nearest peering sites using a stable
	// but geography-blind tie-break (AS-path and router-ID artifacts),
	// modeling "BGP's lack of insight into the underlying topology".
	TieBreak
)

func (p EgressPolicy) String() string {
	switch p {
	case HotPotato:
		return "hot-potato"
	case Centralized:
		return "centralized"
	case TieBreak:
		return "tie-break"
	default:
		return fmt.Sprintf("EgressPolicy(%d)", int(p))
	}
}

// ISPID identifies an ISP.
type ISPID int

// ISP is a client-side access network.
type ISP struct {
	ID      ISPID
	Name    string
	Country string
	Policy  EgressPolicy
	// Hubs are the peering sites a Centralized ISP uses. For other
	// policies Hubs is the LDNS placement hint (regional hub metro).
	Hubs []SiteID
	// SingleInterconnect marks a Centralized ISP that reaches the CDN
	// through exactly one interconnect: ALL its CDN-bound traffic —
	// anycast and the beacon's unicast prefixes alike — is hauled through
	// the hub. Such clients are far from their front-end but see no
	// unicast improvement, because the unicast path shares the detour.
	// Multi-interconnect centralized ISPs misroute only the anycast
	// prefix (a BGP tie-break artifact); their unicast paths are sane.
	SingleInterconnect bool
	// TieBreakSalt makes each TieBreak ISP's blind choice stable but
	// different from other ISPs'.
	TieBreakSalt uint64
}

// ISPModelConfig controls synthetic ISP generation.
type ISPModelConfig struct {
	Seed uint64
	// PerCountry is how many ISPs to create per country present in the
	// metro catalog (minimum 1).
	PerCountry int
	// CentralizedFrac and TieBreakFrac are the probability that a
	// generated ISP uses those policies; the remainder are HotPotato.
	CentralizedFrac float64
	TieBreakFrac    float64
	// TransitAbroadFrac applies to Centralized ISPs in countries with no
	// domestic peering: the probability that such an ISP reaches the CDN
	// through a foreign transit provider's hub (possibly on another
	// continent) rather than the nearest peering site. This models the
	// severe tail of anycast misdirection: regional ISPs whose transit
	// hands traffic to the CDN at the transit provider's home exchange.
	TransitAbroadFrac float64
	// SingleInterconnectFrac is the probability that a Centralized ISP
	// has only one interconnect (see ISP.SingleInterconnect).
	SingleInterconnectFrac float64
}

// DefaultISPModelConfig matches the calibration in DESIGN.md: most ISPs
// behave, a minority exhibit the pathologies of §5.
func DefaultISPModelConfig(seed uint64) ISPModelConfig {
	return ISPModelConfig{
		Seed:                   seed,
		PerCountry:             3,
		CentralizedFrac:        0.35,
		TieBreakFrac:           0.15,
		TransitAbroadFrac:      0.70,
		SingleInterconnectFrac: 0.60,
	}
}

// transitHubMetros are the global exchanges where international transit
// providers interconnect with the CDN.
var transitHubMetros = []string{
	"london", "frankfurt", "new-york", "los-angeles", "miami", "singapore",
}

// ISPModel is the set of generated ISPs, indexable by country for client
// assignment.
type ISPModel struct {
	ISPs      []ISP
	byCountry map[string][]ISPID
}

// BuildISPs generates ISPs for every country in the metro catalog. Each
// ISP's hub is the largest-weight metro of its country that is nearest to a
// peering site (approximating where national carriers concentrate their
// interconnection).
func BuildISPs(b *Backbone, metros []geo.Metro, cfg ISPModelConfig) *ISPModel {
	if cfg.PerCountry < 1 {
		cfg.PerCountry = 1
	}
	// Group metros by country; pick hub candidates by descending weight.
	byCountry := map[string][]geo.Metro{}
	var countries []string
	for _, m := range metros {
		if len(byCountry[m.Country]) == 0 {
			countries = append(countries, m.Country)
		}
		byCountry[m.Country] = append(byCountry[m.Country], m)
	}
	// Resolve the transit hub sites once.
	var transitSites []SiteID
	for _, name := range transitHubMetros {
		if m, ok := geo.FindMetro(name); ok {
			if s, _ := b.NearestSiteByAir(m.Point); s != InvalidSite {
				transitSites = append(transitSites, s)
			}
		}
	}
	// Countries with a domestic peering site are immune to the
	// transit-abroad pathology.
	domesticPeering := map[string]bool{}
	for _, s := range b.Sites {
		if s.Peering {
			domesticPeering[s.Metro.Country] = true
		}
	}
	model := &ISPModel{byCountry: map[string][]ISPID{}}
	for _, country := range countries {
		ms := byCountry[country]
		// Hub metro: the heaviest metro of the country.
		hub := ms[0]
		for _, m := range ms {
			if m.Weight > hub.Weight {
				hub = m
			}
		}
		hubSite, _ := b.NearestSiteByAir(hub.Point)
		for k := 0; k < cfg.PerCountry; k++ {
			id := ISPID(len(model.ISPs))
			rs := xrand.Substream(cfg.Seed, "isp", uint64(id))
			policy := HotPotato
			r := rs.Float64()
			switch {
			case r < cfg.CentralizedFrac:
				policy = Centralized
			case r < cfg.CentralizedFrac+cfg.TieBreakFrac:
				policy = TieBreak
			}
			isp := ISP{
				ID:           id,
				Name:         fmt.Sprintf("as-%s-%d", country, k+1),
				Country:      country,
				Policy:       policy,
				Hubs:         []SiteID{hubSite},
				TieBreakSalt: rs.Uint64(),
			}
			if policy == Centralized {
				isp.SingleInterconnect = rs.Bool(cfg.SingleInterconnectFrac)
			}
			// The severe pathology: a centralized ISP whose transit
			// provider homes its traffic at a distant global exchange.
			// It dominates where the CDN has no domestic peering, but the
			// paper's case studies (Denver→Phoenix, Moscow→Stockholm)
			// show it also occurs where direct peering exists at the
			// source city, so well-peered countries get a reduced rate.
			transitAbroad := false
			if policy == Centralized && len(transitSites) > 0 {
				rate := cfg.TransitAbroadFrac
				if domesticPeering[country] {
					rate /= 3
				}
				if rs.Bool(rate) {
					isp.Hubs = []SiteID{transitSites[rs.Intn(len(transitSites))]}
					transitAbroad = true
				}
			}
			// Most centralized ISPs in large countries run more than one
			// hub: the peering sites nearest their second and third
			// heaviest metros, which bounds how far any client is hauled.
			if policy == Centralized && !transitAbroad {
				probs := []float64{0.65, 0.45}
				for _, m := range topMetrosExcluding(ms, hub.Name, 2) {
					p := probs[0]
					probs = probs[1:]
					if !rs.Bool(p) {
						continue
					}
					s, _ := b.NearestSiteByAir(m.Point)
					if !containsSite(isp.Hubs, s) {
						isp.Hubs = append(isp.Hubs, s)
					}
				}
			}
			model.ISPs = append(model.ISPs, isp)
			model.byCountry[country] = append(model.byCountry[country], id)
		}
	}
	return model
}

// topMetrosExcluding returns up to n heaviest metros of ms excluding the
// named one, in descending weight order.
func topMetrosExcluding(ms []geo.Metro, exclude string, n int) []geo.Metro {
	cand := make([]geo.Metro, 0, len(ms))
	for _, m := range ms {
		if m.Name != exclude {
			cand = append(cand, m)
		}
	}
	// Selection by repeated max keeps this simple; country metro lists
	// are short.
	var out []geo.Metro
	for len(out) < n && len(cand) > 0 {
		best := 0
		for i, m := range cand {
			if m.Weight > cand[best].Weight {
				best = i
			}
		}
		out = append(out, cand[best])
		cand = append(cand[:best], cand[best+1:]...)
	}
	return out
}

func containsSite(sites []SiteID, s SiteID) bool {
	for _, x := range sites {
		if x == s {
			return true
		}
	}
	return false
}

// ForCountry returns the ISP IDs serving a country. Every catalog country
// has at least one.
func (m *ISPModel) ForCountry(country string) []ISPID {
	return m.byCountry[country]
}

// ISP returns the ISP with the given ID.
func (m *ISPModel) ISP(id ISPID) ISP { return m.ISPs[id] }

// Len returns the number of ISPs.
func (m *ISPModel) Len() int { return len(m.ISPs) }
