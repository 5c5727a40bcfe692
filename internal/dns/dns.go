// Package dns models the DNS side of the paper's measurement system: the
// LDNS resolvers clients use, the client→LDNS mapping, and the CDN's
// authoritative nameserver logic that picks which front-ends each beacon
// execution measures (§3.3).
//
// LDNS placement matters twice. First, the authoritative server only knows
// the LDNS (not the client), so front-end candidates are ranked by
// geolocated LDNS position. Second, LDNS-grained prediction (Figure 9)
// degrades exactly when one LDNS serves clients spread over a wide area.
// Following the end-user-mapping numbers the paper cites: most clients use
// an ISP resolver near them, a minority are served from a distant ISP hub,
// and ~8% of demand uses public resolvers.
package dns

import (
	"fmt"
	"sync"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

// LDNSKind classifies a resolver.
type LDNSKind int

// Resolver kinds.
const (
	// ISPLocal is an ISP resolver in the client's own metro.
	ISPLocal LDNSKind = iota
	// ISPHub is an ISP resolver at the ISP's national hub, possibly far
	// from the client.
	ISPHub
	// Public is a public resolver (the paper's Google Public DNS /
	// OpenDNS case) serving geographically disparate clients.
	Public
)

func (k LDNSKind) String() string {
	switch k {
	case ISPLocal:
		return "isp-local"
	case ISPHub:
		return "isp-hub"
	case Public:
		return "public"
	default:
		return fmt.Sprintf("LDNSKind(%d)", int(k))
	}
}

// LDNSID identifies a resolver in a Mapping.
type LDNSID int

// LDNS is one resolver.
type LDNS struct {
	ID    LDNSID
	Name  string
	Kind  LDNSKind
	Point geo.Point
}

// MapperConfig controls LDNS assignment.
type MapperConfig struct {
	Seed uint64
	// PublicFrac is the fraction of clients using a public resolver.
	PublicFrac float64
	// HubFrac is the fraction of non-public clients served from their
	// ISP's distant hub resolver instead of a metro-local one.
	HubFrac float64
}

// DefaultMapperConfig matches the demand split the paper cites: ~8%
// public-resolver demand, and ~11-12% of the rest further than 500 km from
// their LDNS.
func DefaultMapperConfig(seed uint64) MapperConfig {
	return MapperConfig{Seed: seed, PublicFrac: 0.08, HubFrac: 0.12}
}

// publicResolverMetros hosts the public resolver deployment: a handful of
// global sites; each client uses the nearest.
var publicResolverMetros = []string{
	"san-francisco", "washington", "dallas", "london", "frankfurt",
	"singapore", "tokyo", "sao-paulo",
}

// PublicResolvers returns the public-resolver deployment as standalone
// LDNS records with IDs baseID, baseID+1, … in catalog order. The
// fault-injection layer (internal/faults) uses this to model an ISP
// resolver outage: affected clients fall back to the nearest public
// resolver, and the out-of-range IDs keep the authoritative candidate
// cache for fallback resolvers separate from the mapping's own.
func PublicResolvers(metros []geo.Metro, baseID LDNSID) ([]LDNS, error) {
	metroByName := map[string]geo.Metro{}
	for _, m := range metros {
		metroByName[m.Name] = m
	}
	out := make([]LDNS, 0, len(publicResolverMetros))
	for i, name := range publicResolverMetros {
		m, ok := metroByName[name]
		if !ok {
			return nil, fmt.Errorf("dns: public resolver metro %q missing from catalog", name)
		}
		out = append(out, LDNS{
			ID:    baseID + LDNSID(i),
			Name:  "fallback-public-" + name,
			Kind:  Public,
			Point: m.Point,
		})
	}
	return out, nil
}

// Mapping is the realized client→LDNS assignment.
type Mapping struct {
	Resolvers []LDNS
	// ClientLDNS[i] is the resolver of the client with global ID Base+i.
	ClientLDNS []LDNSID
	// Base is the global client ID of ClientLDNS[0]: zero for a mapping
	// over a full population, the shard's lower bound for one built by a
	// RangeMapper over a client range.
	Base uint64
}

// RangeMapper builds a Mapping one client at a time, storing assignments
// only for clients in [lo, hi). Resolver identity is shared: all clients
// of one (ISP, metro) share the local resolver, all hub clients of an ISP
// share its hub resolver, and public-resolver clients share the nearest
// public site.
//
// Each client is mapped in two steps. Key draws the client's resolver
// from its own substream and is safe to call concurrently; Intern turns
// the key into a resolver ID and must see every client of the population
// in ID order. A distributed worker therefore keys and interns EVERY
// client, not just its own: resolver IDs are interned in first-encounter
// order, and the authoritative nameserver keys its geolocation draws by
// resolver ID, so a shard that interned only its own clients' resolvers
// would geolocate the same resolver differently than the single-process
// build and the beacon candidate sets would diverge. Interning everything
// in order keeps Resolvers — contents and IDs — identical on every
// process.
type RangeMapper struct {
	cfg         MapperConfig
	isps        *topology.ISPModel
	metros      []geo.Metro
	metroByName map[string]geo.Metro
	publicPts   []geo.Point
	publicSet   *geo.PointSet
	lo, hi      uint64
	mp          *Mapping
	index       map[string]LDNSID
	// byKey caches each resolver's ID by its key, so a client whose
	// resolver was seen before costs one map lookup: no name formatting,
	// hub search or name lookup.
	byKey map[ResolverKey]LDNSID
}

// ResolverKey is what a client's resolver is derived from: the kind, and
// the ISP and client metro (ISPLocal), the ISP (ISPHub) or the public
// site's index (Public). Distinct keys that format to the same resolver
// name still reach one resolver through the name index.
type ResolverKey struct {
	kind LDNSKind
	isp  topology.ISPID
	// site is the public site's index; metro is the client metro's index
	// in the mapper's catalog.
	site, metro int
}

// NewRangeMapper prepares a mapper that records assignments for global
// client IDs in [lo, hi). The metros are the catalog the clients were
// generated over: a client's Slot.Metro indexes it.
func NewRangeMapper(isps *topology.ISPModel, metros []geo.Metro, cfg MapperConfig, lo, hi uint64) (*RangeMapper, error) {
	if hi < lo {
		return nil, fmt.Errorf("dns: mapper range [%d, %d) is inverted", lo, hi)
	}
	metroByName := map[string]geo.Metro{}
	for _, m := range metros {
		metroByName[m.Name] = m
	}
	var publicPts []geo.Point
	for _, name := range publicResolverMetros {
		m, ok := metroByName[name]
		if !ok {
			return nil, fmt.Errorf("dns: public resolver metro %q missing from catalog", name)
		}
		publicPts = append(publicPts, m.Point)
	}
	return &RangeMapper{
		cfg:         cfg,
		isps:        isps,
		metros:      metros,
		metroByName: metroByName,
		publicPts:   publicPts,
		publicSet:   geo.NewPointSet(publicPts),
		lo:          lo,
		hi:          hi,
		mp:          &Mapping{ClientLDNS: make([]LDNSID, hi-lo), Base: lo},
		index:       map[string]LDNSID{},
		byKey:       map[ResolverKey]LDNSID{},
	}, nil
}

// Key is a client's first mapping step: it draws the client's resolver
// kind from its "ldns" substream and returns its resolver's key. Only a
// public-resolver client's key depends on where the client is, so only
// then does Key read s.Point. s must have been drawn (clients.Generator
// Draw). Safe for concurrent use.
//
//perf:hotpath
func (rm *RangeMapper) Key(s *clients.Slot) ResolverKey {
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(rm.cfg.Seed, labelLDNS, s.ID))
	switch {
	case rs.Bool(rm.cfg.PublicFrac):
		pi, _ := rm.publicSet.Nearest(s.Point())
		return ResolverKey{kind: Public, site: pi}
	case rs.Bool(rm.cfg.HubFrac):
		return ResolverKey{kind: ISPHub, isp: s.ISP}
	default:
		return ResolverKey{kind: ISPLocal, isp: s.ISP, metro: s.Metro}
	}
}

// Intern is a client's second mapping step: it assigns the client the
// resolver of its key, interning the resolver on the key's first
// encounter. Clients must arrive in ascending global-ID order, covering
// every ID the population defines. Assignments are stored only for
// clients inside the mapper's range.
func (rm *RangeMapper) Intern(id uint64, key ResolverKey) {
	rid, ok := rm.byKey[key]
	if !ok {
		rid = rm.internKey(key)
		rm.byKey[key] = rid
	}
	if id >= rm.lo && id < rm.hi {
		rm.mp.ClientLDNS[id-rm.lo] = rid
	}
}

// internKey formats the name of a key's resolver, places it, and interns
// it by name. Intern calls it on a key's first encounter only.
func (rm *RangeMapper) internKey(key ResolverKey) LDNSID {
	switch key.kind {
	case Public:
		return rm.intern("public-"+publicResolverMetros[key.site], Public, rm.publicPts[key.site])
	case ISPHub:
		isp := rm.isps.ISP(key.isp)
		// The hub resolver sits at the ISP's primary hub peering
		// metro; approximate by the heaviest metro of the country.
		hub := heaviestMetroOfCountry(rm.metros, isp.Country)
		return rm.intern(fmt.Sprintf("%s-hub", isp.Name), ISPHub, hub.Point)
	default:
		name := rm.metros[key.metro].Name
		isp := rm.isps.ISP(key.isp)
		return rm.intern(fmt.Sprintf("%s-%s", isp.Name, name), ISPLocal, rm.metroByName[name].Point)
	}
}

// labelLDNS is the precomputed label of each client's resolver draw.
var labelLDNS = xrand.NewLabel("ldns")

func (rm *RangeMapper) intern(name string, kind LDNSKind, pt geo.Point) LDNSID {
	if id, ok := rm.index[name]; ok {
		return id
	}
	id := LDNSID(len(rm.mp.Resolvers))
	rm.mp.Resolvers = append(rm.mp.Resolvers, LDNS{ID: id, Name: name, Kind: kind, Point: pt})
	rm.index[name] = id
	return id
}

// Mapping returns the built mapping. No client may be interned
// afterwards.
func (rm *RangeMapper) Mapping() *Mapping { return rm.mp }

func heaviestMetroOfCountry(metros []geo.Metro, country string) geo.Metro {
	var best geo.Metro
	for _, m := range metros {
		if m.Country == country && m.Weight > best.Weight {
			best = m
		}
	}
	return best
}

// Resolver returns the resolver of a client by global client ID; the ID
// must lie inside the mapping's [Base, Base+len(ClientLDNS)) range.
func (m *Mapping) Resolver(clientID uint64) LDNS {
	return m.Resolvers[m.ClientLDNS[clientID-m.Base]]
}

// Authority is the CDN's authoritative nameserver logic of §3.3: for each
// LDNS it considers the ten front-ends closest to the (geolocated) LDNS as
// candidates, and per beacon execution returns the geographically closest
// candidate plus two distance-weighted random picks.
//
// Safe for concurrent use: the per-LDNS candidate cache is guarded by mu;
// the deployment (with its backbone's front-end set), geo database and
// rank tables are read-only after construction. mu is a leaf lock —
// never held across the geolocation or distance computations, or while
// acquiring any other mutex — so it imposes no acquisition order.
type Authority struct {
	dep   *cdn.Deployment
	geoDB *geo.DB
	ranks rankTables

	mu    sync.RWMutex
	cache map[LDNSID][]topology.SiteID
}

// DefaultCandidates is the one candidate set size: the authority
// considers the ten front-ends closest to an LDNS (§3.3), and Figure 1
// shows that measuring more would add little.
const DefaultCandidates = 10

// NewAuthority builds an authority over a deployment using the given
// geolocation database to locate resolvers.
func NewAuthority(dep *cdn.Deployment, geoDB *geo.DB) *Authority {
	return &Authority{
		dep:   dep,
		geoDB: geoDB,
		// RankInto returns min(DefaultCandidates, front-ends) sites for
		// every LDNS, so every candidate list has this length.
		ranks: newRankTables(min(DefaultCandidates, len(dep.FrontEnds))),
		cache: map[LDNSID][]topology.SiteID{},
	}
}

// Candidates returns the candidate front-end sites for an LDNS, nearest
// (by geolocated LDNS position) first. The result is cached per LDNS;
// callers must not modify it. Safe for concurrent use.
func (a *Authority) Candidates(l LDNS) []topology.SiteID {
	a.mu.RLock()
	sites, ok := a.cache[l.ID]
	a.mu.RUnlock()
	if ok {
		return sites
	}
	believed := a.geoDB.Locate(ldnsGeoKey(l.ID), l.Point)
	fes := a.dep.FrontEnds
	order := a.dep.Backbone.FrontEndSet().RankInto(believed, DefaultCandidates, nil)
	sites = make([]topology.SiteID, len(order))
	for i, k := range order {
		sites[i] = fes[k].Site
	}
	a.mu.Lock()
	a.cache[l.ID] = sites
	a.mu.Unlock()
	return sites
}

// ldnsGeoKey namespaces LDNS ids in the geolocation database so they don't
// collide with client prefix ids.
func ldnsGeoKey(id LDNSID) uint64 { return 1<<40 | uint64(id) }

// BeaconTargets is the unicast target set of one beacon execution:
// the closest candidate and two weighted-random alternates (§3.3's
// measurements (b), (c) and (d); (a) is the anycast address).
type BeaconTargets struct {
	Closest topology.SiteID
	Random  [2]topology.SiteID
}

// SelectBeaconTargets picks the unicast targets for one beacon execution
// served via the given LDNS. rs drives the randomized choice; the paper
// weights nearer candidates higher ("we return the 3rd closest front-end
// with higher probability than the 4th closest").
func (a *Authority) SelectBeaconTargets(l LDNS, rs *xrand.Stream) BeaconTargets {
	cands := a.Candidates(l)
	r := a.TargetRanks(rs)
	return BeaconTargets{Closest: cands[r[0]], Random: [2]topology.SiteID{cands[r[1]], cands[r[2]]}}
}

// TargetRanks is SelectBeaconTargets' choice as ranks into the LDNS's
// candidate list, which has the same length for every LDNS: the closest
// (rank 0), then the two weighted-random alternates. A caller that
// already holds the list gets the same targets from the same draws.
//
//perf:hotpath
func (a *Authority) TargetRanks(rs *xrand.Stream) [3]int {
	t := &a.ranks
	if t.n <= 1 {
		return [3]int{0, 0, 0}
	}
	u := rs.Float64()
	var v float64
	if t.n > 2 {
		v = rs.Float64()
	}
	return t.at(u, v)
}

// rankTables hold the choice of a beacon's two alternates over an
// n-candidate list, made once instead of per beacon. The alternates are
// drawn by xrand.WeightedChoice over inverse-rank weights — rank r of
// ranks 1..n-1 weighs 1/(r+1) — the second with the first's weight
// zeroed. first is an xrand.Picker over those weights, and second[j] one
// over them with weight j zeroed. A Picker returns WeightedChoice's
// index from the same single Float64 draw, zero weights included, so
// the tables draw what WeightedChoice would and answer the same ranks.
type rankTables struct {
	n      int
	first  xrand.Picker
	second []xrand.Picker
}

// newRankTables builds the tables for an n-candidate list. With n = 2 the
// second alternate is rank 1 without a draw, and with n ≤ 1 neither is
// drawn, so neither builds a table it would not read.
func newRankTables(n int) rankTables {
	t := rankTables{n: n}
	if n < 2 {
		return t
	}
	weights := make([]float64, n-1)
	for i := range weights {
		weights[i] = 1 / float64(i+2) // rank i+1 is the (i+2)-th closest
	}
	t.first, _ = xrand.NewPicker(weights)
	if n == 2 {
		return t
	}
	t.second = make([]xrand.Picker, n-1)
	for j := range t.second {
		w := weights[j]
		weights[j] = 0
		t.second[j], _ = xrand.NewPicker(weights)
		weights[j] = w
	}
	return t
}

// at returns the ranks of the closest candidate and the alternates drawn
// at u and, with more than two candidates, v; n must be at least 2.
//
//perf:hotpath
func (t *rankTables) at(u, v float64) [3]int {
	first := t.first.Index(u)
	if t.n == 2 {
		return [3]int{0, first + 1, 1}
	}
	return [3]int{0, first + 1, t.second[first].Index(v) + 1}
}
