// Package clients generates the synthetic client population: /24 prefixes
// placed around world metros, with heavy-tailed query volumes and ISP
// membership.
//
// The paper aggregates clients by /24 "because they tend to be localized"
// and weights several results by query volume because "the number of
// queries per /24 is heavily skewed across prefixes" (§3.2.2, citing the
// Akamai end-user-mapping study). Both properties are reproduced here: a
// prefix is a single point scattered a few km around its metro, and
// volumes follow a lognormal with a long tail.
package clients

import (
	"fmt"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/netaddr"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// Client is one client /24 prefix.
type Client struct {
	ID      uint64
	Prefix  netaddr.Prefix24
	Point   geo.Point
	Metro   string
	Region  geo.Region
	Country string
	ISP     topology.ISPID
	// Volume is the prefix's relative daily query volume.
	Volume float64
}

// Config controls population generation.
type Config struct {
	Seed uint64
	// N is the number of client /24s to generate.
	N int
	// ScatterMedianKm is the median distance of a prefix from its metro
	// center.
	ScatterMedianKm units.Kilometers
	// VolumeSigma is the lognormal sigma of per-prefix query volume; the
	// paper's volumes are heavily skewed.
	VolumeSigma float64
}

// DefaultConfig returns the population calibration used by experiments.
func DefaultConfig(seed uint64, n int) Config {
	return Config{Seed: seed, N: n, ScatterMedianKm: 140, VolumeSigma: 2.0}
}

// Population is a generated set of clients — the whole world, or one
// contiguous shard of it (GenerateRange).
type Population struct {
	// Base is the global client ID of Clients[0]. A full population has
	// Base 0; a shard built by GenerateRange has Base = lo. Every lookup
	// keyed by a record's global client ID must go through Client.
	Base uint64
	// Clients holds the materialized clients, in ID order; Clients[i] has
	// global ID Base+i.
	Clients []Client
	// TotalVolume is the sum of ALL client volumes, including — for a
	// shard — the clients outside the materialized range: generation
	// walks the whole population either way.
	TotalVolume float64
}

// Client returns the client with the given global ID. The ID must lie in
// [Base, Base+len(Clients)); the returned pointer aliases the
// population's storage and must be treated as read-only.
func (p *Population) Client(id uint64) *Client { return &p.Clients[id-p.Base] }

// Generate builds a population over the given metros and ISP model.
// Prefix placement is metro-weighted; ISP assignment is uniform among the
// ISPs of the metro's country.
func Generate(metros []geo.Metro, isps *topology.ISPModel, cfg Config) (*Population, error) {
	return GenerateRange(metros, isps, cfg, 0, cfg.N, nil)
}

// GenerateRange builds the population shard [lo, hi). The whole
// population is still walked in ID order — the metro picker and the /24
// allocator are single sequential streams, so skipping a client would
// shift every later draw — but only the range is materialized, which is
// what lets one worker of a multi-process run hold a million-client
// shard of a many-million-client world. Every transient client is
// byte-identical to the one Generate would store, and observe — when
// non-nil — is called with each of the N clients in ID order (the hook a
// fused builder uses to derive full-population state, like the LDNS
// mapping's resolver interning, without a second walk).
func GenerateRange(metros []geo.Metro, isps *topology.ISPModel, cfg Config, lo, hi int, observe func(Client)) (*Population, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("clients: non-positive population size %d", cfg.N)
	}
	if lo < 0 || hi < lo || hi > cfg.N {
		return nil, fmt.Errorf("clients: shard range [%d, %d) outside population of %d", lo, hi, cfg.N)
	}
	if len(metros) == 0 {
		return nil, fmt.Errorf("clients: empty metro catalog")
	}
	weights := make([]float64, len(metros))
	for i, m := range metros {
		weights[i] = m.Weight
	}
	// The picker is WeightedChoice over the fixed metro weights, without
	// re-summing all of them for every client.
	pick, ok := xrand.NewPicker(weights)
	if !ok {
		return nil, fmt.Errorf("clients: no metro weights")
	}
	alloc := netaddr.NewAllocator(netaddr.ClientPool)
	pop := &Population{Base: uint64(lo), Clients: make([]Client, 0, hi-lo)}
	picker := xrand.Substream(cfg.Seed, "clients-metro")
	// rs is each client's own substream, reseeded in place so the walk
	// allocates nothing per client.
	var rs xrand.Stream
	for i := 0; i < cfg.N; i++ {
		prefix, ok := alloc.Next()
		if !ok {
			return nil, fmt.Errorf("clients: address pool exhausted at %d clients", i)
		}
		m := &metros[pick.Pick(picker)]
		rs.Reseed(xrand.DeriveSeedL1(cfg.Seed, labelClient, uint64(i)))
		scatter := units.Kilometers(cfg.ScatterMedianKm.Float() * rs.LogNormal(0, 0.8))
		point := m.Offset(scatter, rs.Float64()*360)
		ispIDs := isps.ForCountry(m.Country)
		if len(ispIDs) == 0 {
			return nil, fmt.Errorf("clients: country %q has no ISPs", m.Country)
		}
		c := Client{
			ID:      uint64(i),
			Prefix:  prefix,
			Point:   point,
			Metro:   m.Name,
			Region:  m.Region,
			Country: m.Country,
			ISP:     ispIDs[rs.Intn(len(ispIDs))],
			Volume:  rs.LogNormal(0, cfg.VolumeSigma),
		}
		if observe != nil {
			observe(c)
		}
		if i >= lo && i < hi {
			pop.Clients = append(pop.Clients, c)
		}
		pop.TotalVolume += c.Volume
	}
	return pop, nil
}

// labelClient is the precomputed label of each client's substream in
// GenerateRange.
var labelClient = xrand.NewLabel("client")

// labelQueries is the precomputed substream label of QueriesOnDay, the one
// clients entry point on the per-client-day hot path.
var labelQueries = xrand.NewLabel("queries")

// QueriesOnDay returns the number of search queries the prefix issues on a
// simulation day: volume scaled by a weekday/weekend activity factor and
// per-day noise. perVolumeQueries converts relative volume into queries.
// The pointer receiver spares the per-client-day callers a copy of the
// whole Client.
func (c *Client) QueriesOnDay(seed uint64, day int, weekend bool, perVolumeQueries float64) int {
	factor := 1.0
	if weekend {
		factor = 0.8 // search traffic dips on weekends
	}
	// Daily activity is bursty: a light prefix can be very active on one
	// day and silent the next, which is what lets light /24s appear in
	// the measurable population on only a day or two of the month.
	// Value-type stream: this runs once per client-day, and a heap
	// *Stream here dominates the streaming loop's steady-state allocs.
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(seed, labelQueries, c.ID, uint64(day)))
	noise := rs.LogNormal(0, 1.1)
	n := c.Volume * perVolumeQueries * factor * noise
	q := int(n)
	// Probabilistically round the fraction so small-volume prefixes still
	// query occasionally.
	if rs.Float64() < n-float64(q) {
		q++
	}
	return q
}
