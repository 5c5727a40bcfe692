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
	"math"

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
}

// Client returns the client with the given global ID. The ID must lie in
// [Base, Base+len(Clients)); the returned pointer aliases the
// population's storage and must be treated as read-only.
func (p *Population) Client(id uint64) *Client { return &p.Clients[id-p.Base] }

// Generate builds a population over the given metros and ISP model.
// Prefix placement is metro-weighted; ISP assignment is uniform among the
// ISPs of the metro's country.
func Generate(metros []geo.Metro, isps *topology.ISPModel, cfg Config) (*Population, error) {
	return GenerateRange(metros, isps, cfg, 0, cfg.N)
}

// GenerateRange builds the population shard [lo, hi) on one goroutine: it
// drives a Generator over the whole population, block by block. Each
// materialized client is byte-identical to the same client of the full
// population. The world builder drives the same Generator with each
// block's draws spread over its worker pool.
func GenerateRange(metros []geo.Metro, isps *topology.ISPModel, cfg Config, lo, hi int) (*Population, error) {
	g, err := NewGenerator(metros, isps, cfg, lo, hi)
	if err != nil {
		return nil, err
	}
	for {
		blk, err := g.Next()
		if err != nil {
			return nil, err
		}
		if len(blk) == 0 {
			return g.Population(), nil
		}
		for j := range blk {
			g.Draw(&blk[j])
		}
	}
}

// BlockSize is how many consecutive clients one Generator.Next places.
// It bounds the walk's transient memory, whatever the population size.
const BlockSize = 8192

// Generator walks a population in ID order, one block of clients at a
// time, and materializes the clients of [lo, hi). The whole population is
// walked — the metro picker is a single sequential stream, so skipping a
// client would shift every later draw — but a client outside the range is
// stored nowhere, drawn only as far as its ISP and placed only if its
// position is read. That is what lets one worker of a multi-process run
// hold a million-client shard of a many-million-client world, and pay in
// full only for its own clients.
//
// Each block runs in two passes. Next is sequential: it advances the
// picker once per client. Draw makes every other draw, from the client's
// own substream, so the Draw calls of one block may run on any goroutines
// in any order. A client's /24 is arithmetic on its ID
// (netaddr.ClientPrefix), so it takes no pass at all.
type Generator struct {
	cfg    Config
	metros []geo.Metro
	// places[i] is what a client of metros[i] reads of its metro,
	// computed once per metro.
	places []place
	pick   xrand.Picker
	picker *xrand.Stream
	pop    *Population
	lo, hi int
	// next is the ID of the first client of the next block; block holds
	// the current one.
	next  int
	block []Slot
}

// place is a catalog metro as its clients read it: the origin they are
// scattered from and the ISPs of its country.
type place struct {
	origin geo.Origin
	isps   []topology.ISPID
}

// Slot is one client of a Generator's current block. Next sets its ID and
// Metro; Draw sets ISP and, for a client in the generator's range, stores
// the whole Client.
type Slot struct {
	ID uint64
	// Metro indexes the catalog the generator was built over.
	Metro int
	ISP   topology.ISPID

	g *Generator
	// polar and bearing are the client's scatter draws, kept so that a
	// client outside the range is placed only if its Point is read.
	polar   xrand.Polar
	bearing float64
}

// NewGenerator prepares the walk of cfg's population that materializes
// the shard [lo, hi).
func NewGenerator(metros []geo.Metro, isps *topology.ISPModel, cfg Config, lo, hi int) (*Generator, error) {
	if cfg.N <= 0 || cfg.N > netaddr.ClientPrefixes {
		return nil, fmt.Errorf("clients: population size %d outside [1, %d], the client /24s of the address pool",
			cfg.N, netaddr.ClientPrefixes)
	}
	if lo < 0 || hi < lo || hi > cfg.N {
		return nil, fmt.Errorf("clients: shard range [%d, %d) outside population of %d", lo, hi, cfg.N)
	}
	if len(metros) == 0 {
		return nil, fmt.Errorf("clients: empty metro catalog")
	}
	weights := make([]float64, len(metros))
	places := make([]place, len(metros))
	for i, m := range metros {
		weights[i] = m.Weight
		places[i] = place{origin: geo.NewOrigin(m.Point), isps: isps.ForCountry(m.Country)}
	}
	// The picker is WeightedChoice over the fixed metro weights, without
	// re-summing all of them for every client.
	pick, ok := xrand.NewPicker(weights)
	if !ok {
		return nil, fmt.Errorf("clients: no metro weights")
	}
	g := &Generator{
		cfg:    cfg,
		metros: metros,
		places: places,
		pick:   pick,
		picker: xrand.Substream(cfg.Seed, "clients-metro"),
		pop:    &Population{Base: uint64(lo), Clients: make([]Client, hi-lo)},
		lo:     lo,
		hi:     hi,
		block:  make([]Slot, min(BlockSize, cfg.N)),
	}
	for i := range g.block {
		g.block[i].g = g
	}
	return g, nil
}

// Next is a block's sequential pass: it gives each of the next (at most
// BlockSize) clients its metro, in ID order, and returns their slots,
// ready for Draw. It returns no slots once the population is exhausted.
// The slots are reused by the following call.
func (g *Generator) Next() ([]Slot, error) {
	blk := g.block[:min(len(g.block), g.cfg.N-g.next)]
	for j := range blk {
		mi := g.pick.Pick(g.picker)
		if len(g.places[mi].isps) == 0 {
			return nil, fmt.Errorf("clients: country %q has no ISPs", g.metros[mi].Country)
		}
		s := &blk[j]
		s.ID, s.Metro = uint64(g.next+j), mi
	}
	g.next += len(blk)
	return blk, nil
}

// Draw makes a slot's draws from the client's own substream: in full for
// a client in the generator's range, which it stores in the population;
// for any other client, only what the substream must advance past to
// reach the ISP draw (the scatter normal's rejection loop, no Log, Sqrt
// or Exp) and the ISP itself. The volume, the substream's last draw, is
// drawn only for a stored client. Draw is safe to call concurrently for
// distinct slots of the current block.
//
//perf:hotpath
func (g *Generator) Draw(s *Slot) {
	p := &g.places[s.Metro]
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(g.cfg.Seed, labelClient, s.ID))
	s.polar = rs.Polar()
	s.bearing = rs.Float64() * 360
	s.ISP = p.isps[rs.Intn(len(p.isps))]
	if !g.owns(s.ID) {
		return
	}
	m := &g.metros[s.Metro]
	prefix, _ := netaddr.ClientPrefix(int(s.ID)) // NewGenerator bounds N by the pool
	*g.pop.Client(s.ID) = Client{
		ID:      s.ID,
		Prefix:  prefix,
		Point:   g.point(s),
		Metro:   m.Name,
		Region:  m.Region,
		Country: m.Country,
		ISP:     s.ISP,
		Volume:  rs.LogNormal(0, g.cfg.VolumeSigma),
	}
}

// Point is the position of a drawn slot's client: the stored one for a
// client in the generator's range, otherwise computed on each call from
// the draws Draw kept, by the same expression.
//
//perf:hotpath
func (s *Slot) Point() geo.Point {
	if s.g.owns(s.ID) {
		return s.g.pop.Client(s.ID).Point
	}
	return s.g.point(s)
}

// point places a client: its scatter distance, a lognormal around the
// configured median, at its bearing from its metro.
func (g *Generator) point(s *Slot) geo.Point {
	scatter := units.Kilometers(g.cfg.ScatterMedianKm.Float() * s.polar.LogNormal(0, 0.8))
	return g.places[s.Metro].origin.Offset(scatter, s.bearing)
}

func (g *Generator) owns(id uint64) bool { return id >= uint64(g.lo) && id < uint64(g.hi) }

// Population returns the materialized shard. The generator must have
// been walked to the end of the population, each block drawn in full.
func (g *Generator) Population() *Population { return g.pop }

// labelClient is the precomputed label of each client's substream.
var labelClient = xrand.NewLabel("client")

// labelQueries is the precomputed substream label of QueriesOnDay, the one
// clients entry point on the per-client-day hot path.
var labelQueries = xrand.NewLabel("queries")

// dailySigma is the lognormal sigma of a prefix's per-day activity noise.
const dailySigma = 1.1

// QueriesOnDay returns the number of search queries the prefix issues on a
// simulation day: volume scaled by a weekday/weekend activity factor and
// per-day noise. perVolumeQueries converts relative volume into queries.
// The pointer receiver spares the per-client-day callers a copy of the
// whole Client.
func (c *Client) QueriesOnDay(seed uint64, day int, weekend bool, perVolumeQueries float64) int {
	return c.QueriesFrom(c.QueriesPrefix(seed), day, weekend, perVolumeQueries)
}

// QueriesPrefix is the part of the client's QueriesOnDay substream
// derivation that every day shares. A loop over the client's days derives
// it once and passes it to QueriesFrom.
func (c *Client) QueriesPrefix(seed uint64) uint64 {
	return xrand.DeriveSeedL1(seed, labelQueries, c.ID)
}

// QueriesFrom is QueriesOnDay from the client's QueriesPrefix(seed).
//
//perf:hotpath
func (c *Client) QueriesFrom(prefix uint64, day int, weekend bool, perVolumeQueries float64) int {
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
	rs.Reseed(xrand.Extend(prefix, uint64(day)))
	noise := rs.Polar()
	// The fraction of the day's rate rounds up with that probability, so
	// small-volume prefixes still query occasionally. Count evaluates
	// the noise after the rounding draw; the evaluation draws nothing.
	return noise.Count(c.Volume*perVolumeQueries*factor, dailySigma, rs.Float64())
}

// MaxQueriesPerVolume is the largest perVolumeQueries at which every count
// QueriesOnDay can return fits in an int, for a population generated at
// volumeSigma. The largest count is the largest volume, on a weekday, at
// the largest daily noise: perVolumeQueries·exp((volumeSigma +
// dailySigma)·xrand.MaxNorm), ≈ 1.464e16·perVolumeQueries at the
// default VolumeSigma 2.0, which puts the bound at ≈ 629.99.
func MaxQueriesPerVolume(volumeSigma float64) float64 {
	return math.MaxInt / math.Exp((volumeSigma+dailySigma)*xrand.MaxNorm)
}
