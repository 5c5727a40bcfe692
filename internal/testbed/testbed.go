// Package testbed runs a live miniature of the paper's system on the
// loopback interface: real HTTP front-ends (each on its own 127.0.0.0/8
// address, with injected path latency), a real authoritative DNS server
// speaking internal/dnswire with EDNS Client Subnet, and a beacon client
// that performs the §3.2.2 measurement sequence — warm-up request, cached
// DNS, four timed fetches.
//
// "Anycast" on loopback is emulated at the DNS layer: the authoritative
// server answers anycast.cdn.test with the address of whichever front-end
// the simulated BGP would deliver that client to, and www.cdn.test with
// the hybrid predictor's choice (anycast unless a better unicast front-end
// is predicted), which is exactly the deployment §6 proposes.
package testbed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"anycastcdn/internal/dnswire"
	"anycastcdn/internal/topology"
)

// Domain is the testbed's DNS zone.
const Domain = "cdn.test"

// FrontEndSpec declares one front-end of the testbed.
type FrontEndSpec struct {
	Site topology.SiteID
	Name string // metro name; becomes fe-<name>.cdn.test
}

// Config wires the testbed to a routing/latency model.
type Config struct {
	FrontEnds []FrontEndSpec
	// AnycastFor returns the front-end anycast routing delivers a client
	// to.
	AnycastFor func(clientID uint64) topology.SiteID
	// PredictFor returns the redirection decision for a client: the
	// chosen front-end, or ok=false to stay on anycast.
	PredictFor func(clientID uint64) (topology.SiteID, bool)
	// RTT returns the simulated round-trip time between a client and a
	// front-end (anycast=true for the anycast path).
	RTT func(clientID uint64, fe topology.SiteID, anycast bool) time.Duration
	// ClientAddr maps a client to its source address (used for ECS).
	ClientAddr func(clientID uint64) netip.Addr
	// ClientOf inverts ClientAddr's /24 for the DNS handler.
	ClientOf func(prefix netip.Addr) (uint64, bool)
	// TTL is the answer TTL in seconds (short, per §2's small-TTL
	// redirection).
	TTL uint32
}

// Testbed is a running loopback CDN. mu guards the closed flag, making
// Close idempotent; everything else is set once by Start and read-only
// while serving. mu is a leaf lock: Close releases it before shutting
// down the servers it owns, so it is never held while acquiring their
// mutexes and imposes no acquisition order.
type Testbed struct {
	cfg Config
	dns *dnswire.Server

	port    int
	addrs   map[topology.SiteID]netip.Addr
	names   map[string]topology.SiteID // fe-<name> -> site
	servers []*http.Server
	lns     []net.Listener
	serving sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// Start brings up the front-ends and the DNS server.
func Start(cfg Config) (*Testbed, error) {
	if len(cfg.FrontEnds) == 0 {
		return nil, errors.New("testbed: no front-ends")
	}
	if cfg.AnycastFor == nil || cfg.RTT == nil || cfg.ClientAddr == nil || cfg.ClientOf == nil {
		return nil, errors.New("testbed: incomplete config")
	}
	if cfg.TTL == 0 {
		cfg.TTL = 15
	}
	tb := &Testbed{
		cfg:   cfg,
		addrs: map[topology.SiteID]netip.Addr{},
		names: map[string]topology.SiteID{},
	}
	if err := tb.startFrontEnds(); err != nil {
		_ = tb.Close() // best-effort cleanup; the start error is what matters
		return nil, err
	}
	srv, err := dnswire.NewServer("127.0.0.1:0", dnswire.HandlerFunc(tb.handleDNS))
	if err != nil {
		_ = tb.Close()
		return nil, err
	}
	tb.dns = srv
	return tb, nil
}

// startFrontEnds binds each front-end to its own loopback address on one
// shared port (port spaces are per-address on loopback).
func (tb *Testbed) startFrontEnds() error {
	const maxAttempts = 5
	var lastErr error
attempt:
	for try := 0; try < maxAttempts; try++ {
		// Bind the first front-end on an ephemeral port, then reuse that
		// port number on the remaining loopback aliases.
		first, err := net.Listen("tcp", feLoopback(0).String()+":0")
		if err != nil {
			return fmt.Errorf("testbed: listen: %w", err)
		}
		port := first.Addr().(*net.TCPAddr).Port
		lns := []net.Listener{first}
		for i := 1; i < len(tb.cfg.FrontEnds); i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("%s:%d", feLoopback(i), port))
			if err != nil {
				for _, l := range lns {
					_ = l.Close() // unwinding a failed bind attempt
				}
				lastErr = err
				continue attempt
			}
			lns = append(lns, ln)
		}
		tb.port = port
		tb.lns = lns
		for i, fe := range tb.cfg.FrontEnds {
			addr := feLoopback(i)
			tb.addrs[fe.Site] = addr
			tb.names["fe-"+fe.Name] = fe.Site
			srv := &http.Server{Handler: tb.frontEndHandler(fe.Site)}
			tb.servers = append(tb.servers, srv)
			ln := lns[i]
			tb.serving.Add(1)
			go func() {
				defer tb.serving.Done()
				// Serve returns ErrServerClosed after Shutdown; nothing to handle.
				_ = srv.Serve(ln)
			}()
		}
		return nil
	}
	return fmt.Errorf("testbed: could not bind front-end listeners: %w", lastErr)
}

// feLoopback returns the loopback alias of front-end i.
func feLoopback(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{127, 83, byte(1 + i/200), byte(10 + i%200)})
}

// Port returns the shared front-end HTTP port.
func (tb *Testbed) Port() int { return tb.port }

// DNSAddr returns the authoritative server's UDP address.
func (tb *Testbed) DNSAddr() string { return tb.dns.Addr() }

// FrontEndAddr returns the loopback address of a front-end site.
func (tb *Testbed) FrontEndAddr(site topology.SiteID) (netip.Addr, bool) {
	a, ok := tb.addrs[site]
	return a, ok
}

// SiteOfAddr returns the front-end site listening on addr.
func (tb *Testbed) SiteOfAddr(addr netip.Addr) (topology.SiteID, bool) {
	for site, a := range tb.addrs {
		if a == addr {
			return site, true
		}
	}
	return 0, false
}

// Close shuts everything down.
func (tb *Testbed) Close() error {
	tb.mu.Lock()
	if tb.closed {
		tb.mu.Unlock()
		return nil
	}
	tb.closed = true
	tb.mu.Unlock()
	var first error
	if tb.dns != nil {
		first = tb.dns.Close()
	}
	for _, s := range tb.servers {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := s.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	for _, ln := range tb.lns {
		// Shutdown above already closed listeners handed to a server; this
		// catches listeners bound but never served, where double-close
		// errors are expected and meaningless.
		_ = ln.Close()
	}
	tb.serving.Wait()
	return first
}

// frontEndHandler serves beacon probes with injected latency. The probe
// URL is /probe?c=<clientID>&mode=anycast|unicast; the handler sleeps the
// simulated RTT before answering, so a client-side elapsed-time
// measurement observes it.
func (tb *Testbed) frontEndHandler(site topology.SiteID) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/probe", func(w http.ResponseWriter, r *http.Request) {
		clientID, err := strconv.ParseUint(r.URL.Query().Get("c"), 10, 64)
		if err != nil {
			http.Error(w, "missing client id", http.StatusBadRequest)
			return
		}
		anycast := r.URL.Query().Get("mode") == "anycast"
		select {
		case <-time.After(tb.cfg.RTT(clientID, site, anycast)):
		case <-r.Context().Done():
			return
		}
		w.Header().Set("X-Front-End", fmt.Sprintf("%d", site))
		fmt.Fprintf(w, "ok fe=%d client=%d\n", site, clientID)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok fe=%d\n", site)
	})
	return mux
}

// handleDNS answers the testbed zone.
func (tb *Testbed) handleDNS(q *dnswire.Message, _ netip.AddrPort) *dnswire.Message {
	resp := q.Reply()
	qu := q.Questions[0]
	name := strings.ToLower(strings.TrimSuffix(qu.Name, "."))
	if qu.Type != dnswire.TypeA || !strings.HasSuffix(name, "."+Domain) {
		resp.RCode = dnswire.RCodeNXDomain
		return resp
	}
	label := strings.TrimSuffix(name, "."+Domain)
	// Beacon hostnames carry a unique id prefix ("<uid>.anycast"); strip
	// it so cached warm-ups and measurements resolve alike.
	if i := strings.LastIndexByte(label, '.'); i >= 0 {
		label = label[i+1:]
	}
	site, ok := tb.resolveLabel(label, q)
	if !ok {
		resp.RCode = dnswire.RCodeNXDomain
		return resp
	}
	addr, ok := tb.addrs[site]
	if !ok {
		resp.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.Answers = append(resp.Answers, dnswire.ARecord(qu.Name, tb.cfg.TTL, addr))
	return resp
}

// resolveLabel maps a service label to a front-end site.
func (tb *Testbed) resolveLabel(label string, q *dnswire.Message) (topology.SiteID, bool) {
	if site, ok := tb.names[label]; ok {
		return site, true
	}
	clientID, haveClient := tb.clientFromECS(q)
	switch label {
	case "anycast":
		if !haveClient {
			// Without ECS the best the server can do is a default site —
			// the first front-end (the LDNS-granularity problem of §2).
			return tb.cfg.FrontEnds[0].Site, true
		}
		return tb.cfg.AnycastFor(clientID), true
	case "www":
		if haveClient && tb.cfg.PredictFor != nil {
			if fe, ok := tb.cfg.PredictFor(clientID); ok {
				return fe, true
			}
		}
		if !haveClient {
			return tb.cfg.FrontEnds[0].Site, true
		}
		return tb.cfg.AnycastFor(clientID), true
	}
	return 0, false
}

func (tb *Testbed) clientFromECS(q *dnswire.Message) (uint64, bool) {
	if q.ClientSubnet == nil {
		return 0, false
	}
	return tb.cfg.ClientOf(q.ClientSubnet.Addr)
}

// readAll drains a response body; kept tiny so callers stay tidy.
func readAll(r io.Reader) { _, _ = io.Copy(io.Discard, r) }
