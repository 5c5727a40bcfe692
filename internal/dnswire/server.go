package dnswire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// Handler answers DNS queries. Returning nil drops the query.
type Handler interface {
	HandleQuery(q *Message, from netip.AddrPort) *Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(q *Message, from netip.AddrPort) *Message

// HandleQuery implements Handler.
func (f HandlerFunc) HandleQuery(q *Message, from netip.AddrPort) *Message {
	return f(q, from)
}

// DefaultDrainTimeout bounds how long a server's Close waits for in-flight
// query handlers before giving up on stragglers.
const DefaultDrainTimeout = 2 * time.Second

// Server is a UDP DNS server.
//
// Lifecycle: NewServer spawns the read loop; every query is handled on its
// own tracked goroutine. Close stops the read loop, then drains in-flight
// handlers (bounded by the drain timeout) before releasing the socket, so
// a returned Close guarantees no handler is still running against caller
// state and no response is written to a closed socket.
//
// mu guards the closed flag and drain timeout; the socket and handler are
// set once at construction and safe to read concurrently. mu is a leaf
// lock: it is never held while acquiring any other mutex or calling
// outside the struct, so it imposes no acquisition order.
type Server struct {
	conn    net.PacketConn
	handler Handler

	mu     sync.Mutex
	closed bool
	drain  time.Duration

	done     chan struct{}  // read loop exit
	handlers sync.WaitGroup // in-flight query handlers
}

// NewServer starts serving on a UDP address ("127.0.0.1:0" for an
// ephemeral port). Close releases the socket.
func NewServer(addr string, h Handler) (*Server, error) {
	if h == nil {
		return nil, errors.New("dnswire: nil handler")
	}
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnswire: listen: %w", err)
	}
	s := &Server{conn: pc, handler: h, drain: DefaultDrainTimeout, done: make(chan struct{})}
	go s.serve()
	return s, nil
}

// Addr returns the server's UDP address.
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// SetDrainTimeout bounds how long Close waits for in-flight handlers.
func (s *Server) SetDrainTimeout(d time.Duration) {
	s.mu.Lock()
	s.drain = d
	s.mu.Unlock()
}

// Close shuts the server down: it stops the read loop, waits (up to the
// drain timeout) for in-flight handlers to finish writing their responses,
// and only then closes the socket.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	drain := s.drain
	s.mu.Unlock()
	// Wake the read loop with a past deadline instead of closing the
	// socket: in-flight handlers still need it to write their responses.
	if err := s.conn.SetReadDeadline(time.Unix(1, 0)); err != nil {
		err = s.conn.Close()
		<-s.done
		drainWait(&s.handlers, drain)
		return err
	}
	<-s.done
	drainWait(&s.handlers, drain)
	return s.conn.Close()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) serve() {
	defer close(s.done)
	buf := make([]byte, 4096)
	for {
		n, from, err := s.conn.ReadFrom(buf)
		if err != nil {
			if s.isClosed() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // stray deadline wakeup; not shutting down
			}
			return
		}
		pkt := append([]byte(nil), buf[:n]...)
		fromAP := addrPortOf(from)
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(pkt, from, fromAP)
		}()
	}
}

func (s *Server) handle(pkt []byte, raw net.Addr, from netip.AddrPort) {
	q, err := Unpack(pkt)
	if err != nil || q.Response || len(q.Questions) == 0 {
		return // not a usable query; drop
	}
	resp := s.handler.HandleQuery(q, from)
	if resp == nil {
		return
	}
	// Respect the client's UDP payload limit: oversized responses go out
	// truncated so the client retries over TCP (RFC 7766).
	limit := uint16(0)
	if q.EDNS {
		limit = q.UDPSize
	}
	if t, err := TruncateFor(resp, limit); err == nil {
		resp = t
	}
	out, err := resp.Pack()
	if err != nil {
		// Fall back to SERVFAIL so the client does not hang on timeout.
		sf := q.Reply()
		sf.RCode = RCodeServFail
		if out, err = sf.Pack(); err != nil {
			return
		}
	}
	_, _ = s.conn.WriteTo(out, raw)
}

// drainWait blocks until wg reaches zero or d elapses, reporting whether
// the drain completed. On timeout the helper goroutine lingers only until
// the stragglers it waits on finish.
func drainWait(wg *sync.WaitGroup, d time.Duration) bool {
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		wg.Wait()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-idle:
		return true
	case <-timer.C:
		return false
	}
}

func addrPortOf(a net.Addr) netip.AddrPort {
	if ua, ok := a.(*net.UDPAddr); ok {
		if ap, ok := netip.AddrFromSlice(ua.IP); ok {
			return netip.AddrPortFrom(ap.Unmap(), uint16(ua.Port))
		}
	}
	return netip.AddrPort{}
}

// ExchangeConfig tunes the client-side exchange helpers.
type ExchangeConfig struct {
	// Attempts is the maximum number of tries per call; a try that fails
	// on timeout is retried with backoff. Defaults to 3.
	Attempts int
	// Timeout bounds one attempt. The effective per-attempt deadline is
	// the earlier of this and the caller ctx's deadline. Defaults to 5s.
	Timeout time.Duration
	// Backoff is the delay before the first retry, doubling after each
	// timed-out attempt. Defaults to 50ms.
	Backoff time.Duration
}

func (c ExchangeConfig) withDefaults() ExchangeConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	return c
}

// exchangeRetry runs attempt under cfg's retry policy: timeouts are
// retried with doubling backoff while the caller's ctx is live; any other
// error (and ctx cancellation) returns immediately.
func exchangeRetry(ctx context.Context, cfg ExchangeConfig, attempt func(timeout time.Duration) (*Message, error)) (*Message, error) {
	cfg = cfg.withDefaults()
	backoff := cfg.Backoff
	var lastErr error
	for try := 0; try < cfg.Attempts; try++ {
		if try > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-timer.C:
			}
			backoff *= 2
		}
		resp, err := attempt(cfg.Timeout)
		if err == nil {
			return resp, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !isTimeoutErr(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dnswire: %d attempts timed out: %w", cfg.Attempts, lastErr)
}

func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// watchCancel arms a watcher that yanks conn's deadline into the past the
// moment ctx is canceled, so a read blocked in the kernel returns
// immediately instead of riding out its full deadline. The returned stop
// must be called (deferred) to release the watcher.
func watchCancel(ctx context.Context, conn net.Conn) (stop func()) {
	finished := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// Best-effort wakeup; the unblocked caller surfaces ctx.Err().
			_ = conn.SetDeadline(time.Unix(1, 0))
		case <-finished:
		}
	}()
	return func() { close(finished) }
}

// attemptDeadline derives one attempt's deadline: the caller ctx's
// deadline when it is sooner, else now+timeout.
func attemptDeadline(ctx context.Context, timeout time.Duration) time.Time {
	dl := time.Now().Add(timeout)
	if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
		dl = cdl
	}
	return dl
}

// Exchange sends one query to a UDP DNS server and waits for the matching
// response. Timeouts are retried with backoff (see ExchangeConfig
// defaults); cancellation of ctx interrupts an in-flight read immediately
// and returns ctx.Err().
func Exchange(ctx context.Context, server string, q *Message) (*Message, error) {
	return ExchangeWithConfig(ctx, server, q, ExchangeConfig{})
}

// ExchangeWithConfig is Exchange with explicit retry/timeout tuning.
func ExchangeWithConfig(ctx context.Context, server string, q *Message, cfg ExchangeConfig) (*Message, error) {
	return exchangeRetry(ctx, cfg, func(timeout time.Duration) (*Message, error) {
		return exchangeUDPOnce(ctx, server, q, timeout)
	})
}

// exchangeUDPOnce performs a single dial-send-receive attempt.
func exchangeUDPOnce(ctx context.Context, server string, q *Message, timeout time.Duration) (*Message, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "udp", server)
	if err != nil {
		return nil, fmt.Errorf("dnswire: dial %s: %w", server, err)
	}
	defer conn.Close()
	stop := watchCancel(ctx, conn)
	defer stop()
	if err := conn.SetDeadline(attemptDeadline(ctx, timeout)); err != nil {
		return nil, err
	}
	pkt, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(pkt); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("dnswire: send: %w", err)
	}
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			// A canceled ctx surfaces as a deadline error on the read (the
			// watcher's wakeup); report the cancellation, not the timeout.
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("dnswire: receive: %w", err)
		}
		resp, err := Unpack(buf[:n])
		if err != nil {
			continue // garbled datagram; keep waiting
		}
		if resp.ID != q.ID || !resp.Response {
			continue // not ours
		}
		return resp, nil
	}
}
