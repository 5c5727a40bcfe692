package dnswire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"
)

// DNS over TCP (RFC 7766): messages are framed with a two-octet length
// prefix. UDP responses that exceed the client's advertised payload size
// are truncated (TC=1) and the client retries over TCP.

// maxTCPMessage is the framing limit (length prefix is 16 bits).
const maxTCPMessage = 0xffff

// writeTCPMessage frames and writes one message.
func writeTCPMessage(w io.Writer, m *Message) error {
	pkt, err := m.Pack()
	if err != nil {
		return err
	}
	if len(pkt) > maxTCPMessage {
		return fmt.Errorf("dnswire: message too large for TCP framing (%d bytes)", len(pkt))
	}
	buf := make([]byte, 2+len(pkt))
	binary.BigEndian.PutUint16(buf, uint16(len(pkt)))
	copy(buf[2:], pkt)
	_, err = w.Write(buf)
	return err
}

// readTCPMessage reads one framed message.
func readTCPMessage(r io.Reader) (*Message, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lenBuf[:])
	if n < 12 {
		return nil, ErrTruncatedMessage
	}
	pkt := make([]byte, n)
	if _, err := io.ReadFull(r, pkt); err != nil {
		return nil, err
	}
	return Unpack(pkt)
}

// TCPServer serves DNS over TCP.
//
// Lifecycle mirrors Server: every accepted connection runs on a tracked
// goroutine, and Close stops accepting, lets in-flight queries finish
// writing their responses (bounded by the drain timeout), and force-closes
// any connection still open after that.
//
// mu guards the closed flag, drain timeout, and the live-connection set.
// mu is a leaf lock: it is never held while acquiring another mutex or
// blocking on connection I/O, so it imposes no acquisition order.
type TCPServer struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	closed bool
	drain  time.Duration
	conns  map[net.Conn]struct{}

	done     chan struct{}  // accept loop exit
	handlers sync.WaitGroup // per-connection handlers
}

// NewTCPServer starts serving framed DNS on a TCP address.
func NewTCPServer(addr string, h Handler) (*TCPServer, error) {
	if h == nil {
		return nil, errors.New("dnswire: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnswire: listen tcp: %w", err)
	}
	s := &TCPServer{
		ln:      ln,
		handler: h,
		drain:   DefaultDrainTimeout,
		conns:   map[net.Conn]struct{}{},
		done:    make(chan struct{}),
	}
	go s.serve()
	return s, nil
}

// Addr returns the server's TCP address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// SetDrainTimeout bounds how long Close waits for in-flight handlers.
func (s *TCPServer) SetDrainTimeout(d time.Duration) {
	s.mu.Lock()
	s.drain = d
	s.mu.Unlock()
}

// Close stops accepting, drains in-flight queries (each connection
// finishes the query it is serving but takes no new ones), and after the
// drain timeout force-closes whatever is left.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	drain := s.drain
	s.mu.Unlock()
	err := s.ln.Close()
	<-s.done
	// The accept loop has exited, so the connection set is final. Nudge
	// idle connections out of their blocking reads; a handler mid-query
	// still gets its response written before it notices the shutdown.
	s.mu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Unix(1, 0)) // wakeup only; the handler exits on the read error
	}
	s.mu.Unlock()
	if !drainWait(&s.handlers, drain) {
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close() // drain timeout expired; abandon the connection
		}
		s.mu.Unlock()
		// Bounded again: a handler stuck inside user code (not a conn
		// read) must not wedge Close forever.
		drainWait(&s.handlers, drain)
	}
	return err
}

func (s *TCPServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *TCPServer) serve() {
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // lost the race with Close; refuse the connection
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handleConn(conn)
		}()
	}
}

// handleConn processes queries on one connection until EOF, error, or
// server shutdown; RFC 7766 allows multiple queries per connection.
func (s *TCPServer) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close() // teardown; the peer sees EOF either way
	}()
	from := addrPortOfTCP(conn.RemoteAddr())
	for {
		if s.isClosed() {
			return
		}
		if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return
		}
		q, err := readTCPMessage(conn)
		if err != nil {
			return
		}
		if q.Response || len(q.Questions) == 0 {
			continue
		}
		resp := s.handler.HandleQuery(q, from)
		if resp == nil {
			continue
		}
		if err := writeTCPMessage(conn, resp); err != nil {
			return
		}
	}
}

func addrPortOfTCP(a net.Addr) netip.AddrPort {
	if ta, ok := a.(*net.TCPAddr); ok {
		if ap, ok := netip.AddrFromSlice(ta.IP); ok {
			return netip.AddrPortFrom(ap.Unmap(), uint16(ta.Port))
		}
	}
	return netip.AddrPort{}
}

// ExchangeTCP sends one query over TCP and reads the matching response.
// Timeouts are retried with backoff on a fresh connection; ctx
// cancellation interrupts an in-flight read immediately.
func ExchangeTCP(ctx context.Context, server string, q *Message) (*Message, error) {
	return ExchangeTCPWithConfig(ctx, server, q, ExchangeConfig{})
}

// ExchangeTCPWithConfig is ExchangeTCP with explicit retry/timeout tuning.
func ExchangeTCPWithConfig(ctx context.Context, server string, q *Message, cfg ExchangeConfig) (*Message, error) {
	return exchangeRetry(ctx, cfg, func(timeout time.Duration) (*Message, error) {
		return exchangeTCPOnce(ctx, server, q, timeout)
	})
}

// exchangeTCPOnce performs a single dial-send-receive attempt over TCP.
func exchangeTCPOnce(ctx context.Context, server string, q *Message, timeout time.Duration) (*Message, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", server)
	if err != nil {
		return nil, fmt.Errorf("dnswire: dial tcp %s: %w", server, err)
	}
	defer conn.Close()
	stop := watchCancel(ctx, conn)
	defer stop()
	if err := conn.SetDeadline(attemptDeadline(ctx, timeout)); err != nil {
		return nil, err
	}
	if err := writeTCPMessage(conn, q); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("dnswire: send tcp: %w", err)
	}
	for {
		resp, err := readTCPMessage(conn)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("dnswire: receive tcp: %w", err)
		}
		if resp.ID != q.ID || !resp.Response {
			continue
		}
		return resp, nil
	}
}

// ExchangeWithFallback queries over UDP and retries over TCP when the
// response arrives truncated (TC=1), per RFC 7766. tcpServer may be empty
// to reuse the UDP server address. A response that is still truncated
// after the TCP retry is returned as-is — there is no bigger transport to
// escalate to, and looping would never terminate.
func ExchangeWithFallback(ctx context.Context, udpServer, tcpServer string, q *Message) (*Message, error) {
	resp, err := Exchange(ctx, udpServer, q)
	if err != nil {
		return nil, err
	}
	if !resp.Truncated {
		return resp, nil
	}
	if tcpServer == "" {
		tcpServer = udpServer
	}
	return ExchangeTCP(ctx, tcpServer, q)
}

// TruncateFor prepares a response for a UDP client whose advertised
// payload size (or the 512-byte classic default) the packed response
// exceeds: answers are dropped and TC is set, telling the client to retry
// over TCP. It returns the (possibly truncated) message to send.
func TruncateFor(resp *Message, udpSize uint16) (*Message, error) {
	if udpSize == 0 {
		udpSize = 512
	}
	pkt, err := resp.Pack()
	if err != nil {
		return nil, err
	}
	if len(pkt) <= int(udpSize) {
		return resp, nil
	}
	t := *resp
	t.Truncated = true
	t.Answers = nil
	t.Authorities = nil
	t.Additionals = nil
	return &t, nil
}
