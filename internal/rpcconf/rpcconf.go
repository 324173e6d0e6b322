// Package rpcconf implements the configuration RPC of the paper's framework:
// the channel between the RPC client (fed by the topology controller) and
// the RPC server (embedded in the RF-controller). The paper's two message
// kinds are modelled faithfully — switch detection carries the datapath ID
// and port count; link detection carries the two (dpid, port) endpoints and
// the VM interface addresses computed by the topology controller — plus the
// teardown counterparts needed for dynamic networks.
//
// Wire format: length-prefixed JSON over any net.Conn (in-memory pipe or
// TCP). Every message is acknowledged so callers can await application.
//
// Delivery is at-least-once. Client.Send makes one attempt and reports a
// transport failure without retrying; the caller (the intent reconciler)
// retries, and each retry is a fresh Send with a fresh sequence number. A
// message whose ack was lost may therefore be applied twice, which is safe
// because every Handler in the system applies idempotently. The server's
// sequence fence only keeps a stale frame from an abandoned connection from
// overwriting newer configuration.
package rpcconf

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/clock"
)

// Kind discriminates configuration messages.
type Kind string

// Message kinds.
const (
	KindSwitchUp   Kind = "switch-up"
	KindSwitchDown Kind = "switch-down"
	KindLinkUp     Kind = "link-up"
	KindLinkDown   Kind = "link-down"
	// Host attachment is the administrator-supplied part of the
	// configuration (the paper's topology controller holds "a very small
	// part of configurations from the administrator"): which switch ports
	// face end hosts and the gateway address the VM interface should carry.
	KindHostUp   Kind = "host-up"
	KindHostDown Kind = "host-down"
	// Probe carries no configuration; it exists so a reconciler can read the
	// server's epoch while idle and detect restarts (state loss) that would
	// otherwise go unnoticed until the next real change.
	KindProbe Kind = "probe"
)

// Message is one configuration command. Fields are populated per Kind.
type Message struct {
	Kind Kind   `json:"kind"`
	Seq  uint64 `json:"seq"`

	// Switch messages: the paper's "ID of the switch and the number of
	// switch ports".
	DPID  uint64 `json:"dpid,omitempty"`
	Ports int    `json:"ports,omitempty"`

	// Link messages: endpoints plus the addresses for both VM interfaces.
	ADPID uint64 `json:"aDpid,omitempty"`
	APort uint16 `json:"aPort,omitempty"`
	BDPID uint64 `json:"bDpid,omitempty"`
	BPort uint16 `json:"bPort,omitempty"`
	AAddr string `json:"aAddr,omitempty"` // CIDR, e.g. "172.16.0.1/30"
	BAddr string `json:"bAddr,omitempty"`

	// AS annotations of the inter-domain pipeline. A switch message carries
	// the switch's AS (its VM runs bgpd next to ospfd); a link message
	// carries both endpoint ASes, and when they differ the link is an eBGP
	// border: the interfaces go OSPF-passive and each VM gains the other as
	// an eBGP neighbor. Zero means the flat single-domain default.
	ASN  uint32 `json:"asn,omitempty"`
	AASN uint32 `json:"aAsn,omitempty"`
	BASN uint32 `json:"bAsn,omitempty"`
}

// AAddrPrefix parses AAddr.
func (m *Message) AAddrPrefix() (netip.Prefix, error) { return netip.ParsePrefix(m.AAddr) }

// BAddrPrefix parses BAddr.
func (m *Message) BAddrPrefix() (netip.Prefix, error) { return netip.ParsePrefix(m.BAddr) }

// ack confirms application of one message. Epoch identifies the server
// incarnation: a change between two acks means the server restarted (and
// lost its applied state) in between, so previously acknowledged
// configuration must be re-synced.
type ack struct {
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch,omitempty"`
	Err   string `json:"err,omitempty"`
}

const maxFrame = 1 << 20

func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	// Single Write: header and body leave in one frame, so injected
	// per-write loss (LossInjector) drops whole messages, never half a frame.
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(body)))
	copy(buf[4:], body)
	_, err = w.Write(buf)
	return err
}

func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("rpcconf: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// Handler applies one configuration message on the server side (the
// RF-controller). Returning an error propagates to the client's Send.
type Handler func(*Message) error

// epochCounter hands every Server a distinct incarnation number, so a
// restarted server (a fresh Server on the same listener) is distinguishable
// from the one that acknowledged earlier configuration.
var epochCounter atomic.Uint64

// Server is the RPC server embedded in the RF-controller.
type Server struct {
	handler Handler
	epoch   uint64
	wg      sync.WaitGroup
	mu      sync.Mutex
	stopped bool
	applied uint64
	conns   map[net.Conn]struct{}

	// applyMu serializes message application across connections and
	// lastSeq drops stale re-deliveries: a client that redials after a
	// transport error can leave a zombie handler goroutine holding an old
	// message on the abandoned connection; without total ordering that
	// stale apply could overwrite newer configuration.
	applyMu sync.Mutex
	lastSeq uint64

	// deduplicated counts messages acked without applying because their
	// Seq was at or below lastSeq.
	deduplicated atomic.Uint64
}

// NewServer creates a server applying messages with handler.
func NewServer(handler Handler) *Server {
	return &Server{handler: handler, epoch: epochCounter.Add(1),
		conns: make(map[net.Conn]struct{})}
}

// Epoch returns this server incarnation's identifier (stamped on every ack).
func (s *Server) Epoch() uint64 { return s.epoch }

// Applied returns how many messages were applied successfully.
func (s *Server) Applied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Deduplicated returns how many messages were acknowledged without being
// applied because their sequence number was at or below one already
// applied: stale re-deliveries from an abandoned connection, and replays.
func (s *Server) Deduplicated() uint64 { return s.deduplicated.Load() }

// Serve accepts client connections until the listener closes. The Listener
// interface matches ctlkit's (Accept/Close/Addr).
func (s *Server) Serve(l interface {
	Accept() (net.Conn, error)
}) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handleConn(conn)
		}()
	}
}

// Stop closes every active connection and waits for the handlers to finish
// — a stopped (or restarted) server must not keep acknowledging with a
// stale incarnation.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) handleConn(conn net.Conn) {
	for {
		var m Message
		if err := readFrame(conn, &m); err != nil {
			return
		}
		a := ack{Seq: m.Seq, Epoch: s.epoch}
		s.applyMu.Lock()
		stale := m.Seq != 0 && m.Seq <= s.lastSeq
		var err error
		if stale {
			s.deduplicated.Add(1)
		} else {
			if err = s.handler(&m); err == nil {
				// Only successful applies advance the dedup horizon: a
				// retried message whose first attempt failed must be
				// re-applied, not deduplicated into a phantom success.
				s.lastSeq = m.Seq
			}
		}
		s.applyMu.Unlock()
		if err != nil {
			a.Err = err.Error()
		} else if !stale {
			s.mu.Lock()
			s.applied++
			s.mu.Unlock()
		}
		if err := writeFrame(conn, a); err != nil {
			return
		}
	}
}

// DefaultAckTimeout bounds one request/ack exchange (wall time). A wedged
// server-side apply must surface as a transport error, never block the
// sender forever. It is a last-resort liveness bound, set well above any
// legitimate apply latency so it fires only on true wedges.
const DefaultAckTimeout = 10 * time.Second

// Client is the RPC client co-located with the topology controller. It owns
// one connection, dialing lazily and dropping it on any transport failure,
// and delivers messages in call order.
type Client struct {
	dial func() (net.Conn, error)

	mu    sync.Mutex
	conn  net.Conn
	seq   uint64
	epoch uint64 // last server epoch observed in an ack
}

// NewClient creates a client that connects lazily via dial. The clock is
// unused: Send never sleeps, and its ack deadline is wall time.
func NewClient(dial func() (net.Conn, error), _ clock.Clock) *Client {
	return &Client{dial: dial}
}

// ErrRemote wraps handler-side failures.
var ErrRemote = errors.New("rpcconf: remote handler failed")

// Send delivers one message in one attempt and waits for its
// acknowledgement: it dials if there is no connection, writes the frame and
// reads the ack within DefaultAckTimeout of wall time. A transport failure
// or an ack for another message drops the connection and is returned; the
// next Send dials afresh. Retrying is the caller's job. It is safe for
// concurrent use; messages are serialized in call order.
func (c *Client) Send(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	m.Seq = c.seq
	if c.conn == nil {
		conn, err := c.dial()
		if err != nil {
			return fmt.Errorf("rpcconf: dial: %w", err)
		}
		c.conn = conn
	}
	_ = c.conn.SetDeadline(time.Now().Add(DefaultAckTimeout))
	var a ack
	err := writeFrame(c.conn, m)
	if err == nil {
		err = readFrame(c.conn, &a)
	}
	if err == nil && a.Seq != m.Seq {
		err = fmt.Errorf("ack for seq %d", a.Seq)
	}
	if err != nil {
		c.resetConn()
		return fmt.Errorf("rpcconf: %s seq %d: %w", m.Kind, m.Seq, err)
	}
	_ = c.conn.SetDeadline(time.Time{})
	if a.Epoch != 0 {
		c.epoch = a.Epoch
	}
	if a.Err != "" {
		return fmt.Errorf("%w: %s", ErrRemote, a.Err)
	}
	return nil
}

func (c *Client) resetConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close drops the connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetConn()
}

// Epoch returns the server incarnation observed in the most recent ack (zero
// before any ack). A change between two observations means the server
// restarted and lost its applied state.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Convenience constructors mirroring the paper's configuration triggers.

// SwitchUp builds the "new switch detected" message.
func SwitchUp(dpid uint64, ports int) *Message {
	return &Message{Kind: KindSwitchUp, DPID: dpid, Ports: ports}
}

// SwitchUpAS is SwitchUp with the switch's autonomous system annotated.
func SwitchUpAS(dpid uint64, ports int, asn uint32) *Message {
	return &Message{Kind: KindSwitchUp, DPID: dpid, Ports: ports, ASN: asn}
}

// SwitchDown builds the switch-removal message.
func SwitchDown(dpid uint64) *Message {
	return &Message{Kind: KindSwitchDown, DPID: dpid}
}

// LinkUp builds the "new link detected" message with the interface
// addresses the topology controller computed.
func LinkUp(aDPID uint64, aPort uint16, bDPID uint64, bPort uint16, aAddr, bAddr netip.Prefix) *Message {
	return &Message{Kind: KindLinkUp,
		ADPID: aDPID, APort: aPort, BDPID: bDPID, BPort: bPort,
		AAddr: aAddr.String(), BAddr: bAddr.String()}
}

// LinkUpAS is LinkUp with both endpoint autonomous systems annotated.
func LinkUpAS(aDPID uint64, aPort uint16, bDPID uint64, bPort uint16,
	aAddr, bAddr netip.Prefix, aASN, bASN uint32) *Message {
	m := LinkUp(aDPID, aPort, bDPID, bPort, aAddr, bAddr)
	m.AASN, m.BASN = aASN, bASN
	return m
}

// LinkDown builds the link-removal message.
func LinkDown(aDPID uint64, aPort uint16, bDPID uint64, bPort uint16) *Message {
	return &Message{Kind: KindLinkDown, ADPID: aDPID, APort: aPort, BDPID: bDPID, BPort: bPort}
}

// HostUp builds the host-attachment message: the VM interface mirroring
// (dpid, port) becomes the gateway gw for the host subnet.
func HostUp(dpid uint64, port uint16, gw netip.Prefix) *Message {
	return &Message{Kind: KindHostUp, ADPID: dpid, APort: port, AAddr: gw.String()}
}

// HostDown reverses HostUp.
func HostDown(dpid uint64, port uint16) *Message {
	return &Message{Kind: KindHostDown, ADPID: dpid, APort: port}
}

// Probe builds the no-op epoch probe.
func Probe() *Message { return &Message{Kind: KindProbe} }

// LossInjector is the loss model of a failing control channel: every
// connection it wraps drops each written frame with its current probability
// and then closes itself. The probability can be changed while connections
// are live — the knob behind RPC loss *bursts* in failure scenarios
// (lossless steady state, a lossy window, lossless again). The rng is shared
// by every connection the injector wraps and seeded deterministically, so
// failure scenarios are reproducible.
type LossInjector struct {
	mu   sync.Mutex
	rng  *rand.Rand
	rate atomic.Uint64 // math.Float64bits of the drop probability
}

// NewLossInjector creates an injector dropping frames with probability rate.
func NewLossInjector(rate float64, seed int64) *LossInjector {
	li := &LossInjector{rng: rand.New(rand.NewSource(seed))}
	li.SetRate(rate)
	return li
}

// SetRate changes the drop probability; connections already handed out
// observe the new rate on their next write.
func (li *LossInjector) SetRate(rate float64) { li.rate.Store(math.Float64bits(rate)) }

// Rate returns the current drop probability.
func (li *LossInjector) Rate() float64 { return math.Float64frombits(li.rate.Load()) }

// drop decides one frame's fate. Rate zero consumes no randomness, so a
// scenario that never enables loss stays byte-for-byte deterministic.
func (li *LossInjector) drop() bool {
	rate := li.Rate()
	if rate <= 0 {
		return false
	}
	li.mu.Lock()
	d := li.rng.Float64() < rate
	li.mu.Unlock()
	return d
}

// Dialer wraps dial so every handed-out connection is subject to this
// injector's (variable) loss rate.
func (li *LossInjector) Dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &flakyConn{Conn: conn, li: li}, nil
	}
}

type flakyConn struct {
	net.Conn
	li *LossInjector
}

var errInjectedDrop = errors.New("rpcconf: injected frame drop")

func (f *flakyConn) Write(p []byte) (int, error) {
	if f.li.drop() {
		// Close so the peer observes the loss instead of blocking forever on
		// a frame that will never arrive.
		f.Conn.Close()
		return 0, errInjectedDrop
	}
	return f.Conn.Write(p)
}
