package ctlkit

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/openflow"
)

// Defaults for connection supervision.
const (
	DefaultEchoInterval   = 5 * time.Second
	DefaultRequestTimeout = 10 * time.Second
)

// Callbacks are the controller application's event surface. All callbacks
// run on the owning switch connection's reader goroutine: a blocking
// callback stalls only that switch.
type Callbacks struct {
	SwitchUp   func(sw *SwitchConn)
	SwitchDown func(sw *SwitchConn)
	// PacketIn is lent its message: *pi and its Data are borrowed until the
	// callback returns, because they are decoded in place in the
	// connection's read buffer. A callback copies whatever it keeps.
	PacketIn    func(sw *SwitchConn, pi *openflow.PacketIn)
	PortStatus  func(sw *SwitchConn, ps *openflow.PortStatus)
	FlowRemoved func(sw *SwitchConn, fr *openflow.FlowRemoved)
	Error       func(sw *SwitchConn, em *openflow.ErrorMsg)
	// Telemetry receives the switch's streaming counter exports
	// (TELEMETRY_EXPORT), each entry a monitor rule's absolute counters.
	// Nothing is sent back: the handler applies them idempotently.
	Telemetry func(sw *SwitchConn, ex *openflow.TelemetryExport)
}

// Controller manages switch connections for a controller application.
type Controller struct {
	name string
	clk  clock.Clock
	cb   Callbacks

	echoInterval   time.Duration
	requestTimeout time.Duration

	mu       sync.RWMutex
	switches map[uint64]*SwitchConn
	stopped  bool

	// sendQueueDrops counts messages TrySend dropped on a full queue.
	sendQueueDrops atomic.Uint64

	wg sync.WaitGroup
}

// Option tweaks controller behaviour.
type Option func(*Controller)

// WithEchoInterval overrides the keepalive period (0 disables keepalive).
func WithEchoInterval(d time.Duration) Option {
	return func(c *Controller) { c.echoInterval = d }
}

// WithRequestTimeout overrides the synchronous request timeout.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *Controller) { c.requestTimeout = d }
}

// New creates a controller runtime. Callbacks may be partially populated.
func New(name string, clk clock.Clock, cb Callbacks, opts ...Option) *Controller {
	if clk == nil {
		clk = clock.System()
	}
	c := &Controller{
		name:           name,
		clk:            clk,
		cb:             cb,
		echoInterval:   DefaultEchoInterval,
		requestTimeout: DefaultRequestTimeout,
		switches:       make(map[uint64]*SwitchConn),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name returns the controller's name.
func (c *Controller) Name() string { return c.name }

// Serve accepts and handles switch connections until the listener closes.
// It blocks; run it in a goroutine.
func (c *Controller) Serve(l Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Count the handler in under mu: once Stop has set stopped and
		// begun waiting, no new handler may join the WaitGroup.
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			conn.Close()
			continue
		}
		c.wg.Add(1)
		c.mu.Unlock()
		go func() {
			defer c.wg.Done()
			c.handleConn(conn)
		}()
	}
}

// Stop disconnects all switches and waits for their handlers.
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	conns := make([]*SwitchConn, 0, len(c.switches))
	for _, sc := range c.switches {
		conns = append(conns, sc)
	}
	c.mu.Unlock()
	for _, sc := range conns {
		sc.Close()
	}
	c.wg.Wait()
}

// Switch returns the connection for dpid, if connected.
func (c *Controller) Switch(dpid uint64) (*SwitchConn, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc, ok := c.switches[dpid]
	return sc, ok
}

// Switches returns all connected switches.
func (c *Controller) Switches() []*SwitchConn {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*SwitchConn, 0, len(c.switches))
	for _, sc := range c.switches {
		out = append(out, sc)
	}
	return out
}

// SendQueueDrops returns how many messages TrySend dropped because a
// switch's send queue was full.
func (c *Controller) SendQueueDrops() uint64 { return c.sendQueueDrops.Load() }

// NumSwitches returns the number of connected switches.
func (c *Controller) NumSwitches() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.switches)
}

// handleConn performs the handshake and runs the dispatch loop.
func (c *Controller) handleConn(conn net.Conn) {
	sc := &SwitchConn{
		ctl:     c,
		conn:    openflow.NewConn(conn),
		pending: make(map[uint32]chan openflow.Message),
	}
	defer sc.Close()

	if err := sc.handshake(); err != nil {
		return
	}

	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	if old, dup := c.switches[sc.dpid]; dup {
		old.Close()
	}
	c.switches[sc.dpid] = sc
	c.mu.Unlock()

	if c.cb.SwitchUp != nil {
		c.cb.SwitchUp(sc)
	}

	if c.echoInterval > 0 {
		sc.keepaliveWG.Add(1)
		go sc.keepaliveLoop(c.echoInterval)
	}

	sc.readLoop()

	c.mu.Lock()
	if c.switches[sc.dpid] == sc {
		delete(c.switches, sc.dpid)
	}
	c.mu.Unlock()
	if c.cb.SwitchDown != nil {
		c.cb.SwitchDown(sc)
	}
}

// SwitchConn is one connected datapath.
type SwitchConn struct {
	ctl      *Controller
	conn     *openflow.Conn // handshake and readLoop share its Decoder
	dpid     uint64
	features openflow.FeaturesReply

	xid     atomic.Uint32
	pendMu  sync.Mutex
	pending map[uint32]chan openflow.Message

	keepaliveWG sync.WaitGroup
}

// DPID returns the datapath ID learned in the handshake.
func (sc *SwitchConn) DPID() uint64 { return sc.dpid }

// Features returns the features reply from the handshake.
func (sc *SwitchConn) Features() openflow.FeaturesReply { return sc.features }

// Controller returns the owning controller runtime.
func (sc *SwitchConn) Controller() *Controller { return sc.ctl }

// Close tears the connection down.
func (sc *SwitchConn) Close() { sc.conn.Close() }

// Done is closed when the connection is torn down.
func (sc *SwitchConn) Done() <-chan struct{} { return sc.conn.Done() }

// nextXID returns a fresh nonzero transaction ID.
func (sc *SwitchConn) nextXID() uint32 {
	for {
		if x := sc.xid.Add(1); x != 0 {
			return x
		}
	}
}

// Send enqueues a message, assigning a transaction ID if it has none. A
// full queue makes it wait; flow-mod bursts from the RF-controller coalesce
// in the connection's writer into a few writes.
func (sc *SwitchConn) Send(m openflow.Message) error {
	if m.XID() == 0 {
		m.SetXID(sc.nextXID())
	}
	if sc.conn.Send(m) != nil {
		return sc.disconnected()
	}
	return nil
}

func (sc *SwitchConn) disconnected() error {
	return fmt.Errorf("ctlkit: switch %016x disconnected", sc.dpid)
}

// ErrSendQueueFull reports a TrySend against a full outbound queue.
var ErrSendQueueFull = errors.New("ctlkit: switch send queue full")

// TrySend enqueues a message without ever blocking: a full queue (stalled
// switch or proxy) returns ErrSendQueueFull instead of wedging the caller,
// and counts the drop in the controller's SendQueueDrops.
// Control applications whose state is level-triggered (flow replay on
// reconnect, periodic probes, routing protocol timers) must use this so a
// single stuck switch cannot deadlock an apply path.
func (sc *SwitchConn) TrySend(m openflow.Message) error {
	if m.XID() == 0 {
		m.SetXID(sc.nextXID())
	}
	err := sc.conn.TrySend(m)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, openflow.ErrQueueFull):
		sc.ctl.sendQueueDrops.Add(1)
		return fmt.Errorf("%w: %016x", ErrSendQueueFull, sc.dpid)
	default:
		return sc.disconnected()
	}
}

// Request sends m and waits for the reply bearing the same transaction ID.
func (sc *SwitchConn) Request(m openflow.Message) (openflow.Message, error) {
	if m.XID() == 0 {
		m.SetXID(sc.nextXID())
	}
	ch := make(chan openflow.Message, 1)
	sc.pendMu.Lock()
	sc.pending[m.XID()] = ch
	sc.pendMu.Unlock()
	defer func() {
		sc.pendMu.Lock()
		delete(sc.pending, m.XID())
		sc.pendMu.Unlock()
	}()
	if err := sc.Send(m); err != nil {
		return nil, err
	}
	select {
	case rep := <-ch:
		if em, isErr := rep.(*openflow.ErrorMsg); isErr {
			return rep, em
		}
		return rep, nil
	case <-sc.ctl.clk.After(sc.ctl.requestTimeout):
		return nil, fmt.Errorf("ctlkit: request %v to %016x timed out", m.MsgType(), sc.dpid)
	case <-sc.conn.Done():
		return nil, sc.disconnected()
	}
}

// Barrier performs a barrier round trip.
func (sc *SwitchConn) Barrier() error {
	rep, err := sc.Request(&openflow.BarrierRequest{})
	if err != nil {
		return err
	}
	if _, ok := rep.(*openflow.BarrierReply); !ok {
		return fmt.Errorf("ctlkit: barrier answered with %v", rep.MsgType())
	}
	return nil
}

// handshake: send HELLO + FEATURES_REQUEST, wait for FEATURES_REPLY
// (tolerating the switch's HELLO and interleaved messages). Writes go
// through the connection's writer goroutine so a peer that also writes
// first — as every OpenFlow switch does — cannot deadlock a synchronous
// transport.
func (sc *SwitchConn) handshake() error {
	if err := sc.Send(&openflow.Hello{}); err != nil {
		return err
	}
	freq := &openflow.FeaturesRequest{}
	freq.SetXID(sc.nextXID())
	if err := sc.Send(freq); err != nil {
		return err
	}
	for {
		m, err := sc.read()
		if err != nil {
			return err
		}
		switch msg := m.(type) {
		case *openflow.Hello:
			// fine, either order
		case *openflow.FeaturesReply:
			sc.dpid = msg.DatapathID
			sc.features = *msg
			return nil
		case *openflow.ErrorMsg:
			return fmt.Errorf("ctlkit: handshake error: %v", msg)
		case *openflow.EchoRequest:
			rep := &openflow.EchoReply{Data: msg.Data}
			rep.SetXID(msg.XID())
			if err := sc.Send(rep); err != nil {
				return err
			}
		default:
			// Pre-handshake noise is ignored.
		}
	}
}

// read returns the next message, owned: the handshake keeps what it reads,
// so each message the Decoder lends is cloned.
func (sc *SwitchConn) read() (openflow.Message, error) {
	m, err := sc.conn.Decode()
	if err != nil {
		return nil, err
	}
	return openflow.Clone(m), nil
}

// readLoop decodes each message in place. A packet-in, the bulk of what a
// controller reads, is lent to the PacketIn callback and never matches a
// request waiter; every other message is cloned into one that owns its
// bytes, because waiters and callbacks keep those.
func (sc *SwitchConn) readLoop() {
	for {
		m, err := sc.conn.Decode()
		if err != nil {
			sc.Close()
			return
		}
		if pi, ok := m.(*openflow.PacketIn); ok {
			if cb := sc.ctl.cb.PacketIn; cb != nil {
				cb(sc, pi)
			}
			continue
		}
		sc.dispatch(openflow.Clone(m))
	}
}

// dispatch hands an owned message to its request waiter or callback.
func (sc *SwitchConn) dispatch(m openflow.Message) {
	// Request/reply rendezvous first.
	if x := m.XID(); x != 0 {
		sc.pendMu.Lock()
		ch := sc.pending[x]
		sc.pendMu.Unlock()
		if ch != nil {
			select {
			case ch <- m:
			default:
			}
			return
		}
	}
	cb := sc.ctl.cb
	switch msg := m.(type) {
	case *openflow.EchoRequest:
		rep := &openflow.EchoReply{Data: msg.Data}
		rep.SetXID(msg.XID())
		_ = sc.Send(rep)
	case *openflow.PortStatus:
		if cb.PortStatus != nil {
			cb.PortStatus(sc, msg)
		}
	case *openflow.FlowRemoved:
		if cb.FlowRemoved != nil {
			cb.FlowRemoved(sc, msg)
		}
	case *openflow.ErrorMsg:
		if cb.Error != nil {
			cb.Error(sc, msg)
		}
	case *openflow.TelemetryExport:
		if cb.Telemetry != nil {
			cb.Telemetry(sc, msg)
		}
	default:
		// Unsolicited replies and unknown types are dropped, per spec
		// guidance to be liberal in what we accept.
	}
}

func (sc *SwitchConn) keepaliveLoop(interval time.Duration) {
	defer sc.keepaliveWG.Done()
	tick := sc.ctl.clk.NewTicker(interval)
	defer tick.Stop()
	misses := 0
	for {
		select {
		case <-tick.C():
			req := &openflow.EchoRequest{Data: []byte(sc.ctl.name)}
			if _, err := sc.Request(req); err != nil {
				misses++
				if misses >= 3 {
					sc.Close()
					return
				}
				continue
			}
			misses = 0
		case <-sc.conn.Done():
			return
		}
	}
}

// ErrNotConnected reports a helper called for an unconnected dpid.
var ErrNotConnected = errors.New("ctlkit: switch not connected")

// PacketOut injects a frame at a dpid.
func (c *Controller) PacketOut(dpid uint64, inPort uint16, actions []openflow.Action, data []byte) error {
	sc, ok := c.Switch(dpid)
	if !ok {
		return fmt.Errorf("%w: %016x", ErrNotConnected, dpid)
	}
	// Blocking send: packet-outs carry protocol traffic (OSPF hellos, ARP)
	// whose loss triggers expensive reconvergence; blocking here is the
	// backpressure that paces producers under congestion.
	return sc.Send(&openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   inPort,
		Actions:  actions,
		Data:     data,
	})
}
