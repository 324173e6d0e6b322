package ofswitch

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
)

// Defaults.
const (
	DefaultNumBuffers  = 256
	DefaultMissSendLen = 128
	expireInterval     = time.Second
	// Reconnect backoff (protocol time) for StartDialer sessions.
	reconnectDelayMin = 250 * time.Millisecond
	reconnectDelayMax = 5 * time.Second
)

// Config configures a Switch.
type Config struct {
	DPID        uint64
	Name        string // used in port names and desc stats
	NumBuffers  int
	MissSendLen uint16
	Clock       clock.Clock
}

// Switch is a software OpenFlow 1.0 datapath.
type Switch struct {
	dpid       uint64
	name       string
	clk        clock.Clock
	numBuffers int
	// missSendLen is atomic: the control loop rewrites it on SET_CONFIG
	// while dataplane goroutines read it on every table-miss punt.
	missSendLen atomic.Uint32

	table *flowTable

	// tel is the telemetry exporter state (telemetry.go).
	tel telState

	portMu sync.RWMutex
	ports  map[uint16]*swPort

	bufMu    sync.Mutex
	buffers  map[uint32]bufferedPacket
	bufOrder []uint32 // FIFO of live buffer IDs for eviction
	nextBuf  uint32

	// conn is the current control session; nil between sessions. Stop
	// and Reboot close it.
	connMu  sync.Mutex
	conn    *openflow.Conn
	running bool

	// ctlDrops counts control messages dropped because the outbound queue
	// was full: a stalled controller costs packet-in drops (as on a real
	// switch) instead of blocking the dataplane.
	ctlDrops atomic.Uint64

	// ctlStage is the egress staging of the goroutine that runs
	// handleControl: packet-outs and buffer releases stage on it. ctlFrame
	// is that goroutine's copy of the packet-out frame it is executing.
	ctlStage staging
	ctlFrame []byte

	// noPortDrops counts frames an output action sent to a port number that
	// has no port attached; runtDrops frames too short to classify;
	// badOutputDrops outputs to the reserved ports this datapath does not
	// implement (OFPP_NORMAL, OFPP_LOCAL, OFPP_NONE).
	noPortDrops    atomic.Uint64
	runtDrops      atomic.Uint64
	badOutputDrops atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}

	wg sync.WaitGroup
}

type swPort struct {
	no uint16
	ep *netemu.Endpoint

	// stage is the egress staging of the goroutine delivering this port's
	// bursts. It lives here and not on handleBatch's stack so that a burst
	// of one frame does not pay for clearing it.
	stage staging
}

// staging holds what the burst one goroutine is handling sends, per egress
// port, until handleBatch hands each port's frames to its cable in one
// SendBurst, and the burst's cache-hit counts, which every flush writes out
// before it sends. Every goroutine that runs the pipeline owns one: a port's
// delivery goroutine the port's, the control loop the switch's.
type staging struct {
	stages [stagedPorts]egressStage
	n      int
	hits   hitTally
}

// stagedPorts is how many egress ports one burst can have frames staged for
// at once; a burst that fans out wider flushes and starts over.
const stagedPorts = 4

// egressStage is the frames of one burst bound for one egress port, in the
// order the burst sends them. bufs[i] is the ingress cable's buffer behind
// frames[i] when the switch took it to send the frame on without a copy, and
// nil for a frame the egress cable is to copy.
type egressStage struct {
	port   uint16
	n      int
	frames [netemu.MaxBurst][]byte
	bufs   [netemu.MaxBurst]*netemu.Buffer
}

type bufferedPacket struct {
	inPort uint16
	frame  []byte
}

// New creates a switch; attach ports with AttachPort, then Start it with a
// controller connection.
func New(cfg Config) *Switch {
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.NumBuffers <= 0 {
		cfg.NumBuffers = DefaultNumBuffers
	}
	if cfg.MissSendLen == 0 {
		cfg.MissSendLen = DefaultMissSendLen
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("sw-%x", cfg.DPID)
	}
	s := &Switch{
		dpid:       cfg.DPID,
		name:       cfg.Name,
		clk:        cfg.Clock,
		numBuffers: cfg.NumBuffers,
		table:      newFlowTable(),
		tel:        telState{poke: make(chan struct{}, 1)},
		ports:      make(map[uint16]*swPort),
		buffers:    make(map[uint32]bufferedPacket),
		stop:       make(chan struct{}),
	}
	s.missSendLen.Store(uint32(cfg.MissSendLen))
	return s
}

// DPID returns the datapath ID.
func (s *Switch) DPID() uint64 { return s.dpid }

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// AttachPort binds a netemu endpoint as OpenFlow port portNo. The endpoint's
// receiver is taken over by the switch, and link-state transitions become
// port-status messages.
func (s *Switch) AttachPort(portNo uint16, ep *netemu.Endpoint) error {
	if portNo == 0 || portNo >= openflow.PortMax {
		return fmt.Errorf("ofswitch %s: invalid port number %d", s.name, portNo)
	}
	s.portMu.Lock()
	defer s.portMu.Unlock()
	if _, dup := s.ports[portNo]; dup {
		return fmt.Errorf("ofswitch %s: port %d already attached", s.name, portNo)
	}
	p := &swPort{no: portNo, ep: ep}
	s.ports[portNo] = p
	// Batch delivery: the cable hands over its whole inbox burst in one
	// callback, letting the dataplane amortize cache probes over runs of
	// same-flow frames, counter updates over the burst, and cable hand-offs
	// over each egress port's share of the burst.
	ep.SetBurstReceiver(func(b *netemu.Burst) { s.handleBatch(&p.stage, p.no, b) })
	ep.OnLinkState(func(up bool) { s.portStateChanged(p, up) })
	return nil
}

// Ports returns the attached port numbers in unspecified order.
func (s *Switch) Ports() []uint16 {
	s.portMu.RLock()
	defer s.portMu.RUnlock()
	out := make([]uint16, 0, len(s.ports))
	for no := range s.ports {
		out = append(out, no)
	}
	return out
}

// FlowTable returns a snapshot of installed flows.
func (s *Switch) FlowTable() []FlowInfo { return s.table.snapshot(s.clk.Now()) }

// NumFlows returns the number of installed flows.
func (s *Switch) NumFlows() int { return s.table.len() }

// NoPortDrops returns how many frames output actions have sent to port
// numbers with no port attached; such frames are dropped.
func (s *Switch) NoPortDrops() uint64 { return s.noPortDrops.Load() }

// RuntDrops returns how many received frames were too short to carry the
// headers a flow key is built from; such frames are dropped unclassified.
func (s *Switch) RuntDrops() uint64 { return s.runtDrops.Load() }

// UnsupportedOutputDrops returns how many times an output action named
// OFPP_NORMAL, OFPP_LOCAL or OFPP_NONE, which this datapath does not
// implement; each such output emits nothing.
func (s *Switch) UnsupportedOutputDrops() uint64 { return s.badOutputDrops.Load() }

// ControlQueueDrops returns how many messages to the controller (packet-ins,
// replies, port-status, exports) were dropped because the outbound queue of
// the control session was full.
func (s *Switch) ControlQueueDrops() uint64 { return s.ctlDrops.Load() }

// Start runs one control session on conn (usually a connection to
// FlowVisor) until Stop or a connection error; the switch sends its HELLO
// first, per the OpenFlow handshake. Unlike StartDialer, a session that ends
// is not redialed.
func (s *Switch) Start(conn io.ReadWriteCloser) error {
	return s.start(func() { s.runSession(conn) })
}

// StartDialer runs the control channel with level-triggered liveness: it
// dials the controller, serves the session until the connection dies
// (transport error, keepalive cut by the controller, FlowVisor restart)
// and then redials with exponential backoff instead of staying dark
// forever — a real switch reconnects; so does this one. Stop ends it.
func (s *Switch) StartDialer(dial func() (io.ReadWriteCloser, error)) error {
	return s.start(func() { s.supervise(dial) })
}

// start runs the background loops and control, which owns the control
// channel, until Stop. A switch starts once.
func (s *Switch) start(control func()) error {
	s.connMu.Lock()
	if s.running {
		s.connMu.Unlock()
		return errors.New("ofswitch: already started")
	}
	s.running = true
	s.connMu.Unlock()
	s.wg.Add(3)
	go s.expireLoop()
	go s.telemetryLoop()
	go func() {
		defer s.wg.Done()
		control()
	}()
	return nil
}

func (s *Switch) supervise(dial func() (io.ReadWriteCloser, error)) {
	delay := reconnectDelayMin
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if conn, err := dial(); err == nil {
			start := s.clk.Now()
			s.runSession(conn)
			if s.clk.Since(start) >= reconnectDelayMax {
				// A session that lived a while was healthy: restart the
				// backoff schedule. Sessions cut immediately (crash-looping
				// proxy, handshake rejection) keep backing off like failed
				// dials: min, 2*min, ... max.
				delay = reconnectDelayMin
			}
		}
		wait := delay
		if delay *= 2; delay > reconnectDelayMax {
			delay = reconnectDelayMax
		}
		t := s.clk.NewTimer(wait)
		select {
		case <-s.stop:
			t.Stop()
			return
		case <-t.C():
		}
	}
}

// runSession drives one controller connection from HELLO to disconnect.
// The session ends when the connection fails or Stop or Reboot closes it;
// it is published under connMu, so a Stop that runs first is seen here.
func (s *Switch) runSession(rwc io.ReadWriteCloser) {
	s.connMu.Lock()
	select {
	case <-s.stop:
		s.connMu.Unlock()
		rwc.Close()
		return
	default:
	}
	conn := openflow.NewConn(rwc)
	s.conn = conn
	s.connMu.Unlock()

	if err := s.send(&openflow.Hello{}); err == nil {
		var now time.Time
		reads := conn.Reads()
		for {
			m, err := conn.Decode()
			if err != nil {
				break
			}
			// The messages one transport read brought share one clock stamp.
			if r := conn.Reads(); r != reads {
				reads, now = r, s.clk.Now()
			}
			s.handleControl(m, now)
		}
	}
	conn.Close()
	s.connMu.Lock()
	if s.conn == conn {
		s.conn = nil
	}
	s.connMu.Unlock()
	// Exports queued on the dead session may be lost; re-export every rule
	// on the next one.
	s.telForget()
}

// Reboot models a switch crash and cold restart: the flow table and the
// packet-buffer pool are lost (no flow-removed notifications — nobody is
// there to send them) and the control session is cut. A StartDialer-managed
// switch redials with backoff; the controllers observe switch-down then
// switch-up and replay desired state, which is exactly the recovery path a
// failure scenario wants to exercise. Ports and their cables are untouched.
func (s *Switch) Reboot() {
	all := openflow.MatchAll()
	s.table.deleteFlows(&all, 0, openflow.PortNone, false)
	// Monitor rules and their counters die with the crash; the controller
	// replays its TELEMETRY_MOD on reconnect and re-baselines from zero.
	s.table.setMonitors(nil)
	s.telForget()
	s.bufMu.Lock()
	s.buffers = make(map[uint32]bufferedPacket)
	s.bufOrder = nil
	s.bufMu.Unlock()
	s.connMu.Lock()
	if s.conn != nil {
		s.conn.Close()
	}
	s.connMu.Unlock()
}

// Stop closes the controller connection and stops background work.
func (s *Switch) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.connMu.Lock()
	if s.conn != nil {
		s.conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// send queues m on the current session without waiting; a full queue drops
// it and counts the drop in ctlDrops.
func (s *Switch) send(m openflow.Message) error {
	s.connMu.Lock()
	conn := s.conn
	s.connMu.Unlock()
	if conn == nil {
		return errors.New("ofswitch: not connected")
	}
	err := conn.TrySend(m)
	if errors.Is(err, openflow.ErrQueueFull) {
		s.ctlDrops.Add(1)
	}
	return err
}

// expireLoop checks the table for expired entries once an expireInterval
// while any entry has a timeout, and sleeps while none has.
func (s *Switch) expireLoop() {
	defer s.wg.Done()
	for {
		if !s.table.hasTimed() {
			select {
			case <-s.table.timedAdded:
				continue
			case <-s.stop:
				return
			}
		}
		tick := s.clk.NewTimer(expireInterval)
		select {
		case <-tick.C():
			now := s.clk.Now()
			for _, e := range s.table.expire(now) {
				if e.flags&openflow.FlowModFlagSendFlowRem != 0 {
					reason := openflow.FlowRemovedIdleTimeout
					if e.hardTimeout > 0 && now.Sub(e.created) >= time.Duration(e.hardTimeout)*time.Second {
						reason = openflow.FlowRemovedHardTimeout
					}
					s.sendFlowRemoved(e, reason, now)
				}
			}
		case <-s.stop:
			tick.Stop()
			return
		}
	}
}

func (s *Switch) sendFlowRemoved(e *flowEntry, reason uint8, now time.Time) {
	dur := now.Sub(e.created)
	_ = s.send(&openflow.FlowRemoved{
		Match: e.match, Cookie: e.cookie, Priority: e.priority, Reason: reason,
		DurationSec:  uint32(dur / time.Second),
		DurationNsec: uint32(dur % time.Second),
		IdleTimeout:  e.idleTimeout,
		PacketCount:  e.packets.Load(), ByteCount: e.bytes.Load(),
	})
}

// handleControl handles one message from the controller, which arrived at
// now. m is borrowed from the session's Decoder and is overwritten by the
// next message, so what outlives this call is copied: a flow entry's actions
// and a packet-out's frame. A reply may alias m, since sending encodes it.
func (s *Switch) handleControl(m openflow.Message, now time.Time) {
	switch msg := m.(type) {
	case *openflow.Hello:
		// Nothing to do: version negotiation succeeded by construction.
	case *openflow.EchoRequest:
		rep := &openflow.EchoReply{Data: msg.Data}
		rep.SetXID(msg.XID())
		_ = s.send(rep)
	case *openflow.FeaturesRequest:
		rep := s.featuresReply()
		rep.SetXID(msg.XID())
		_ = s.send(rep)
	case *openflow.GetConfigRequest:
		rep := &openflow.GetConfigReply{MissSendLen: uint16(s.missSendLen.Load())}
		rep.SetXID(msg.XID())
		_ = s.send(rep)
	case *openflow.SetConfig:
		if msg.MissSendLen != 0 {
			s.missSendLen.Store(uint32(msg.MissSendLen))
		}
	case *openflow.FlowMod:
		s.handleFlowMod(msg, now)
	case *openflow.PacketOut:
		s.handlePacketOut(msg)
	case *openflow.StatsRequest:
		s.handleStats(msg)
	case *openflow.BarrierRequest:
		// All preceding messages were processed synchronously in this loop.
		rep := &openflow.BarrierReply{}
		rep.SetXID(msg.XID())
		_ = s.send(rep)
	case *openflow.TelemetryMod:
		s.handleTelemetryMod(msg)
	case *openflow.Vendor:
		s.sendError(msg, openflow.ErrTypeBadRequest, openflow.ErrCodeBadRequestBadType, msg)
	case *openflow.Raw:
		s.sendError(msg, openflow.ErrTypeBadRequest, openflow.ErrCodeBadRequestBadType, msg)
	default:
		// Replies (echo reply, stats reply, ...) are unexpected on a switch;
		// OpenFlow says ignore what you can.
	}
}

func (s *Switch) sendError(req openflow.Message, errType, code uint16, orig openflow.Message) {
	data := orig.AppendTo(nil)
	if len(data) > 64 {
		data = data[:64]
	}
	e := &openflow.ErrorMsg{ErrType: errType, Code: code, Data: data}
	e.SetXID(req.XID())
	_ = s.send(e)
}

func (s *Switch) featuresReply() *openflow.FeaturesReply {
	s.portMu.RLock()
	defer s.portMu.RUnlock()
	rep := &openflow.FeaturesReply{
		DatapathID:   s.dpid,
		NBuffers:     uint32(s.numBuffers),
		NTables:      1,
		Capabilities: openflow.CapFlowStats | openflow.CapTableStats | openflow.CapPortStats,
		Actions:      0xfff, // all OF 1.0 standard actions
	}
	for no, p := range s.ports {
		rep.Ports = append(rep.Ports, s.phyPort(no, p))
	}
	// Deterministic order helps tests and humans.
	for i := 0; i < len(rep.Ports); i++ {
		for j := i + 1; j < len(rep.Ports); j++ {
			if rep.Ports[j].PortNo < rep.Ports[i].PortNo {
				rep.Ports[i], rep.Ports[j] = rep.Ports[j], rep.Ports[i]
			}
		}
	}
	return rep
}

func (s *Switch) phyPort(no uint16, p *swPort) openflow.PhyPort {
	var state uint32
	if !p.ep.LinkUp() {
		state = openflow.PortStateDown
	}
	return openflow.PhyPort{
		PortNo: no,
		HWAddr: p.ep.MAC(),
		Name:   fmt.Sprintf("%s-eth%d", s.name, no),
		State:  state,
	}
}

func (s *Switch) portStateChanged(p *swPort, up bool) {
	ps := &openflow.PortStatus{Reason: openflow.PortReasonModify, Desc: s.phyPort(p.no, p)}
	_ = s.send(ps)
}

// handleFlowMod applies a borrowed flow-mod that arrived at now. A table
// entry keeps its own copy of the actions.
func (s *Switch) handleFlowMod(m *openflow.FlowMod, now time.Time) {
	switch m.Command {
	case openflow.FlowModAdd:
		if errMsg := s.table.add(s.newEntry(m, now), m.Flags&openflow.FlowModFlagCheckOverlap != 0); errMsg != nil {
			errMsg.SetXID(m.XID())
			errMsg.Data = m.AppendTo(nil)[:64]
			_ = s.send(errMsg)
			return
		}
	case openflow.FlowModModify, openflow.FlowModModifyStrict:
		strict := m.Command == openflow.FlowModModifyStrict
		if n := s.table.modify(&m.Match, m.Priority, openflow.CloneActions(m.Actions), strict); n == 0 {
			// OF 1.0: a modify that matches nothing behaves like an add.
			_ = s.table.add(s.newEntry(m, now), false)
		}
	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		strict := m.Command == openflow.FlowModDeleteStrict
		for _, e := range s.table.deleteFlows(&m.Match, m.Priority, m.OutPort, strict) {
			if e.flags&openflow.FlowModFlagSendFlowRem != 0 {
				s.sendFlowRemoved(e, openflow.FlowRemovedDelete, now)
			}
		}
	}
	// Releasing a buffered packet through the new flow.
	if m.BufferID != openflow.NoBuffer && m.Command == openflow.FlowModAdd {
		if bp, ok := s.takeBuffer(m.BufferID); ok {
			s.execute(bp.inPort, bp.frame, m.Actions)
		}
	}
}

// newEntry returns an unpublished table entry for the borrowed flow-mod m,
// created at now, with its own copy of m's actions.
func (s *Switch) newEntry(m *openflow.FlowMod, now time.Time) *flowEntry {
	e := &flowEntry{
		match: m.Match, priority: m.Priority, cookie: m.Cookie,
		idleTimeout: m.IdleTimeout, hardTimeout: m.HardTimeout,
		flags: m.Flags, created: now,
	}
	e.setActions(m.Actions)
	return e
}

// handlePacketOut executes a borrowed packet-out. Its inline frame aliases
// the Decoder's buffer, which the dataplane must never rewrite, move or
// pool, so it runs from the control loop's own copy.
func (s *Switch) handlePacketOut(m *openflow.PacketOut) {
	s.ctlFrame = append(s.ctlFrame[:0], m.Data...)
	frame := s.ctlFrame
	if m.BufferID != openflow.NoBuffer {
		bp, ok := s.takeBuffer(m.BufferID)
		if !ok {
			s.sendError(m, openflow.ErrTypeBadRequest, openflow.ErrCodeBadRequestBufUnknown, m)
			return
		}
		frame = bp.frame
	}
	if len(frame) == 0 {
		return
	}
	s.execute(m.InPort, frame, m.Actions)
}

func (s *Switch) handleStats(m *openflow.StatsRequest) {
	rep := &openflow.StatsReply{StatsType: m.StatsType}
	rep.SetXID(m.XID())
	switch m.StatsType {
	case openflow.StatsDesc:
		rep.Desc = &openflow.DescStats{
			Manufacturer: "routeflow-repro",
			Hardware:     "netemu virtual datapath",
			Software:     "ofswitch (OpenFlow 1.0)",
			SerialNumber: fmt.Sprintf("%016x", s.dpid),
			Datapath:     s.name,
		}
	case openflow.StatsFlow:
		now := s.clk.Now()
		req := m.Flow
		var flows []openflow.FlowStats
		for _, fi := range s.table.snapshot(now) {
			if req != nil && !req.Match.Covers(&fi.Match) {
				continue
			}
			flows = append(flows, openflow.FlowStats{
				TableID: 0, Match: fi.Match,
				DurationSec:  uint32(fi.Age / time.Second),
				DurationNsec: uint32(fi.Age % time.Second),
				Priority:     fi.Priority, IdleTimeout: fi.IdleTimeout,
				HardTimeout: fi.HardTimeout, Cookie: fi.Cookie,
				PacketCount: fi.Packets, ByteCount: fi.Bytes,
				Actions: fi.Actions,
			})
		}
		for _, part := range openflow.FlowStatsReplies(m.XID(), flows) {
			_ = s.send(part)
		}
		return
	case openflow.StatsTable:
		lookups, matched, active := s.table.stats()
		rep.Tables = []openflow.TableStats{{
			TableID: 0, Name: "classifier", Wildcards: openflow.WildcardAll,
			MaxEntries: 1 << 20, ActiveCount: uint32(active),
			LookupCount: lookups, MatchedCount: matched,
		}}
	case openflow.StatsPort:
		s.portMu.RLock()
		for no, p := range s.ports {
			if m.Port != nil && m.Port.PortNo != openflow.PortNone && m.Port.PortNo != no {
				continue
			}
			st := p.ep.Stats()
			rep.Ports = append(rep.Ports, openflow.PortStats{
				PortNo:    no,
				RxPackets: st.RxPackets, TxPackets: st.TxPackets,
				RxBytes: st.RxBytes, TxBytes: st.TxBytes,
				TxDropped: st.Drops,
			})
		}
		s.portMu.RUnlock()
	default:
		s.sendError(m, openflow.ErrTypeBadRequest, openflow.ErrCodeBadRequestBadStat, m)
		return
	}
	_ = s.send(rep)
}

// handleBatch is the dataplane, for one burst (of at most MaxBurst frames)
// that arrived on port inPort, staging its egress on st. Each frame's key is
// read in place (openflow.ExtractKeyInto). Consecutive frames with an
// identical microflow key form a run; each run costs one cache probe, and a
// hit's plan (see planActions) was made when its cache line was filled. Hits
// are tallied on st and reach the table, flow and monitor counters once per
// burst, in the flush that precedes the first send, so every count is in
// place before a receiver sees the frame and once handleBatch returns. Output
// frames are staged per egress port and each port's share of the burst goes
// to its cable in one SendBurst.
//
// A cable burst is owned by the ingress cable and valid only for this call,
// and staged frames alias it, so every stage is flushed before handleBatch
// returns. A frame bound for exactly one port leaves in the buffer it came
// in (see apply); every other egress copies (SendBurst into the pool, punt
// into the buffer pool) and leaves the buffer to the ingress cable. Calls
// with one st must not overlap, which one delivery goroutine per endpoint
// and one control loop per switch guarantee.
func (s *Switch) handleBatch(st *staging, inPort uint16, b *netemu.Burst) {
	frames := b.Frames
	n := len(frames)
	if n == 0 {
		return
	}
	var keys [netemu.MaxBurst]openflow.Match
	var valid [netemu.MaxBurst]bool
	for i := 0; i < n; i++ {
		valid[i] = openflow.ExtractKeyInto(&keys[i], inPort, frames[i]) == nil
	}
	now := s.clk.Now().UnixNano()
	for i := 0; i < n; {
		if !valid[i] {
			s.runtDrops.Add(1)
			i++
			continue
		}
		j := i + 1
		nBytes := uint64(len(frames[i]))
		for j < n && valid[j] && keys[j] == keys[i] {
			nBytes += uint64(len(frames[j]))
			j++
		}
		if p, ok := s.table.lookupN(&keys[i], uint64(j-i), nBytes, now, &st.hits); ok {
			s.apply(st, inPort, b, i, j, p)
		} else {
			for _, f := range frames[i:j] {
				s.punt(inPort, f)
			}
		}
		i = j
	}
	s.flushStaged(st)
}

// apply executes the planned actions p on frames i to j of b, which arrived
// on inPort, staging every frame on st for its outputs.
//
// When p.move holds — one output to one physical port, and a rewrite that
// leaves the frame where it is (none, or MACs patched in place) — nobody else
// will read the frame, so the switch takes its buffer from the ingress cable
// and stages that: the egress cable queues the buffer itself. A moved frame
// is the egress cable's from the flush on, and the next hop rewrites it in
// place; nothing here reads a frame after staging it. A burst with no
// buffers behind it has nothing to take, and every egress copies.
func (s *Switch) apply(st *staging, inPort uint16, b *netemu.Burst, i, j int, p *actionPlan) {
	for k := i; k < j; k++ {
		out := applyRewrites(b.Frames[k], p)
		if p.move {
			s.emit(st, p.port, out, b.Take(k))
		} else {
			s.output(st, inPort, out, p.actions)
		}
	}
}

// punt buffers the frame and sends a packet-in to the controller.
func (s *Switch) punt(inPort uint16, frame []byte) {
	s.bufMu.Lock()
	// Like a hardware ring, the oldest unclaimed buffer is recycled when the
	// pool is exhausted (controllers that never release buffers — e.g. pure
	// discovery probes — must not pin memory forever).
	for len(s.buffers) >= s.numBuffers && len(s.bufOrder) > 0 {
		victim := s.bufOrder[0]
		s.bufOrder = s.bufOrder[1:]
		delete(s.buffers, victim)
	}
	s.nextBuf++
	bufID := s.nextBuf
	s.buffers[bufID] = bufferedPacket{inPort: inPort, frame: append([]byte(nil), frame...)}
	s.bufOrder = append(s.bufOrder, bufID)
	s.bufMu.Unlock()

	data := frame
	if msl := int(s.missSendLen.Load()); bufID != openflow.NoBuffer && len(data) > msl {
		data = data[:msl]
	}
	_ = s.send(&openflow.PacketIn{
		BufferID: bufID,
		TotalLen: uint16(len(frame)),
		InPort:   inPort,
		Reason:   openflow.PacketInReasonNoMatch,
		Data:     data,
	})
}

func (s *Switch) takeBuffer(id uint32) (bufferedPacket, bool) {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	bp, ok := s.buffers[id]
	if ok {
		delete(s.buffers, id)
	}
	return bp, ok
}

// execute runs a controller-supplied action list on frame, which arrived on
// inPort: a packet-out, or a buffered packet a flow-mod releases. It is the
// dataplane's apply step for a burst of one with no buffer behind it, staged
// on the control loop's staging and flushed before execute returns, so every
// egress copies and the frame is the caller's again afterwards. Rewrite
// actions may patch frame in place.
func (s *Switch) execute(inPort uint16, frame []byte, actions []openflow.Action) {
	// Packet-outs and buffer releases can carry a multipath action verbatim
	// from the controller; resolve it against the frame's own key so the
	// bucket choice agrees with what the flow table would do.
	if key, err := openflow.ExtractKey(inPort, frame); err == nil {
		actions = openflow.ResolveMultipath(actions, &key)
	}
	p := planActions(actions)
	s.apply(&s.ctlStage, inPort, &netemu.Burst{Frames: [][]byte{frame}}, 0, 1, &p)
	s.flushStaged(&s.ctlStage)
}

// output stages out, a frame that arrived on inPort with its rewrites
// applied, on st for every output target of actions.
func (s *Switch) output(st *staging, inPort uint16, out []byte, actions []openflow.Action) {
	for _, a := range actions {
		o, ok := a.(*openflow.ActionOutput)
		if !ok {
			continue
		}
		switch o.Port {
		case openflow.PortInPort:
			s.emit(st, inPort, out, nil)
		case openflow.PortFlood, openflow.PortAll:
			s.flushStaged(st) // flood sends at once; keep each port's order
			s.flood(inPort, out)
		case openflow.PortController:
			s.table.flushHits(&st.hits) // counted before the controller sees it
			data := out
			if o.MaxLen > 0 && len(data) > int(o.MaxLen) {
				data = data[:o.MaxLen]
			}
			_ = s.send(&openflow.PacketIn{
				BufferID: openflow.NoBuffer,
				TotalLen: uint16(len(out)),
				InPort:   inPort,
				Reason:   openflow.PacketInReasonAction,
				Data:     data,
			})
		case openflow.PortTable:
			// Re-inject through the flow table (packet-out only) as a burst
			// of one with no buffer. It may rewrite out in place, which
			// frames already staged on st alias, so those leave first.
			s.flushStaged(st)
			s.handleBatch(st, inPort, &netemu.Burst{Frames: [][]byte{out}})
		case openflow.PortNormal, openflow.PortLocal, openflow.PortNone:
			s.badOutputDrops.Add(1) // not implemented by this datapath
		default:
			s.emit(st, o.Port, out, nil)
		}
	}
}

// emit stages frame on st for port portNo until the burst st belongs to
// flushes. A stage that fills is flushed on the spot and keeps its port. buf
// is the buffer behind frame when the switch took it from the burst, else
// nil.
func (s *Switch) emit(st *staging, portNo uint16, frame []byte, buf *netemu.Buffer) {
	var eg *egressStage
	for i := range st.stages[:st.n] {
		if st.stages[i].port == portNo {
			eg = &st.stages[i]
			break
		}
	}
	if eg == nil {
		if st.n == len(st.stages) {
			s.flushStaged(st)
		}
		eg = &st.stages[st.n]
		eg.port = portNo
		st.n++
	}
	eg.frames[eg.n], eg.bufs[eg.n] = frame, buf
	if eg.n++; eg.n == len(eg.frames) {
		s.table.flushHits(&st.hits)
		s.flushStage(eg)
	}
}

// flushStaged writes out st's tallied hits, then hands every frame staged on
// st to its egress cable, and leaves st empty.
func (s *Switch) flushStaged(st *staging) {
	s.table.flushHits(&st.hits)
	for i := range st.stages[:st.n] {
		s.flushStage(&st.stages[i])
	}
	st.n = 0
}

// flushStage sends one stage's frames, moved and copied in staging order,
// with one port lookup and one SendBurst, and drops its aliases of the
// ingress cable's buffers. The buffers the switch took end here: queued or
// recycled by the egress cable, or released when there is no such port.
func (s *Switch) flushStage(st *egressStage) {
	if st.n == 0 {
		return
	}
	frames, bufs := st.frames[:st.n], st.bufs[:st.n]
	if p := s.port(st.port); p != nil {
		p.ep.SendBurst(frames, bufs)
	} else {
		s.noPortDrops.Add(uint64(st.n))
		for _, fb := range bufs {
			if fb != nil {
				fb.Release()
			}
		}
	}
	clear(frames)
	clear(bufs)
	st.n = 0
}

func (s *Switch) port(portNo uint16) *swPort {
	s.portMu.RLock()
	p := s.ports[portNo]
	s.portMu.RUnlock()
	return p
}

func (s *Switch) flood(inPort uint16, frame []byte) {
	s.portMu.RLock()
	defer s.portMu.RUnlock()
	for no, p := range s.ports {
		if no != inPort {
			p.ep.Send(frame)
		}
	}
}
