// Package flowvisor implements the FlowVisor component of the paper's
// framework: a transparent OpenFlow 1.0 proxy that lets several controllers
// share one physical switch by slicing the flowspace. In the paper's
// deployment there are two slices — the topology controller owns LLDP
// traffic, the RF-controller owns everything else — and FlowVisor sits
// between every switch and both controllers.
//
// For each switch connection the proxy dials every slice's controller and
// relays messages both ways, rewriting transaction IDs so concurrent
// requests from different slices cannot collide, answering controller echo
// keepalives locally (as the real FlowVisor does), routing packet-ins to the
// slice whose flowspace claims them, broadcasting asynchronous status
// messages, and enforcing per-slice write policies (a slice that may not
// program flows gets an EPERM error back, per FlowVisor semantics).
//
// The proxy decides on the borrowed message its Decoder returns and relays
// the frame's bytes: the destination Conn copies the lent frame onto its
// queue with only the transaction ID changed, never a re-encoding.
package flowvisor

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"routeflow/internal/ctlkit"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// fenceEvery is how many messages a slice may relay to the switch without a
// barrier before the proxy queues a barrier of its own behind them (see
// session.relay).
const fenceEvery = 1024

// Slice is one controller's view of the network.
type Slice struct {
	// Name identifies the slice in counters and logs.
	Name string
	// Dial opens a connection to the slice's controller.
	Dial func() (net.Conn, error)
	// OwnsPacketIn claims packet-ins for this slice; slices are evaluated
	// in order and the first claimant wins. nil claims everything.
	OwnsPacketIn func(pi *openflow.PacketIn) bool
	// AllowWrite filters controller→switch messages. nil allows everything.
	// Denied messages are answered with an OpenFlow EPERM error.
	AllowWrite func(m openflow.Message) bool
}

// LLDPSlice returns the topology-controller slice policy: it owns LLDP
// packet-ins and may inject packets and read state, but may not modify the
// flow tables.
func LLDPSlice(name string, dial func() (net.Conn, error)) Slice {
	return Slice{
		Name: name,
		Dial: dial,
		OwnsPacketIn: func(pi *openflow.PacketIn) bool {
			var f pkt.Frame
			return pkt.DecodeFrameInto(&f, pi.Data) == nil && f.Type == pkt.EtherTypeLLDP
		},
		AllowWrite: func(m openflow.Message) bool {
			switch m.(type) {
			case *openflow.FlowMod:
				return false
			default:
				return true
			}
		},
	}
}

// DefaultSlice returns the catch-all slice policy (the RF-controller): every
// remaining packet-in, full write access.
func DefaultSlice(name string, dial func() (net.Conn, error)) Slice {
	return Slice{Name: name, Dial: dial}
}

// Counters reports per-slice forwarding statistics.
type Counters struct {
	ToController uint64 // messages relayed switch → this slice
	ToSwitch     uint64 // messages relayed this slice → switch
	Denied       uint64 // writes rejected by policy
	PacketIns    uint64 // packet-ins routed to this slice
}

// FlowVisor is the proxy. One instance serves many switches.
type FlowVisor struct {
	name   string
	slices []Slice

	mu       sync.Mutex
	sessions map[*session]struct{}
	counters []countersAtomic
	stopped  bool

	wg sync.WaitGroup
}

type countersAtomic struct {
	toController atomic.Uint64
	toSwitch     atomic.Uint64
	denied       atomic.Uint64
	packetIns    atomic.Uint64
}

// New creates a FlowVisor with the given slices (order = packet-in priority).
func New(name string, slices []Slice) *FlowVisor {
	return &FlowVisor{
		name:     name,
		slices:   slices,
		sessions: make(map[*session]struct{}),
		counters: make([]countersAtomic, len(slices)),
	}
}

// Counters returns a snapshot for the named slice.
func (fv *FlowVisor) Counters(slice string) (Counters, bool) {
	for i, s := range fv.slices {
		if s.Name == slice {
			c := &fv.counters[i]
			return Counters{
				ToController: c.toController.Load(),
				ToSwitch:     c.toSwitch.Load(),
				Denied:       c.denied.Load(),
				PacketIns:    c.packetIns.Load(),
			}, true
		}
	}
	return Counters{}, false
}

// Serve accepts switch connections until the listener closes. Run in a
// goroutine.
func (fv *FlowVisor) Serve(l ctlkit.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		fv.mu.Lock()
		if fv.stopped {
			fv.mu.Unlock()
			conn.Close()
			return
		}
		fv.mu.Unlock()
		fv.wg.Add(1)
		go func() {
			defer fv.wg.Done()
			fv.runSession(conn)
		}()
	}
}

// Stop tears down all sessions.
func (fv *FlowVisor) Stop() {
	fv.mu.Lock()
	fv.stopped = true
	for s := range fv.sessions {
		s.close()
	}
	fv.mu.Unlock()
	fv.wg.Wait()
}

// session proxies one switch to all slices: one Conn to the switch and one
// to each slice's controller. A Send fails only once its Conn has closed,
// which ends the session, so what it was sending is moot and its error is
// dropped.
type session struct {
	fv   *FlowVisor
	sw   *openflow.Conn
	ctls []*openflow.Conn // indexed like fv.slices

	xidMu   sync.Mutex
	nextXID uint32
	seq     uint64 // allocation order of pending entries
	// pending maps proxy transaction IDs back to their requests. It is made
	// with room for a whole fence window, so filling one does not grow it.
	pending  map[uint32]pendEntry
	unfenced []int // per slice: messages relayed since its last barrier
}

type pendEntry struct {
	slice int
	orig  uint32
	seq   uint64 // allocation order: a barrier reply fences older entries
	own   bool   // the proxy's own barrier, whose reply no slice awaits
}

// newSession returns a session on the switch connection sw, with no slice
// connections yet.
func newSession(fv *FlowVisor, sw io.ReadWriteCloser) *session {
	return &session{
		fv:       fv,
		sw:       openflow.NewConn(sw),
		pending:  make(map[uint32]pendEntry, fenceEvery),
		unfenced: make([]int, len(fv.slices)),
	}
}

func (fv *FlowVisor) runSession(swConn net.Conn) {
	s := newSession(fv, swConn)
	defer s.close()

	// Dial every slice controller; a slice that cannot be reached aborts the
	// session (the deployment is misconfigured without both controllers).
	for _, sl := range fv.slices {
		conn, err := sl.Dial()
		if err != nil {
			return
		}
		s.ctls = append(s.ctls, openflow.NewConn(conn))
	}

	fv.mu.Lock()
	if fv.stopped {
		fv.mu.Unlock()
		return
	}
	fv.sessions[s] = struct{}{}
	fv.mu.Unlock()
	defer func() {
		fv.mu.Lock()
		delete(fv.sessions, s)
		fv.mu.Unlock()
	}()

	var wg sync.WaitGroup
	// Controller readers.
	for i := range s.ctls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.controllerReadLoop(i)
		}()
	}
	// Switch reader (this goroutine).
	s.switchReadLoop()
	s.close()
	wg.Wait()
}

// close closes every Conn of the session, which ends all its readers.
func (s *session) close() {
	s.sw.Close()
	for _, c := range s.ctls {
		c.Close()
	}
}

// relay queues frame to the switch under a proxy transaction ID mapped back
// to (slice, its own ID). A message the switch answers only on failure
// (flow-mod, packet-out) keeps its mapping until a barrier reply fences it
// (see resolveXID). So that a controller that never sends barriers cannot
// grow the map for the life of the session, every fenceEvery messages
// without one the proxy queues a barrier of its own behind them. Only the
// slice's reader calls relay, so a slice's entries are allocated in the
// order its messages reach the switch.
func (s *session) relay(slice int, frame []byte) {
	var own uint32 // the proxy's barrier's ID, if it queues one
	s.xidMu.Lock()
	xid := s.mapXID(pendEntry{slice: slice, orig: binary.BigEndian.Uint32(frame[4:])})
	if openflow.Type(frame[1]) == openflow.TypeBarrierRequest {
		s.unfenced[slice] = 0
	} else if s.unfenced[slice]++; s.unfenced[slice] == fenceEvery {
		s.unfenced[slice] = 0
		own = s.mapXID(pendEntry{slice: slice, own: true})
	}
	s.xidMu.Unlock()
	_ = s.sw.SendFrame(frame, xid)
	if own != 0 {
		br := &openflow.BarrierRequest{}
		br.SetXID(own)
		_ = s.sw.Send(br)
	}
}

// mapXID allocates a free nonzero proxy transaction ID for pe. The caller
// holds xidMu.
func (s *session) mapXID(pe pendEntry) uint32 {
	s.seq++
	pe.seq = s.seq
	for {
		s.nextXID++
		if s.nextXID == 0 {
			continue
		}
		if _, busy := s.pending[s.nextXID]; !busy {
			s.pending[s.nextXID] = pe
			return s.nextXID
		}
	}
}

// resolveXID maps a switch reply back to its requesting slice and drops the
// mapping, unless the reply is a multipart part with more to come. A barrier
// reply also drops the slice's older mappings: OpenFlow 1.0 has the switch
// finish every message before a barrier, errors included, before it
// replies, so none of them can still be answered.
func (s *session) resolveXID(m openflow.Message) (pendEntry, bool) {
	sr, isStats := m.(*openflow.StatsReply)
	_, isBarrier := m.(*openflow.BarrierReply)
	s.xidMu.Lock()
	defer s.xidMu.Unlock()
	pe, ok := s.pending[m.XID()]
	if !ok || isStats && sr.Flags&openflow.StatsReplyFlagMore != 0 {
		return pe, ok
	}
	delete(s.pending, m.XID())
	if isBarrier {
		for x, older := range s.pending {
			if older.slice == pe.slice && older.seq < pe.seq {
				delete(s.pending, x)
			}
		}
	}
	return pe, true
}

func (s *session) controllerReadLoop(idx int) {
	slice := s.fv.slices[idx]
	c := s.ctls[idx]
	for {
		m, err := c.Decode()
		if err != nil {
			s.close()
			return
		}
		switch msg := m.(type) {
		case *openflow.Hello:
			continue // consumed by the proxy; the switch already said hello
		case *openflow.EchoRequest:
			// Keepalives terminate at the proxy, like real FlowVisor.
			rep := &openflow.EchoReply{Data: msg.Data}
			rep.SetXID(msg.XID())
			_ = c.Send(rep)
			continue
		}
		if slice.AllowWrite != nil && !slice.AllowWrite(m) {
			s.fv.counters[idx].denied.Add(1)
			em := &openflow.ErrorMsg{
				ErrType: openflow.ErrTypeBadRequest,
				Code:    openflow.ErrCodeBadRequestEperm,
				Data:    truncate(c.Frame(), 64),
			}
			em.SetXID(m.XID())
			_ = c.Send(em)
			continue
		}
		s.fv.counters[idx].toSwitch.Add(1)
		s.relay(idx, c.Frame())
	}
}

func (s *session) switchReadLoop() {
	helloSent := make([]bool, len(s.ctls))
	for {
		m, err := s.sw.Decode()
		if err != nil {
			return
		}
		switch msg := m.(type) {
		case *openflow.Hello:
			// Relay the switch's hello once to every slice.
			for i, c := range s.ctls {
				if !helloSent[i] {
					helloSent[i] = true
					h := &openflow.Hello{}
					h.SetXID(msg.XID())
					_ = c.Send(h)
				}
			}
		case *openflow.EchoRequest:
			rep := &openflow.EchoReply{Data: msg.Data}
			rep.SetXID(msg.XID())
			_ = s.sw.Send(rep)
		case *openflow.PacketIn:
			s.routePacketIn(msg, s.sw.Frame())
		case *openflow.PortStatus, *openflow.FlowRemoved, *openflow.TelemetryExport:
			// Asynchronous switch events (including unsolicited telemetry
			// exports) fan out to every slice; each controller's aggregator
			// filters by epoch, so foreign streams are ignored downstream.
			for i, c := range s.ctls {
				s.fv.counters[i].toController.Add(1)
				_ = c.SendFrame(s.sw.Frame(), m.XID())
			}
		default:
			// Replies: route by transaction ID.
			pe, ok := s.resolveXID(m)
			if !ok || pe.own {
				continue // unsolicited reply or the proxy's own barrier; drop
			}
			s.fv.counters[pe.slice].toController.Add(1)
			_ = s.ctls[pe.slice].SendFrame(s.sw.Frame(), pe.orig)
		}
	}
}

// routePacketIn relays frame, the packet-in pi was decoded from, to the
// first slice that claims pi.
func (s *session) routePacketIn(pi *openflow.PacketIn, frame []byte) {
	for i, sl := range s.fv.slices {
		if sl.OwnsPacketIn == nil || sl.OwnsPacketIn(pi) {
			s.fv.counters[i].packetIns.Add(1)
			s.fv.counters[i].toController.Add(1)
			_ = s.ctls[i].SendFrame(frame, pi.XID())
			return
		}
	}
	// No slice claims it: dropped, mirroring FlowVisor's default-deny.
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// String describes the proxy.
func (fv *FlowVisor) String() string {
	return fmt.Sprintf("flowvisor(%s, %d slices)", fv.name, len(fv.slices))
}
