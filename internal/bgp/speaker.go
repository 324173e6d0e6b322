package bgp

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"sync"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/rib"
)

// Default protocol timers (RFC 4271 suggested values) and damping knobs.
const (
	DefaultHoldTime     = 180 * time.Second
	DefaultConnectRetry = 5 * time.Second

	// Flap damping (RFC 2439, reduced to per-peer form): every loss of an
	// Established session adds DefaultDampPenalty; the penalty halves every
	// half-life; above the suppress threshold the peer's routes are excluded
	// from the decision process until the penalty decays below reuse.
	DefaultDampPenalty  = 1000.0
	DefaultDampSuppress = 2500.0
	DefaultDampReuse    = 750.0

	defaultLocalPref = 100
)

// State is the session FSM state of RFC 4271 §8.
type State int

// Session states. The TCP-like channels are connectionless-reliable, so
// Connect means "waiting for a route to the peer" (the transport-level
// precondition): eBGP sessions wait for the border interface, iBGP sessions
// wait for the IGP to learn the peer's loopback.
const (
	StateIdle State = iota
	StateConnect
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// SendFunc transmits one BGP message to dst, sourced from src (the session's
// local address). The owner (the VM) segments it onto the TCP-like channel
// and routes it via its RIB.
type SendFunc func(src, dst netip.Addr, payload []byte)

// Config configures a speaker (one bgpd process).
type Config struct {
	ASN      uint32
	RouterID netip.Addr
	RIB      *rib.RIB
	Clock    clock.Clock
	Send     SendFunc
	// LocalAddr resolves the local address of the session to a peer: the
	// border interface address for a directly connected eBGP peer, the
	// router's loopback for an iBGP peer. nil defaults to RouterID.
	LocalAddr func(peer netip.Addr) netip.Addr

	HoldTime     time.Duration // session liveness bound (keepalive = hold/3)
	ConnectRetry time.Duration

	// Redistribute lists the RIB sources pumped into BGP as locally
	// originated prefixes (the `redistribute ospf` / `redistribute
	// connected` statements of bgpd.conf).
	Redistribute []rib.Source
	// Networks are explicitly originated prefixes (`network` statements).
	Networks []netip.Prefix

	// Damping knobs; zero values take the defaults above. DampHalfLife
	// defaults to 2× hold time so suppressed peers are reusable on the same
	// order as session liveness.
	DampHalfLife time.Duration
	DampPenalty  float64
	DampSuppress float64
	DampReuse    float64
}

// SessionInfo is a read-only snapshot of one session.
type SessionInfo struct {
	Peer       netip.Addr
	RemoteASN  uint32
	IBGP       bool
	State      State
	Suppressed bool
	Penalty    float64
	Downs      uint64 // Established → down transitions
}

// Stats counts speaker activity.
type Stats struct {
	DecisionRuns    uint64
	UpdatesSent     uint64
	UpdatesReceived uint64
	OpensSent       uint64
}

type peer struct {
	addr      netip.Addr
	remoteASN uint32
	ibgp      bool
	localAddr netip.Addr

	state        State
	holdDeadline time.Time
	lastKA       time.Time
	retryAt      time.Time
	// reopen: an OPEN arrived in OpenConfirm with no KEEPALIVE behind it
	// yet; the next tick answers it (see handleMessage).
	reopen bool

	adjIn      map[netip.Prefix]PathAttrs
	advertised map[netip.Prefix]PathAttrs

	penalty    float64
	suppressed bool
	downs      uint64
}

type event struct {
	kind    int // evDeliver, evAddPeer, evRemovePeer
	src     netip.Addr
	payload []byte
	asn     uint32
}

const (
	evDeliver = iota
	evAddPeer
	evRemovePeer
)

// dampMemory is the flap-damping state of a deconfigured neighbor, decayed
// lazily when the neighbor returns.
type dampMemory struct {
	penalty    float64
	suppressed bool
	at         time.Time
	downs      uint64
}

// Speaker is one BGP-4 router process.
type Speaker struct {
	cfg Config
	clk clock.Clock

	// mu guards every field the query API reads (peer FSM state, stats).
	// All mutation happens on the loop goroutine.
	mu    sync.Mutex
	peers map[netip.Addr]*peer
	stats Stats
	// damp remembers flap-damping state across neighbor deconfiguration:
	// the discovery pipeline removes and re-adds a border neighbor on every
	// link flap, and a penalty that died with the peer struct would make
	// damping unreachable exactly in the case it exists for.
	damp map[netip.Addr]dampMemory

	// qmu guards the mailbox; Deliver and the RIB watcher enqueue here and
	// never touch mu, which keeps the lock order acyclic (loop: mu → rib;
	// rib watcher: rib → qmu).
	qmu      sync.Mutex
	queue    []event
	ribDirty bool
	wake     chan struct{}

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
	lastTick time.Time
}

// New creates a speaker; Start launches its timers.
func New(cfg Config) (*Speaker, error) {
	if cfg.ASN == 0 {
		return nil, fmt.Errorf("bgp: ASN is required")
	}
	if cfg.ASN > 0xffff {
		// The wire format and AS paths are 2-byte (classic BGP-4, no
		// RFC 6793 capability): a silently truncated 4-byte ASN could alias
		// another AS mod 2^16 and false-positive the loop check.
		return nil, fmt.Errorf("bgp: ASN %d exceeds 16 bits (4-byte ASNs unsupported)", cfg.ASN)
	}
	if !cfg.RouterID.Is4() {
		return nil, fmt.Errorf("bgp: router ID %v is not IPv4", cfg.RouterID)
	}
	if cfg.RIB == nil {
		return nil, fmt.Errorf("bgp: RIB is required")
	}
	for _, n := range cfg.Networks {
		if !n.Addr().Is4() {
			// The wire format is IPv4-only; catching this here keeps the
			// panic out of the speaker goroutine's UPDATE marshalling.
			return nil, fmt.Errorf("bgp: network %v is not IPv4", n)
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.Send == nil {
		return nil, fmt.Errorf("bgp: Send is required")
	}
	if cfg.HoldTime <= 0 {
		cfg.HoldTime = DefaultHoldTime
	}
	if cfg.ConnectRetry <= 0 {
		cfg.ConnectRetry = DefaultConnectRetry
	}
	if cfg.DampHalfLife <= 0 {
		cfg.DampHalfLife = 2 * cfg.HoldTime
	}
	if cfg.DampPenalty <= 0 {
		cfg.DampPenalty = DefaultDampPenalty
	}
	if cfg.DampSuppress <= 0 {
		cfg.DampSuppress = DefaultDampSuppress
	}
	if cfg.DampReuse <= 0 {
		cfg.DampReuse = DefaultDampReuse
	}
	return &Speaker{
		cfg:   cfg,
		clk:   cfg.Clock,
		peers: make(map[netip.Addr]*peer),
		damp:  make(map[netip.Addr]dampMemory),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}, nil
}

// ASN returns the configured AS number.
func (s *Speaker) ASN() uint32 { return s.cfg.ASN }

func (s *Speaker) asn16() uint16 { return uint16(s.cfg.ASN) }

// Start launches the speaker: the FSM/decision loop and the RIB watch that
// drives redistribution and next-hop re-resolution.
func (s *Speaker) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.cfg.RIB.Watch(func(src rib.Source) {
		// BGP's own installs must not re-trigger the decision loop.
		if src == rib.SourceEBGP || src == rib.SourceIBGP {
			return
		}
		s.qmu.Lock()
		s.ribDirty = true
		s.qmu.Unlock()
		s.signal()
	})
	s.wg.Add(1)
	go s.loop()
}

// Stop halts the speaker.
func (s *Speaker) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		s.wg.Wait()
	}
}

func (s *Speaker) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *Speaker) enqueue(ev event) {
	s.qmu.Lock()
	s.queue = append(s.queue, ev)
	s.qmu.Unlock()
	s.signal()
}

// AddNeighbor declares a session to peer in remoteASN. Idempotent: an
// existing session with the same AS is untouched; a changed AS resets it.
func (s *Speaker) AddNeighbor(addr netip.Addr, remoteASN uint32) {
	s.enqueue(event{kind: evAddPeer, src: addr, asn: remoteASN})
}

// RemoveNeighbor deconfigures the session (a CEASE notification is sent on
// a best-effort basis) and withdraws everything learned from it.
func (s *Speaker) RemoveNeighbor(addr netip.Addr) {
	s.enqueue(event{kind: evRemovePeer, src: addr})
}

// Deliver hands a received BGP message (TCP payload) to the speaker. src is
// the sender's address, which identifies the session. Never blocks: the
// mailbox is unbounded and drained by the speaker's own goroutine.
func (s *Speaker) Deliver(src netip.Addr, payload []byte) {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.enqueue(event{kind: evDeliver, src: src, payload: cp})
}

// Sessions snapshots every configured session, sorted by peer address.
func (s *Speaker) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, SessionInfo{
			Peer: p.addr, RemoteASN: p.remoteASN, IBGP: p.ibgp,
			State: p.state, Suppressed: p.suppressed, Penalty: p.penalty,
			Downs: p.downs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer.Less(out[j].Peer) })
	return out
}

// State returns the FSM state of the session to peer.
func (s *Speaker) State(peerAddr netip.Addr) (State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.peers[peerAddr]
	if !ok {
		return StateIdle, false
	}
	return p.state, true
}

// EstablishedCount counts sessions in Established.
func (s *Speaker) EstablishedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.peers {
		if p.state == StateEstablished {
			n++
		}
	}
	return n
}

// Statistics snapshots the activity counters.
func (s *Speaker) Statistics() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// tickInterval derives the loop granularity from the protocol timers.
func (s *Speaker) tickInterval() time.Duration {
	t := s.cfg.HoldTime / 6
	if s.cfg.ConnectRetry/2 < t {
		t = s.cfg.ConnectRetry / 2
	}
	if t < time.Millisecond {
		t = time.Millisecond
	}
	return t
}

func (s *Speaker) loop() {
	defer s.wg.Done()
	tick := s.clk.NewTicker(s.tickInterval())
	defer tick.Stop()
	s.lastTick = s.clk.Now()
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
			s.drain()
		case <-tick.C():
			s.onTick()
		}
	}
}

// drain processes every queued event, then runs the decision process once if
// anything changed routing state.
func (s *Speaker) drain() {
	for {
		s.qmu.Lock()
		queue := s.queue
		s.queue = nil
		dirty := s.ribDirty
		s.ribDirty = false
		s.qmu.Unlock()
		if len(queue) == 0 && !dirty {
			return
		}
		s.mu.Lock()
		need := dirty
		for _, ev := range queue {
			switch ev.kind {
			case evDeliver:
				need = s.handleMessage(ev.src, ev.payload) || need
			case evAddPeer:
				need = s.addPeerLocked(ev.src, ev.asn) || need
			case evRemovePeer:
				need = s.removePeerLocked(ev.src) || need
			}
		}
		if need {
			s.decideLocked()
		}
		s.mu.Unlock()
	}
}

func (s *Speaker) addPeerLocked(addr netip.Addr, asn uint32) bool {
	if p, ok := s.peers[addr]; ok {
		if p.remoteASN == asn {
			return false
		}
		s.sessionDownLocked(p, false)
		p.remoteASN = asn
		p.ibgp = asn == s.cfg.ASN
		return true
	}
	p := &peer{
		addr: addr, remoteASN: asn, ibgp: asn == s.cfg.ASN,
		adjIn: make(map[netip.Prefix]PathAttrs),
	}
	// Restore remembered damping state, decayed by the time the neighbor
	// spent deconfigured.
	if m, ok := s.damp[addr]; ok {
		delete(s.damp, addr)
		m.penalty *= math.Exp2(-float64(s.clk.Now().Sub(m.at)) / float64(s.cfg.DampHalfLife))
		if m.penalty >= 1 {
			p.penalty = m.penalty
			p.suppressed = m.suppressed && m.penalty > s.cfg.DampReuse
			p.downs = m.downs
		}
	}
	s.peers[addr] = p
	return false
}

func (s *Speaker) removePeerLocked(addr netip.Addr) bool {
	p, ok := s.peers[addr]
	if !ok {
		return false
	}
	if p.state >= StateOpenSent {
		s.send(p, MarshalNotification(Notification{Code: NotifCease, Subcode: notifPeerDeconfig}))
	}
	was := p.state == StateEstablished
	if was {
		// Deconfiguring a live session is a flap from damping's point of
		// view: the discovery pipeline tears the neighbor down on every
		// border-link loss, and that must charge like a hold expiry would.
		s.sessionDownLocked(p, true)
	}
	if p.penalty >= 1 {
		s.damp[addr] = dampMemory{penalty: p.penalty, suppressed: p.suppressed,
			at: s.clk.Now(), downs: p.downs}
	}
	delete(s.peers, addr)
	return was
}

// sessionDownLocked resets a session to Idle. A loss of Established clears
// the Adj-RIB-In (withdraw-on-session-loss) and charges the damping penalty.
func (s *Speaker) sessionDownLocked(p *peer, charge bool) {
	if p.state == StateEstablished {
		p.downs++
		p.adjIn = make(map[netip.Prefix]PathAttrs)
		p.advertised = nil
		if charge {
			p.penalty += s.cfg.DampPenalty
			if p.penalty >= s.cfg.DampSuppress {
				p.suppressed = true
			}
		}
	}
	p.state = StateIdle
	p.reopen = false
	p.retryAt = s.clk.Now().Add(s.cfg.ConnectRetry)
}

func (s *Speaker) send(p *peer, msg []byte) {
	src := p.localAddr
	if !src.IsValid() {
		src = s.localAddrFor(p.addr)
	}
	// Send outside no locks would be ideal; the transport is non-blocking
	// (the VM's originate path queues on ARP), so holding mu here is safe —
	// nothing in the send path re-enters the speaker synchronously.
	s.cfg.Send(src, p.addr, msg)
}

func (s *Speaker) localAddrFor(peerAddr netip.Addr) netip.Addr {
	if s.cfg.LocalAddr != nil {
		if a := s.cfg.LocalAddr(peerAddr); a.IsValid() {
			return a
		}
	}
	return s.cfg.RouterID
}

// reachable reports whether the RIB can route to the peer — the stand-in for
// "TCP connection established" on the connectionless-reliable channel.
func (s *Speaker) reachable(addr netip.Addr) bool {
	_, ok := s.cfg.RIB.Lookup(addr)
	return ok
}

func (s *Speaker) sendOpen(p *peer) {
	p.localAddr = s.localAddrFor(p.addr)
	s.send(p, MarshalOpen(Open{
		ASN:      s.asn16(),
		HoldTime: uint16(s.cfg.HoldTime / time.Second),
		RouterID: u32(s.cfg.RouterID),
	}))
	s.stats.OpensSent++
	p.holdDeadline = s.clk.Now().Add(s.cfg.HoldTime)
}

func u32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (s *Speaker) onTick() {
	now := s.clk.Now()
	s.mu.Lock()
	dt := now.Sub(s.lastTick)
	s.lastTick = now
	decay := math.Exp2(-float64(dt) / float64(s.cfg.DampHalfLife))
	need := false
	for _, p := range s.sortedPeersLocked() {
		if p.penalty > 0 {
			p.penalty *= decay
			if p.penalty < 1 {
				p.penalty = 0
			}
			if p.suppressed && p.penalty <= s.cfg.DampReuse {
				p.suppressed = false
				need = true
			}
		}
		switch p.state {
		case StateIdle:
			if !now.Before(p.retryAt) {
				p.state = StateConnect
			}
			if p.state != StateConnect {
				break
			}
			fallthrough
		case StateConnect:
			if s.reachable(p.addr) {
				s.sendOpen(p)
				p.state = StateOpenSent
			}
		case StateOpenSent:
			if now.After(p.holdDeadline) {
				s.send(p, MarshalNotification(Notification{Code: NotifHoldExpired}))
				s.sessionDownLocked(p, false)
			}
		case StateOpenConfirm, StateEstablished:
			if now.After(p.holdDeadline) {
				established := p.state == StateEstablished
				s.send(p, MarshalNotification(Notification{Code: NotifHoldExpired}))
				s.sessionDownLocked(p, established)
				need = need || established
				break
			}
			if p.reopen {
				// The peer restarted: answer its OPEN as Established does.
				p.reopen = false
				s.sendOpen(p)
				s.send(p, MarshalKeepalive())
				p.lastKA = now
				break
			}
			// RFC 4271 §8.2.2: OpenConfirm keeps sending KEEPALIVEs too, so
			// a peer that lost the handshake's one still gets another.
			if now.Sub(p.lastKA) >= s.keepaliveInterval() {
				s.send(p, MarshalKeepalive())
				p.lastKA = now
			}
		}
	}
	if need {
		s.decideLocked()
	}
	s.mu.Unlock()
}

func (s *Speaker) keepaliveInterval() time.Duration {
	ka := s.cfg.HoldTime / 3
	if ka < time.Millisecond {
		ka = time.Millisecond
	}
	return ka
}

func (s *Speaker) sortedPeersLocked() []*peer {
	out := make([]*peer, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr.Less(out[j].addr) })
	return out
}

// handleMessage dispatches one received message; it reports whether routing
// state changed (a decision run is needed).
func (s *Speaker) handleMessage(src netip.Addr, payload []byte) bool {
	p, ok := s.peers[src]
	if !ok {
		return false // not a configured neighbor
	}
	msgType, body, err := ParseMessage(payload)
	if err != nil {
		return false
	}
	now := s.clk.Now()
	switch msgType {
	case MsgOpen:
		o, err := ParseOpen(body)
		if err != nil || o.ASN != uint16(p.remoteASN) {
			s.send(p, MarshalNotification(Notification{Code: NotifOpenError, Subcode: notifBadPeerAS}))
			s.sessionDownLocked(p, false)
			return true
		}
		switch p.state {
		case StateEstablished:
			// The peer restarted and is opening a fresh session: drop ours
			// (withdrawing its routes) and answer the open.
			s.sessionDownLocked(p, false)
			s.sendOpen(p)
			s.send(p, MarshalKeepalive())
			p.lastKA = now
			p.state = StateOpenConfirm
			return true
		case StateIdle, StateConnect:
			// Passive open: the peer reached us first.
			s.sendOpen(p)
			fallthrough
		case StateOpenSent:
			s.send(p, MarshalKeepalive())
			p.lastKA = now
			p.state = StateOpenConfirm
		case StateOpenConfirm:
			// RFC 4271 §6.8: a second OPEN on a session in OpenConfirm. A
			// peer that restarted sends its OPEN alone and waits in OpenSent
			// for ours, so the next tick answers it. A peer that is
			// answering our OPEN sends a KEEPALIVE right behind its own;
			// that KEEPALIVE cancels the answer, since a second OPEN would
			// make the peer answer again, and so on without end.
			p.reopen = true
		}
		p.holdDeadline = now.Add(s.cfg.HoldTime)
		return false
	case MsgKeepalive:
		switch p.state {
		case StateOpenConfirm:
			p.state = StateEstablished
			p.reopen = false
			p.advertised = nil // full table push on next decision
			p.holdDeadline = now.Add(s.cfg.HoldTime)
			return true
		case StateEstablished:
			p.holdDeadline = now.Add(s.cfg.HoldTime)
		}
		return false
	case MsgUpdate:
		if p.state != StateEstablished {
			return false
		}
		u, err := ParseUpdate(body)
		if err != nil {
			return false
		}
		s.stats.UpdatesReceived++
		p.holdDeadline = now.Add(s.cfg.HoldTime)
		changed := false
		for _, w := range u.Withdrawn {
			if _, ok := p.adjIn[w]; ok {
				delete(p.adjIn, w)
				changed = true
			}
		}
		if len(u.NLRI) > 0 {
			if u.Attrs.HasLoop(s.asn16()) {
				// RFC 4271: a replacement advertisement implicitly withdraws
				// the previous path, even when the new one is loop-rejected —
				// retaining the stale path would keep exporting a route the
				// peer no longer has.
				for _, n := range u.NLRI {
					if _, ok := p.adjIn[n]; ok {
						delete(p.adjIn, n)
						changed = true
					}
				}
			} else {
				for _, n := range u.NLRI {
					p.adjIn[n] = u.Attrs
					changed = true
				}
			}
		}
		return changed
	case MsgNotification:
		s.sessionDownLocked(p, p.state == StateEstablished)
		return true
	}
	return false
}
