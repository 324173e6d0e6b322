// Package discovery implements the LLDP-based topology discovery module the
// paper's topology controller runs (the NOX discovery application, [3] in
// the paper). Every probe interval it packet-outs an LLDP frame on every
// port of every connected switch, encoding the origin (datapath ID, port).
// When such a frame arrives as a packet-in at a different switch, the
// (origin, ingress) pair identifies one link. Links age out when probes stop
// arriving; switch joins and leaves, link appearance and link loss are
// published as an event stream — the exact triggers the paper's automatic
// configuration framework consumes ("on detection of a new switch", "on
// detection of a new link").
package discovery

import (
	"fmt"
	"sync"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/ctlkit"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// Defaults.
const (
	DefaultProbeInterval = time.Second
	DefaultLinkTTL       = 3 * DefaultProbeInterval
	eventQueueDepth      = 4096
)

// EventType discriminates discovery events.
type EventType int

// Event kinds.
const (
	SwitchUp EventType = iota
	SwitchDown
	LinkUp
	LinkDown
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case SwitchUp:
		return "switch-up"
	case SwitchDown:
		return "switch-down"
	case LinkUp:
		return "link-up"
	case LinkDown:
		return "link-down"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Link is a bidirectional link in canonical form: ADPID < BDPID, or for the
// degenerate same-switch case APort < BPort.
type Link struct {
	ADPID uint64
	APort uint16
	BDPID uint64
	BPort uint16
}

// Canonical returns l with endpoints ordered — the form links take in the
// discovery view, so external callers can compare against Links().
func (l Link) Canonical() Link { return l.canonical() }

// canonical returns l with endpoints ordered.
func (l Link) canonical() Link {
	if l.ADPID > l.BDPID || (l.ADPID == l.BDPID && l.APort > l.BPort) {
		return Link{ADPID: l.BDPID, APort: l.BPort, BDPID: l.ADPID, BPort: l.APort}
	}
	return l
}

// String renders the link.
func (l Link) String() string {
	return fmt.Sprintf("%016x:%d <-> %016x:%d", l.ADPID, l.APort, l.BDPID, l.BPort)
}

// Event is one discovery observation.
type Event struct {
	Type  EventType
	DPID  uint64             // SwitchUp / SwitchDown
	Ports []openflow.PhyPort // SwitchUp: the switch's data ports
	Link  Link               // LinkUp / LinkDown
}

// Discovery is the topology discovery application. Wire its Callbacks into a
// ctlkit.Controller and Run it.
type Discovery struct {
	clk           clock.Clock
	probeInterval time.Duration
	linkTTL       time.Duration

	mu       sync.Mutex
	switches map[uint64]*swState
	// missed counts probe rounds since the last LLDP arrival per canonical
	// link. Aging is round-based, not wall-time-based: a starved prober
	// (CPU stall, scheduling gap) stops the aging clock too, so links do
	// not flap just because the emulation fell behind the wall clock.
	missed map[Link]int
	events chan Event

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

type swState struct {
	conn  *ctlkit.SwitchConn
	ports []openflow.PhyPort
}

// Option tweaks discovery behaviour.
type Option func(*Discovery)

// WithProbeInterval sets the LLDP probe period.
func WithProbeInterval(d time.Duration) Option {
	return func(disc *Discovery) { disc.probeInterval = d }
}

// WithLinkTTL sets how long a link survives without fresh probes.
func WithLinkTTL(d time.Duration) Option {
	return func(disc *Discovery) { disc.linkTTL = d }
}

// New creates the discovery module.
func New(clk clock.Clock, opts ...Option) *Discovery {
	if clk == nil {
		clk = clock.System()
	}
	d := &Discovery{
		clk:           clk,
		probeInterval: DefaultProbeInterval,
		linkTTL:       DefaultLinkTTL,
		switches:      make(map[uint64]*swState),
		missed:        make(map[Link]int),
		events:        make(chan Event, eventQueueDepth),
		stop:          make(chan struct{}),
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Events returns the discovery event stream. Consumers must drain it; the
// queue is deep but bounded, and a full queue drops the oldest events.
func (d *Discovery) Events() <-chan Event { return d.events }

// Callbacks returns the ctlkit callbacks that feed this module.
func (d *Discovery) Callbacks() ctlkit.Callbacks {
	return ctlkit.Callbacks{
		SwitchUp:   d.onSwitchUp,
		SwitchDown: d.onSwitchDown,
		PacketIn:   d.onPacketIn,
		PortStatus: d.onPortStatus,
	}
}

// Run starts probing and aging until Stop.
func (d *Discovery) Run() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := d.clk.NewTicker(d.probeInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C():
				d.probeAll()
				d.ageLinks()
			case <-d.stop:
				return
			}
		}
	}()
}

// Stop halts probing.
func (d *Discovery) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// Switches returns the connected datapath IDs.
func (d *Discovery) Switches() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, len(d.switches))
	for dpid := range d.switches {
		out = append(out, dpid)
	}
	return out
}

// Links returns the currently live links (canonical form).
func (d *Discovery) Links() []Link {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Link, 0, len(d.missed))
	for l := range d.missed {
		out = append(out, l)
	}
	return out
}

// emit publishes an event, dropping the oldest when the queue is full so
// discovery never deadlocks against a slow consumer.
func (d *Discovery) emit(ev Event) {
	for {
		select {
		case d.events <- ev:
			return
		default:
			select {
			case <-d.events:
			default:
			}
		}
	}
}

func (d *Discovery) onSwitchUp(sc *ctlkit.SwitchConn) {
	feats := sc.Features()
	d.mu.Lock()
	d.switches[sc.DPID()] = &swState{conn: sc, ports: feats.Ports}
	d.mu.Unlock()
	d.emit(Event{Type: SwitchUp, DPID: sc.DPID(), Ports: feats.Ports})
	// Probe immediately: neighbours discover the new switch's links without
	// waiting for the next tick, which is what makes cold-start fast.
	d.probeSwitch(sc, feats.Ports)
}

func (d *Discovery) onSwitchDown(sc *ctlkit.SwitchConn) {
	dpid := sc.DPID()
	d.mu.Lock()
	delete(d.switches, dpid)
	var dead []Link
	for l := range d.missed {
		if l.ADPID == dpid || l.BDPID == dpid {
			dead = append(dead, l)
			delete(d.missed, l)
		}
	}
	d.mu.Unlock()
	for _, l := range dead {
		d.emit(Event{Type: LinkDown, Link: l})
	}
	d.emit(Event{Type: SwitchDown, DPID: dpid})
}

func (d *Discovery) onPortStatus(sc *ctlkit.SwitchConn, ps *openflow.PortStatus) {
	if ps.Desc.State&openflow.PortStateDown == 0 && ps.Reason != openflow.PortReasonDelete {
		return
	}
	dpid, port := sc.DPID(), ps.Desc.PortNo
	d.mu.Lock()
	var dead []Link
	for l := range d.missed {
		if (l.ADPID == dpid && l.APort == port) || (l.BDPID == dpid && l.BPort == port) {
			dead = append(dead, l)
			delete(d.missed, l)
		}
	}
	d.mu.Unlock()
	for _, l := range dead {
		d.emit(Event{Type: LinkDown, Link: l})
	}
}

func (d *Discovery) onPacketIn(sc *ctlkit.SwitchConn, pi *openflow.PacketIn) {
	var f pkt.Frame
	if pkt.DecodeFrameInto(&f, pi.Data) != nil || f.Type != pkt.EtherTypeLLDP {
		return // not ours; under FlowVisor slicing we only see LLDP anyway
	}
	lldp, err := pkt.DecodeLLDP(f.Payload)
	if err != nil {
		return
	}
	srcDPID, srcPort, err := lldp.Origin()
	if err != nil {
		return
	}
	link := Link{ADPID: srcDPID, APort: srcPort, BDPID: sc.DPID(), BPort: pi.InPort}.canonical()
	d.mu.Lock()
	_, known := d.missed[link]
	d.missed[link] = 0
	d.mu.Unlock()
	if !known {
		d.emit(Event{Type: LinkUp, Link: link})
	}
}

func (d *Discovery) probeAll() {
	d.mu.Lock()
	targets := make([]*swState, 0, len(d.switches))
	for _, st := range d.switches {
		targets = append(targets, st)
	}
	d.mu.Unlock()
	for _, st := range targets {
		d.probeSwitch(st.conn, st.ports)
	}
}

func (d *Discovery) probeSwitch(sc *ctlkit.SwitchConn, ports []openflow.PhyPort) {
	ttlSec := uint16(d.linkTTL / time.Second)
	if ttlSec == 0 {
		ttlSec = 1
	}
	for _, p := range ports {
		if p.PortNo >= openflow.PortMax {
			continue
		}
		lldp := pkt.NewLLDP(sc.DPID(), p.PortNo, ttlSec)
		frame := &pkt.Frame{
			Dst:     pkt.LLDPMulticast,
			Src:     p.HWAddr,
			Type:    pkt.EtherTypeLLDP,
			Payload: lldp.Marshal(),
		}
		// Blocking send, deliberately: a congested control channel pauses
		// the prober (and with it round-based aging) instead of dropping
		// probes and mass-expiring live links.
		_ = sc.Send(&openflow.PacketOut{
			BufferID: openflow.NoBuffer,
			InPort:   openflow.PortNone,
			Actions:  []openflow.Action{&openflow.ActionOutput{Port: p.PortNo}},
			Data:     frame.Marshal(),
		})
	}
}

// ageLinks expires links that missed too many consecutive probe rounds.
// It runs right after probeAll on the same tick, so the aging clock only
// advances when probes were actually issued: an emulation stalled past
// several probe intervals of wall time does not mass-expire its links.
func (d *Discovery) ageLinks() {
	ttlRounds := int(d.linkTTL / d.probeInterval)
	if ttlRounds < 1 {
		ttlRounds = 1
	}
	d.mu.Lock()
	var dead []Link
	for l := range d.missed {
		d.missed[l]++
		if d.missed[l] > ttlRounds {
			dead = append(dead, l)
			delete(d.missed, l)
		}
	}
	d.mu.Unlock()
	for _, l := range dead {
		d.emit(Event{Type: LinkDown, Link: l})
	}
}
