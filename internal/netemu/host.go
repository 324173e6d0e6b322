package netemu

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/pkt"
)

// Host errors.
var (
	ErrNoRoute    = errors.New("netemu: no route to host")
	ErrARPTimeout = errors.New("netemu: arp resolution timed out")
	ErrClosed     = errors.New("netemu: host closed")
)

// HostConfig configures a Host's network identity and protocol timers.
type HostConfig struct {
	Name    string
	Addr    netip.Prefix // interface address with its subnet
	Gateway netip.Addr   // default gateway (usually the attached VM interface)

	ARPTimeout time.Duration // per-attempt wait, default 1s
	ARPRetries int           // default 3
}

// UDPHandler consumes datagrams delivered to a bound port. The payload is
// valid only for the duration of the call (it aliases the endpoint's pooled
// receive buffer); handlers that retain it must copy.
type UDPHandler func(src netip.Addr, srcPort uint16, payload []byte)

// Host is a minimal end-system IP stack attached to one endpoint: ARP
// (request, reply, cache), ICMP echo, and UDP send/receive. It is the
// traffic source and sink for the paper's video-streaming demo.
type Host struct {
	name string
	mac  pkt.MAC
	addr netip.Prefix
	gw   netip.Addr
	ep   *Endpoint
	clk  clock.Clock

	arpTimeout time.Duration
	arpRetries int

	mu       sync.Mutex
	arpCache map[netip.Addr]pkt.MAC
	arpWait  map[netip.Addr][]chan pkt.MAC
	udpPorts map[uint16]UDPHandler
	pings    map[uint32]chan time.Duration
	pingSeq  uint16
	ipID     uint16
	closed   bool

	// rxDiscards counts frames addressed to this host that it dropped
	// because a layer failed to decode or a checksum did not hold. Switches
	// classify on headers only, so this is where corruption in flight
	// surfaces.
	rxDiscards atomic.Uint64
}

// NewHost attaches a host stack to ep. The endpoint's receiver is taken over
// by the host.
func NewHost(cfg HostConfig, ep *Endpoint, clk clock.Clock) (*Host, error) {
	if !cfg.Addr.Addr().Is4() {
		return nil, fmt.Errorf("netemu: host %s address %v is not IPv4", cfg.Name, cfg.Addr)
	}
	if cfg.ARPTimeout <= 0 {
		cfg.ARPTimeout = time.Second
	}
	if cfg.ARPRetries <= 0 {
		cfg.ARPRetries = 3
	}
	if clk == nil {
		clk = clock.System()
	}
	h := &Host{
		name:       cfg.Name,
		mac:        ep.MAC(),
		addr:       cfg.Addr,
		gw:         cfg.Gateway,
		ep:         ep,
		clk:        clk,
		arpTimeout: cfg.ARPTimeout,
		arpRetries: cfg.ARPRetries,
		arpCache:   make(map[netip.Addr]pkt.MAC),
		arpWait:    make(map[netip.Addr][]chan pkt.MAC),
		udpPorts:   make(map[uint16]UDPHandler),
		pings:      make(map[uint32]chan time.Duration),
	}
	ep.SetReceiver(h.receive)
	return h, nil
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Addr returns the host's interface address.
func (h *Host) Addr() netip.Addr { return h.addr.Addr() }

// MAC returns the host's hardware address.
func (h *Host) MAC() pkt.MAC { return h.mac }

// RxDiscards returns how many frames addressed to this host it has dropped
// for a failed decode or checksum at any layer (Ethernet, ARP, IPv4, UDP,
// ICMP). The host is the only verifier of L4 checksums on the path.
func (h *Host) RxDiscards() uint64 { return h.rxDiscards.Load() }

// Close detaches the host; subsequent sends fail.
func (h *Host) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.ep.SetReceiver(nil)
}

// BindUDP installs a handler for datagrams to the given port. A nil handler
// unbinds.
func (h *Host) BindUDP(port uint16, fn UDPHandler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if fn == nil {
		delete(h.udpPorts, port)
		return
	}
	h.udpPorts[port] = fn
}

// nextHop picks the L2 destination for dst: on-link hosts directly, anything
// else via the gateway.
func (h *Host) nextHop(dst netip.Addr) (netip.Addr, error) {
	if h.addr.Contains(dst) {
		return dst, nil
	}
	if !h.gw.IsValid() {
		return netip.Addr{}, fmt.Errorf("%w: %v is off-link and no gateway is set", ErrNoRoute, dst)
	}
	return h.gw, nil
}

// Resolve returns the MAC for an on-link IP, performing ARP with retries.
func (h *Host) Resolve(ip netip.Addr) (pkt.MAC, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return pkt.MAC{}, ErrClosed
	}
	if mac, ok := h.arpCache[ip]; ok {
		h.mu.Unlock()
		return mac, nil
	}
	ch := make(chan pkt.MAC, 1)
	h.arpWait[ip] = append(h.arpWait[ip], ch)
	h.mu.Unlock()

	for attempt := 0; attempt < h.arpRetries; attempt++ {
		h.sendARP(pkt.BroadcastMAC, pkt.NewARPRequest(h.mac, h.addr.Addr(), ip))
		select {
		case mac := <-ch:
			return mac, nil
		case <-h.clk.After(h.arpTimeout):
		}
	}
	h.mu.Lock()
	waiters := h.arpWait[ip]
	for i, w := range waiters {
		if w == ch {
			h.arpWait[ip] = append(waiters[:i], waiters[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
	// A reply may have raced the timeout; prefer it.
	select {
	case mac := <-ch:
		return mac, nil
	default:
	}
	return pkt.MAC{}, fmt.Errorf("%w: %v", ErrARPTimeout, ip)
}

// sendARP transmits one ARP packet to dst.
func (h *Host) sendARP(dst pkt.MAC, a *pkt.ARP) {
	f := pkt.Frame{Dst: dst, Src: h.mac, Type: pkt.EtherTypeARP}
	h.ep.Send(a.AppendTo(f.AppendHeader(make([]byte, 0, pkt.EthernetHeaderLen+pkt.ARPLen))))
}

// ipv4Frame starts a frame to mac in one of the endpoint's transmit buffers:
// the Ethernet header and the header of ip, which will carry payloadLen
// bytes. The caller appends those and enqueues the buffer, so every layer is
// written once, into the buffer the cable delivers. It returns nil when the
// endpoint refuses the frame (link down, loss).
func (h *Host) ipv4Frame(mac pkt.MAC, ip *pkt.IPv4, payloadLen int) *Buffer {
	if !h.ep.admit() {
		return nil
	}
	f := pkt.Frame{Dst: mac, Src: h.mac, Type: pkt.EtherTypeIPv4}
	fb := framePool.Get().(*Buffer)
	fb.b = ip.AppendHeader(f.AppendHeader(fb.b[:0]), payloadLen)
	return fb
}

// sendICMP transmits one ICMP message to dst via the next hop mac.
func (h *Host) sendICMP(mac pkt.MAC, dst netip.Addr, m *pkt.ICMP) bool {
	ip := pkt.IPv4{TTL: 64, Proto: pkt.ProtoICMP, Src: h.addr.Addr(), Dst: dst}
	fb := h.ipv4Frame(mac, &ip, pkt.ICMPHeaderLen+len(m.Payload))
	if fb == nil {
		return false
	}
	fb.b = m.AppendTo(fb.b)
	return h.ep.enqueueOne(fb)
}

// SendUDP sends one datagram to dst:dstPort from srcPort, resolving the next
// hop first. It blocks only for ARP resolution of uncached next hops.
func (h *Host) SendUDP(dst netip.Addr, srcPort, dstPort uint16, payload []byte) error {
	nh, err := h.nextHop(dst)
	if err != nil {
		return err
	}
	mac, err := h.Resolve(nh)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.ipID++
	id := h.ipID
	h.mu.Unlock()
	ip := pkt.IPv4{ID: id, TTL: 64, Proto: pkt.ProtoUDP, Src: h.addr.Addr(), Dst: dst}
	u := pkt.UDP{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	fb := h.ipv4Frame(mac, &ip, pkt.UDPHeaderLen+len(payload))
	if fb != nil {
		fb.b = u.AppendTo(fb.b, ip.Src, ip.Dst)
	}
	if fb == nil || !h.ep.enqueueOne(fb) {
		return fmt.Errorf("netemu: host %s: frame dropped at NIC", h.name)
	}
	return nil
}

// Ping sends an ICMP echo request and waits for the reply or the timeout.
// The returned duration is measured on the host's clock.
func (h *Host) Ping(dst netip.Addr, timeout time.Duration) (time.Duration, error) {
	nh, err := h.nextHop(dst)
	if err != nil {
		return 0, err
	}
	mac, err := h.Resolve(nh)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	h.pingSeq++
	seq := h.pingSeq
	id := uint16(0xBEEF)
	key := uint32(id)<<16 | uint32(seq)
	ch := make(chan time.Duration, 1)
	h.pings[key] = ch
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.pings, key)
		h.mu.Unlock()
	}()

	start := h.clk.Now()
	echo := pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: id, Seq: seq, Payload: []byte("routeflow-ping")}
	if !h.sendICMP(mac, dst, &echo) {
		return 0, fmt.Errorf("netemu: host %s: ping frame dropped at NIC", h.name)
	}
	select {
	case <-ch:
		return h.clk.Since(start), nil
	case <-h.clk.After(timeout):
		return 0, fmt.Errorf("netemu: ping %v: timeout after %v", dst, timeout)
	}
}

// receive decodes every layer into stack values; nothing it hands on
// outlives the call, which is the UDPHandler contract.
func (h *Host) receive(frame []byte) {
	var f pkt.Frame
	if err := pkt.DecodeFrameInto(&f, frame); err != nil {
		h.rxDiscards.Add(1)
		return
	}
	if f.Dst != h.mac && !f.Dst.IsBroadcast() && !f.Dst.IsMulticast() {
		return // not for us
	}
	switch f.Type {
	case pkt.EtherTypeARP:
		h.handleARP(&f)
	case pkt.EtherTypeIPv4:
		h.handleIPv4(&f)
	}
}

func (h *Host) handleARP(f *pkt.Frame) {
	var a pkt.ARP
	if err := pkt.DecodeARPInto(&a, f.Payload); err != nil {
		h.rxDiscards.Add(1)
		return
	}
	// Learn the sender either way.
	h.mu.Lock()
	h.arpCache[a.SenderIP] = a.SenderHW
	waiters := h.arpWait[a.SenderIP]
	delete(h.arpWait, a.SenderIP)
	h.mu.Unlock()
	for _, ch := range waiters {
		select {
		case ch <- a.SenderHW:
		default:
		}
	}
	if a.Op == pkt.ARPRequest && a.TargetIP == h.addr.Addr() {
		h.sendARP(a.SenderHW, a.Reply(h.mac, h.addr.Addr()))
	}
}

func (h *Host) handleIPv4(f *pkt.Frame) {
	var ip pkt.IPv4
	if err := pkt.DecodeIPv4Into(&ip, f.Payload); err != nil {
		h.rxDiscards.Add(1)
		return
	}
	if ip.Dst != h.addr.Addr() {
		return // not for us
	}
	switch ip.Proto {
	case pkt.ProtoUDP:
		var u pkt.UDP
		if err := pkt.DecodeUDPInto(&u, ip.Payload, ip.Src, ip.Dst); err != nil {
			h.rxDiscards.Add(1)
			return
		}
		h.mu.Lock()
		fn := h.udpPorts[u.DstPort]
		h.mu.Unlock()
		if fn != nil {
			fn(ip.Src, u.SrcPort, u.Payload)
		}
	case pkt.ProtoICMP:
		var m pkt.ICMP
		if err := pkt.DecodeICMPInto(&m, ip.Payload); err != nil {
			h.rxDiscards.Add(1)
			return
		}
		switch m.Type {
		case pkt.ICMPEchoRequest:
			h.sendICMP(f.Src, ip.Src, m.EchoReply())
		case pkt.ICMPEchoReply:
			key := uint32(m.ID)<<16 | uint32(m.Seq)
			h.mu.Lock()
			ch := h.pings[key]
			h.mu.Unlock()
			if ch != nil {
				select {
				case ch <- 0:
				default:
				}
			}
		}
	}
}

// ARPCacheSnapshot returns a copy of the ARP cache (tests, GUI).
func (h *Host) ARPCacheSnapshot() map[netip.Addr]pkt.MAC {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[netip.Addr]pkt.MAC, len(h.arpCache))
	for k, v := range h.arpCache {
		out[k] = v
	}
	return out
}
