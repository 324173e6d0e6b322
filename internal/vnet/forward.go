package vnet

import (
	"net/netip"

	"routeflow/internal/bgp"
	"routeflow/internal/pkt"
)

// maxPendingPerHop bounds frames queued while ARP resolves one next hop.
const maxPendingPerHop = 64

// Inject delivers a frame punted from the physical switch into the VM
// interface mirroring the ingress port — the rf-proxy's upward data path.
// Inject borrows frame for the call only: the punted frame is lent by the
// control channel's decoder, so whatever the VM keeps or sends on is a copy
// (see route), and frame is left as it was.
func (vm *VM) Inject(port uint16, frame []byte) {
	vm.mu.Lock()
	ifc, ok := vm.ifaces[port]
	up := vm.state == StateUp
	vm.mu.Unlock()
	if !ok || !up {
		return
	}
	vm.inject(ifc, frame)
}

func (vm *VM) inject(ifc *vmIface, frame []byte) {
	var f pkt.Frame
	if err := pkt.DecodeFrameInto(&f, frame); err != nil {
		return
	}
	switch f.Type {
	case pkt.EtherTypeARP:
		vm.handleARP(ifc, &f)
	case pkt.EtherTypeIPv4:
		vm.handleIPv4(ifc, &f, frame)
	}
}

func (vm *VM) handleARP(ifc *vmIface, f *pkt.Frame) {
	a, err := pkt.DecodeARP(f.Payload)
	if err != nil {
		return
	}
	vm.learnARP(ifc, a.SenderIP, a.SenderHW)
	vm.mu.Lock()
	addr := ifc.addr
	mac := ifc.mac
	vm.mu.Unlock()
	if !addr.IsValid() {
		return
	}
	if a.Op == pkt.ARPRequest && a.TargetIP == addr.Addr() {
		rep := a.Reply(mac, addr.Addr())
		out := &pkt.Frame{Dst: a.SenderHW, Src: mac, Type: pkt.EtherTypeARP,
			Payload: rep.Marshal()}
		vm.transmit(ifc.port, out.Marshal())
	}
}

// learnARP records a binding, flushes queued frames, and publishes the
// host-learned event when the address is on the interface subnet.
func (vm *VM) learnARP(ifc *vmIface, ip netip.Addr, mac pkt.MAC) {
	if !ip.Is4() || mac.IsZero() {
		return
	}
	vm.mu.Lock()
	_, known := ifc.arp[ip]
	ifc.arp[ip] = mac
	queued := ifc.pending[ip]
	delete(ifc.pending, ip)
	onLink := ifc.addr.IsValid() && ifc.addr.Contains(ip)
	hostCb := vm.onHost
	vm.mu.Unlock()

	for _, frame := range queued {
		vm.forwardResolved(ifc, frame, mac)
	}
	if !known && onLink && hostCb != nil {
		hostCb(HostLearned{Port: ifc.port, IP: ip, MAC: mac})
	}
}

func (vm *VM) handleIPv4(ifc *vmIface, f *pkt.Frame, frame []byte) {
	var ip pkt.IPv4
	if err := pkt.DecodeIPv4Into(&ip, f.Payload); err != nil {
		return
	}
	vm.mu.Lock()
	addr := ifc.addr
	vm.mu.Unlock()

	// OSPF rides multicast or our own address.
	if ip.Proto == pkt.ProtoOSPF {
		vm.deliverOSPF(ifc, &ip)
		return
	}
	// BGP sessions terminate on any local address — border interfaces for
	// eBGP, the loopback for iBGP — not just the ingress interface.
	if ip.Proto == pkt.ProtoTCP && vm.router.IsLocalAddr(ip.Dst) {
		vm.deliverTCP(&ip)
		return
	}
	if addr.IsValid() && ip.Dst == addr.Addr() {
		// For us: ICMP echo is the only local service.
		if ip.Proto == pkt.ProtoICMP {
			vm.answerEcho(ifc, f, &ip)
		}
		return
	}
	// Transit: the VM routes it (the punted slow path a Quagga VM's kernel
	// would take).
	vm.route(f, &ip, frame)
}

// deliverTCP terminates a locally addressed TCP segment: port 179 goes to
// bgpd; anything else is dropped (no other local TCP service exists).
func (vm *VM) deliverTCP(ip *pkt.IPv4) {
	var seg pkt.TCP
	if err := pkt.DecodeTCPInto(&seg, ip.Payload, ip.Src, ip.Dst); err != nil {
		return
	}
	if seg.DstPort != bgp.Port {
		return
	}
	vm.router.DeliverBGP(ip.Src, seg.Payload)
}

func (vm *VM) deliverOSPF(ifc *vmIface, ip *pkt.IPv4) {
	name := ifc.name
	// Find the attached OSPF interface through the router.
	ospfIfc := vm.router.OSPFInterface(name)
	if ospfIfc != nil {
		ospfIfc.Deliver(ip.Src, ip.Payload)
	}
}

func (vm *VM) answerEcho(ifc *vmIface, f *pkt.Frame, ip *pkt.IPv4) {
	m, err := pkt.DecodeICMP(ip.Payload)
	if err != nil || m.Type != pkt.ICMPEchoRequest {
		return
	}
	vm.mu.Lock()
	mac := ifc.mac
	src := ifc.addr.Addr()
	vm.ipID++
	id := vm.ipID
	vm.mu.Unlock()
	out := &pkt.IPv4{ID: id, TTL: 64, Proto: pkt.ProtoICMP, Src: src, Dst: ip.Src,
		Payload: m.EchoReply().Marshal()}
	frame := &pkt.Frame{Dst: f.Src, Src: mac, Type: pkt.EtherTypeIPv4,
		Payload: out.Marshal()}
	vm.transmit(ifc.port, frame.Marshal())
}

// route performs slow-path IP forwarding using the VM's RIB. The punted
// frame is borrowed from the control channel's read buffer, while the frame
// sent on waits in a send queue and an ARP miss queues it, so the hop is
// executed on one copy: TTL decremented with an RFC 1624 incremental
// checksum update and the Ethernet addresses overwritten, instead of the
// decode → re-marshal round trip per hop this path used to pay.
func (vm *VM) route(f *pkt.Frame, ip *pkt.IPv4, frame []byte) {
	if ip.TTL <= 1 {
		return // expired; a full router would send ICMP time-exceeded
	}
	rt, ok := vm.RIB().Lookup(ip.Dst)
	if !ok {
		return
	}
	egress, ok := vm.ifaceByName(rt.Iface)
	if !ok {
		return
	}
	out := append([]byte(nil), frame...)
	// f.Payload is the tail of frame; patch the same bytes of out.
	if !pkt.DecrementTTL(out[len(out)-len(f.Payload):]) {
		return
	}
	copy(out[6:12], egress.mac[:])

	hop := ip.Dst
	if rt.NextHop.IsValid() {
		hop = rt.NextHop
	}
	mac, ok := vm.resolveNextHop(egress, hop, func() []byte { return out })
	if !ok {
		return
	}
	copy(out[0:6], mac[:])
	vm.transmit(egress.port, out)
}

func (vm *VM) forwardResolved(ifc *vmIface, frame []byte, mac pkt.MAC) {
	if len(frame) < pkt.EthernetHeaderLen {
		return
	}
	copy(frame[0:6], mac[:])
	vm.transmit(ifc.port, frame)
}

func (vm *VM) ifaceByName(name string) (*vmIface, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	ifc, ok := vm.byName[name]
	return ifc, ok
}

// NextHopMAC computes the deterministic MAC of a peer VM interface — the
// RF-server uses this when translating routes whose next hop is another
// VM's interface address.
func NextHopMAC(dpid uint64, port uint16) pkt.MAC { return MAC(dpid, port) }
