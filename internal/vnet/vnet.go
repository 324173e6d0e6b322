// Package vnet is the virtual environment of the RF-controller: the virtual
// machines that mirror the physical switches (Fig. 1 of the paper, VM-A …
// VM-D). Each VM models what an LXC container running Quagga provides in
// RouteFlow — a boot delay, one network interface per switch port, an IP
// stack that answers ARP and ICMP, slow-path IP forwarding out of the VM's
// RIB, and the routing control platform itself (package quagga: zebra +
// ospfd built from generated configuration files).
//
// A VM is transport-agnostic: the RouteFlow proxy injects frames punted
// from the physical switch with Inject and receives the VM's own frames via
// the OnTransmit hook, exactly mirroring the rf-proxy data path.
package vnet

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"routeflow/internal/bgp"
	"routeflow/internal/clock"
	"routeflow/internal/pkt"
	"routeflow/internal/quagga"
	"routeflow/internal/rib"
)

// State is the VM lifecycle state; the paper's GUI shows a switch red until
// its VM exists and is configured, then green.
type State int

// VM states.
const (
	StateBooting State = iota
	StateUp
	StateDestroyed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateBooting:
		return "booting"
	case StateUp:
		return "up"
	case StateDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// MAC returns the deterministic MAC of a VM interface; the high bit of the
// 40-bit local identifier separates the VM MAC space from emulated physical
// ports.
func MAC(dpid uint64, port uint16) pkt.MAC {
	return pkt.LocalMAC(1<<39 | (dpid&0xffffff)<<16 | uint64(port))
}

// IfaceName returns the conventional interface name for a switch port.
func IfaceName(port uint16) string { return fmt.Sprintf("eth%d", port) }

// Config configures a VM.
type Config struct {
	DPID     uint64
	Ports    int
	RouterID netip.Addr
	Clock    clock.Clock
	// BootDelay models VM creation/boot (LXC clone + daemon start). The
	// paper's automatic path pays seconds here instead of the manual path's
	// minutes.
	BootDelay time.Duration
	// Timers are passed to the routing daemons.
	Timers quagga.Timers
	// ASN, when non-zero, places the VM's switch in that autonomous system:
	// the router runs a bgpd speaker next to ospfd (redistributing connected
	// and OSPF routes) and carries a loopback on its router ID for iBGP
	// peering. Zero keeps the flat single-domain behaviour.
	ASN uint32
}

// HostLearned reports a (IP, MAC) binding learned by the VM's ARP on a
// connected subnet — the trigger for the RF-server's host (/32) flows.
type HostLearned struct {
	Port uint16
	IP   netip.Addr
	MAC  pkt.MAC
}

// VM is one virtual machine.
type VM struct {
	dpid uint64
	name string
	clk  clock.Clock

	mu         sync.Mutex
	state      State
	router     *quagga.Router
	ifaces     map[uint16]*vmIface
	byName     map[string]*vmIface // name → iface index for the per-packet route path
	pendingOps []func()            // configuration arriving while booting
	bootTimer  clock.Timer

	// cfgMu serializes router (re)configuration: boot-time pending ops run
	// in the boot goroutine while the RPC server applies new configuration
	// concurrently; interleaved Detach/Attach on one interface would leave
	// the routing daemons silently inconsistent (an attached interface
	// missing from OSPF — a dead adjacency forever).
	cfgMu sync.Mutex

	onTransmit func(port uint16, frame []byte)
	onHost     func(HostLearned)
	onReady    func()

	ipID   uint16
	bgpSeq uint32
}

type vmIface struct {
	port    uint16
	name    string
	mac     pkt.MAC
	addr    netip.Prefix // zero until configured
	passive bool         // OSPF-passive (eBGP border interface)

	arp     map[netip.Addr]pkt.MAC
	pending map[netip.Addr][][]byte // frames awaiting ARP, keyed by next hop
}

// New creates a VM; it transitions to StateUp after BootDelay.
func New(cfg Config) (*VM, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("vnet: VM for %016x needs at least one port", cfg.DPID)
	}
	if !cfg.RouterID.Is4() {
		return nil, fmt.Errorf("vnet: VM for %016x needs an IPv4 router ID", cfg.DPID)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	name := fmt.Sprintf("vm-%016x", cfg.DPID)
	qc := &quagga.Config{
		Hostname: name,
		RouterID: cfg.RouterID,
	}
	if cfg.ASN != 0 {
		// The BGP stanza mirrors what the paper's RPC server would write to
		// bgpd.conf: the AS plus IGP redistribution; neighbors are added as
		// border links and same-AS VMs are discovered.
		qc.BGP = &quagga.BGPConfig{
			ASN:          cfg.ASN,
			Redistribute: []string{"connected", "ospf"},
		}
	}
	router, err := quagga.NewRouter(qc, cfg.Clock, cfg.Timers)
	if err != nil {
		return nil, err
	}
	vm := &VM{
		dpid:   cfg.DPID,
		name:   name,
		clk:    cfg.Clock,
		state:  StateBooting,
		router: router,
		ifaces: make(map[uint16]*vmIface),
		byName: make(map[string]*vmIface),
	}
	for p := 1; p <= cfg.Ports; p++ {
		port := uint16(p)
		ifc := &vmIface{
			port: port, name: IfaceName(port), mac: MAC(cfg.DPID, port),
			arp:     make(map[netip.Addr]pkt.MAC),
			pending: make(map[netip.Addr][][]byte),
		}
		vm.ifaces[port] = ifc
		vm.byName[ifc.name] = ifc
	}
	router.SetBGPTransport(vm.sendBGPMessage)
	vm.bootTimer = cfg.Clock.NewTimer(cfg.BootDelay)
	go vm.bootWait()
	return vm, nil
}

func (vm *VM) bootWait() {
	<-vm.bootTimer.C()
	vm.mu.Lock()
	if vm.state != StateBooting {
		vm.mu.Unlock()
		return
	}
	vm.state = StateUp
	ops := vm.pendingOps
	vm.pendingOps = nil
	ready := vm.onReady
	vm.mu.Unlock()
	// The daemons start over no interfaces; each queued interface sends its
	// own first hello as it is attached (ospf.AddInterface on a running
	// instance), so nothing here waits for a hello tick.
	vm.router.Start()
	for _, op := range ops {
		op()
	}
	if ready != nil {
		ready()
	}
}

// DPID returns the mirrored switch's datapath ID.
func (vm *VM) DPID() uint64 { return vm.dpid }

// Name returns the VM name.
func (vm *VM) Name() string { return vm.name }

// State returns the lifecycle state.
func (vm *VM) State() State {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.state
}

// Ports returns the number of interfaces. It starts at the announced port
// count and grows when configuration names a port beyond it (interfaces are
// created on demand, so the SwitchUp port *count* is a sizing hint, not a
// contract on port *numbers*).
func (vm *VM) Ports() int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return len(vm.ifaces)
}

// Router exposes the VM's routing control platform.
func (vm *VM) Router() *quagga.Router { return vm.router }

// RIB exposes the VM's routing table.
func (vm *VM) RIB() *rib.RIB { return vm.router.RIB() }

// OnTransmit installs the frame sink (the rf-proxy's packet-out path).
func (vm *VM) OnTransmit(f func(port uint16, frame []byte)) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.onTransmit = f
}

// OnFIB installs the FIB-change hook: f runs after every RIB mutation that
// changed a best set, outside the RIB's lock, and reads the table back through
// RIB (the rf-server's flow compiler).
func (vm *VM) OnFIB(f func()) {
	vm.router.RIB().Watch(func(rib.Source) { f() })
}

// OnHostLearned installs the host-binding hook.
func (vm *VM) OnHostLearned(f func(HostLearned)) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.onHost = f
}

// OnReady installs a callback fired when the VM finishes booting.
func (vm *VM) OnReady(f func()) {
	vm.mu.Lock()
	if vm.state == StateUp {
		vm.mu.Unlock()
		f()
		return
	}
	vm.onReady = f
	vm.mu.Unlock()
}

// Destroy tears the VM down.
func (vm *VM) Destroy() {
	vm.mu.Lock()
	if vm.state == StateDestroyed {
		vm.mu.Unlock()
		return
	}
	prev := vm.state
	vm.state = StateDestroyed
	vm.bootTimer.Stop()
	vm.mu.Unlock()
	if prev == StateUp {
		vm.router.Stop()
	}
}

// ConfigureInterface assigns an address to the interface mirroring a switch
// port and enables OSPF on it (the link-up half of the RPC server's work).
// Calls while booting are queued and applied when the VM comes up.
//
// The call is idempotent and convergent, as a reconciled apply path must
// be: re-announcing the current address is a no-op, announcing a different
// address reconfigures the interface, and naming a port the VM does not
// have yet grows a fresh interface on demand (the announced port count is a
// hint, not a bound on port numbers).
func (vm *VM) ConfigureInterface(port uint16, addr netip.Prefix, cost uint16, ospfNetwork netip.Prefix) error {
	return vm.configureInterface(port, addr, cost, ospfNetwork, false)
}

// ConfigureBorderInterface is ConfigureInterface for an eBGP border link:
// the interface is addressed but OSPF-passive — no adjacency forms across
// the domain boundary, no network statement is added, and routing across
// the link is bgpd's job (add the neighbor with the Router's
// AddBGPNeighbor). Idempotent and convergent like ConfigureInterface.
func (vm *VM) ConfigureBorderInterface(port uint16, addr netip.Prefix, cost uint16) error {
	return vm.configureInterface(port, addr, cost, netip.Prefix{}, true)
}

func (vm *VM) configureInterface(port uint16, addr netip.Prefix, cost uint16, ospfNetwork netip.Prefix, passive bool) error {
	if port == 0 {
		return fmt.Errorf("vnet: %s: port numbers are 1-based", vm.name)
	}
	vm.mu.Lock()
	if vm.state == StateDestroyed {
		vm.mu.Unlock()
		return fmt.Errorf("vnet: %s is %v", vm.name, StateDestroyed)
	}
	ifc, ok := vm.ifaces[port]
	if !ok {
		ifc = &vmIface{
			port: port, name: IfaceName(port), mac: MAC(vm.dpid, port),
			arp:     make(map[netip.Addr]pkt.MAC),
			pending: make(map[netip.Addr][][]byte),
		}
		vm.ifaces[port] = ifc
		vm.byName[ifc.name] = ifc
	}
	if ifc.addr == addr && ifc.passive == passive &&
		(vm.state == StateBooting || vm.router.Attached(ifc.name)) {
		vm.mu.Unlock()
		return nil // level-triggered re-apply: already converged (or queued)
	}
	if ifc.addr.IsValid() {
		// Readdressing: stale neighbour state dies with the old subnet.
		ifc.arp = make(map[netip.Addr]pkt.MAC)
		ifc.pending = make(map[netip.Addr][][]byte)
	}
	ifc.addr = addr
	ifc.passive = passive
	if vm.state == StateBooting {
		vm.pendingOps = append(vm.pendingOps, func() {
			// Self-cancel if a later declaration superseded this one while
			// the VM was still booting: only the current address applies.
			vm.mu.Lock()
			cur, curPassive := ifc.addr, ifc.passive
			vm.mu.Unlock()
			if cur == addr && curPassive == passive {
				vm.applyInterface(ifc, addr, cost, ospfNetwork, passive)
			}
		})
		vm.mu.Unlock()
		return nil
	}
	vm.mu.Unlock()
	vm.applyInterface(ifc, addr, cost, ospfNetwork, passive)
	return nil
}

func (vm *VM) applyInterface(ifc *vmIface, addr netip.Prefix, cost uint16, ospfNetwork netip.Prefix, passive bool) {
	vm.cfgMu.Lock()
	defer vm.cfgMu.Unlock()
	// Detach any previous incarnation so a re-apply converges to the new
	// address instead of erroring on the old attachment (no-op when the
	// interface was never attached).
	vm.router.Detach(ifc.name)
	if ospfNetwork.IsValid() {
		vm.router.AddNetwork(ospfNetwork)
	}
	if err := vm.router.AddInterfaceConfig(quagga.InterfaceConfig{
		Name: ifc.name, Address: addr, Cost: cost, Passive: passive,
	}); err != nil {
		return
	}
	port := ifc.port
	_, _ = vm.router.Attach(ifc.name, func(dst netip.Addr, payload []byte) {
		vm.sendOSPF(port, dst, payload)
	})
}

// DeconfigureInterface reverses ConfigureInterface (link-down).
func (vm *VM) DeconfigureInterface(port uint16) {
	vm.mu.Lock()
	ifc, ok := vm.ifaces[port]
	if !ok || !ifc.addr.IsValid() {
		vm.mu.Unlock()
		return
	}
	name := ifc.name
	ifc.addr = netip.Prefix{}
	ifc.passive = false
	ifc.arp = make(map[netip.Addr]pkt.MAC)
	ifc.pending = make(map[netip.Addr][][]byte)
	vm.mu.Unlock()
	vm.cfgMu.Lock()
	vm.router.Detach(name)
	vm.cfgMu.Unlock()
}

// InterfaceAddr returns the address assigned to a port's interface.
func (vm *VM) InterfaceAddr(port uint16) (netip.Prefix, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	ifc, ok := vm.ifaces[port]
	if !ok || !ifc.addr.IsValid() {
		return netip.Prefix{}, false
	}
	return ifc.addr, true
}

// InterfaceMAC returns the MAC of a port's interface.
func (vm *VM) InterfaceMAC(port uint16) (pkt.MAC, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	ifc, ok := vm.ifaces[port]
	if !ok {
		return pkt.MAC{}, false
	}
	return ifc.mac, true
}

// ConfiguredPorts lists ports with addressed interfaces.
func (vm *VM) ConfiguredPorts() []uint16 {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	var out []uint16
	for p, ifc := range vm.ifaces {
		if ifc.addr.IsValid() {
			out = append(out, p)
		}
	}
	return out
}

// LookupARP consults the interface ARP cache.
func (vm *VM) LookupARP(port uint16, ip netip.Addr) (pkt.MAC, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	ifc, ok := vm.ifaces[port]
	if !ok {
		return pkt.MAC{}, false
	}
	mac, ok := ifc.arp[ip]
	return mac, ok
}

// transmit hands a frame to the rf-proxy.
func (vm *VM) transmit(port uint16, frame []byte) {
	vm.mu.Lock()
	f := vm.onTransmit
	vm.mu.Unlock()
	if f != nil {
		f(port, frame)
	}
}

// sendOSPF wraps an OSPF payload in IP and Ethernet. All OSPF traffic uses
// the AllSPFRouters multicast MAC: the links are point-to-point, so the
// single peer receives it either way.
func (vm *VM) sendOSPF(port uint16, dst netip.Addr, payload []byte) {
	vm.mu.Lock()
	ifc, ok := vm.ifaces[port]
	if !ok || !ifc.addr.IsValid() || vm.state != StateUp {
		vm.mu.Unlock()
		return
	}
	src := ifc.addr.Addr()
	mac := ifc.mac
	vm.ipID++
	id := vm.ipID
	vm.mu.Unlock()
	ip := &pkt.IPv4{ID: id, TTL: 1, Proto: pkt.ProtoOSPF, Src: src, Dst: dst, Payload: payload}
	frame := &pkt.Frame{
		Dst:     pkt.MAC{0x01, 0x00, 0x5e, 0x00, 0x00, 0x05}, // 224.0.0.5
		Src:     mac,
		Type:    pkt.EtherTypeIPv4,
		Payload: ip.Marshal(),
	}
	vm.transmit(port, frame.Marshal())
}

// sendBGPMessage carries one bgpd message onto the TCP-like channel: the
// payload rides a single port-179 segment inside a unicast IP packet, which
// the VM originates through its own RIB — eBGP messages cross the border
// link directly, iBGP messages are routed hop by hop toward the peer's
// loopback like any other traffic.
func (vm *VM) sendBGPMessage(src, dst netip.Addr, payload []byte) {
	vm.mu.Lock()
	if vm.state != StateUp {
		vm.mu.Unlock()
		return
	}
	vm.ipID++
	id := vm.ipID
	vm.bgpSeq++
	seq := vm.bgpSeq
	vm.mu.Unlock()
	seg := &pkt.TCP{SrcPort: bgp.Port, DstPort: bgp.Port, Seq: seq,
		Flags: pkt.TCPPsh | pkt.TCPAck, Window: 0xffff, Payload: payload}
	vm.originate(&pkt.IPv4{ID: id, TTL: 64, Proto: pkt.ProtoTCP,
		Src: src, Dst: dst, Payload: seg.Marshal(src, dst)})
}

// originate routes a self-generated IP packet out of the VM: RIB lookup for
// the egress interface, ARP resolution (queueing behind an ARP request like
// the transit path) and transmission.
func (vm *VM) originate(p *pkt.IPv4) {
	rt, ok := vm.RIB().Lookup(p.Dst)
	if !ok {
		return
	}
	egress, ok := vm.ifaceByName(rt.Iface)
	if !ok {
		return
	}
	hop := p.Dst
	if rt.NextHop.IsValid() {
		hop = rt.NextHop
	}
	frame := (&pkt.Frame{Src: egress.mac, Type: pkt.EtherTypeIPv4,
		Payload: p.Marshal()}).Marshal()
	// The frame is freshly marshalled and owned here, so queueing behind ARP
	// retains it as-is.
	mac, ok := vm.resolveNextHop(egress, hop, func() []byte { return frame })
	if !ok {
		return
	}
	copy(frame[0:6], mac[:])
	vm.transmit(egress.port, frame)
}

// resolveNextHop returns the MAC for hop on egress. On an ARP miss it queues
// queued() — which must return a frame safe to retain until ARP answers
// (forwardResolved patches its destination MAC and flushes it) — behind a
// broadcast ARP request and reports ok=false. Shared by the transit path
// (route) and the self-originated path (originate).
func (vm *VM) resolveNextHop(egress *vmIface, hop netip.Addr, queued func() []byte) (pkt.MAC, bool) {
	vm.mu.Lock()
	if mac, ok := egress.arp[hop]; ok {
		vm.mu.Unlock()
		return mac, true
	}
	if q := egress.pending[hop]; len(q) < maxPendingPerHop {
		egress.pending[hop] = append(q, queued())
	}
	srcAddr := egress.addr
	srcMAC := egress.mac
	vm.mu.Unlock()
	if srcAddr.IsValid() {
		req := pkt.NewARPRequest(srcMAC, srcAddr.Addr(), hop)
		out := &pkt.Frame{Dst: pkt.BroadcastMAC, Src: srcMAC,
			Type: pkt.EtherTypeARP, Payload: req.Marshal()}
		vm.transmit(egress.port, out.Marshal())
	}
	return pkt.MAC{}, false
}
