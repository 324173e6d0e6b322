// Package rf implements the RouteFlow control platform of the paper's
// RF-controller (Fig. 1): the rf-server that owns one virtual machine per
// switch and the 1:1 mapping between VM interfaces and switch ports; the
// rf-proxy data path that punts packet-ins into the mirrored VM interface
// and packet-outs the VM's own frames; and the route translation that
// compiles each VM's routing table into OpenFlow flow entries on its physical
// switch (match on destination prefix, rewrite source/destination MACs, and
// forward out the mapped port) and sends the switch what changed. The
// package also embeds the paper's RPC server: configuration messages from the
// topology controller create VMs, map them to switches, address their
// interfaces and write their routing configuration files.
package rf

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/ctlkit"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
	"routeflow/internal/quagga"
	"routeflow/internal/rib"
	"routeflow/internal/rpcconf"
	"routeflow/internal/telemetry"
	"routeflow/internal/vnet"
)

// Defaults.
const (
	DefaultBootDelay = 2 * time.Second // modeled LXC clone + daemon start
	DefaultLinkCost  = 10
	hostFlowPriority = 500 // above any prefix flow (100..132 + bits)
)

// Config configures the platform.
type Config struct {
	Clock clock.Clock
	// Pool is the administrator's IP range for the virtual environment; it
	// becomes the OSPF network statement of every VM.
	Pool netip.Prefix
	// BootDelay models VM creation time.
	BootDelay time.Duration
	// Timers are the routing daemons' protocol timers (zero = RFC
	// defaults).
	Timers quagga.Timers
	// OnStatus, if set, observes per-switch configuration state changes
	// (the red/green GUI signal). May be called concurrently.
	OnStatus func(dpid uint64, state vnet.State)
	// Sharded marks this platform as one replica of a distributed
	// RF-controller: it only materialises state for switches it has been
	// told to Adopt, and fences configuration messages for everything else.
	// Off (the default), the platform owns every switch — the paper's
	// single rf-server.
	Sharded bool
	// ApplyDelay models the per-message work of the paper's RPC server (VM
	// cloning, config-file writes). It is served inside the RPC server's
	// apply lock, so it serialises within one replica but parallelises
	// across replicas — the quantity sharding exists to divide.
	ApplyDelay time.Duration
}

type addrOwner struct {
	dpid uint64
	port uint16
}

// Platform is the RF-controller application state.
type Platform struct {
	cfg Config
	clk clock.Clock
	ctl *ctlkit.Controller

	mu        sync.Mutex
	vms       map[uint64]*vnet.VM
	asns      map[uint64]uint32 // AS per switch (0 = flat domain)
	addrIndex map[netip.Addr]addrOwner
	// portAddr records the address assigned to every link/host endpoint the
	// platform has been told about — including endpoints mastered by another
	// replica, whose VM does not exist here but whose address the teardown
	// path still needs for eBGP unpeering.
	portAddr map[addrOwner]netip.Prefix
	// owned is the set of adopted switches (Sharded mode only).
	owned map[uint64]bool
	// sw is every switch's own inputs and compiled table (desired.go).
	sw map[uint64]*switchState
	// tel is the current monitoring program without rules, and telRules each
	// switch's rules in it.
	tel      openflow.TelemetryMod
	telRules map[uint64][]openflow.MonitorRule

	// telMu guards the telemetry aggregator (see telemetry.go); it is
	// separate from mu so export handling never contends with the RPC apply
	// path.
	telMu  sync.Mutex
	telAgg *telemetry.Aggregator

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New creates the platform and its embedded controller runtime.
func New(cfg Config) (*Platform, error) {
	if !cfg.Pool.Addr().Is4() {
		return nil, fmt.Errorf("rf: pool %v is not IPv4", cfg.Pool)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.BootDelay <= 0 {
		cfg.BootDelay = DefaultBootDelay
	}
	p := &Platform{
		cfg:       cfg,
		clk:       cfg.Clock,
		vms:       make(map[uint64]*vnet.VM),
		asns:      make(map[uint64]uint32),
		addrIndex: make(map[netip.Addr]addrOwner),
		portAddr:  make(map[addrOwner]netip.Prefix),
		owned:     make(map[uint64]bool),
		sw:        make(map[uint64]*switchState),
		stop:      make(chan struct{}),
	}
	p.ctl = ctlkit.New("rf-controller", cfg.Clock,
		ctlkit.Callbacks{SwitchUp: p.onSwitchUp, PacketIn: p.onPacketIn, Telemetry: p.onTelemetry})
	p.wg.Add(1)
	go p.repairLoop()
	return p, nil
}

// Controller returns the ctlkit runtime (serve it on the FlowVisor-facing
// listener).
func (p *Platform) Controller() *ctlkit.Controller { return p.ctl }

// Stop halts the platform.
func (p *Platform) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.ctl.Stop()
	p.mu.Lock()
	vms := make([]*vnet.VM, 0, len(p.vms))
	for _, vm := range p.vms {
		vms = append(vms, vm)
	}
	p.mu.Unlock()
	for _, vm := range vms {
		vm.Destroy()
	}
}

// VM returns the VM mirroring dpid.
func (p *Platform) VM(dpid uint64) (*vnet.VM, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	vm, ok := p.vms[dpid]
	return vm, ok
}

// NumVMs returns how many VMs exist.
func (p *Platform) NumVMs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.vms)
}

// Configured reports the paper's green condition: the switch has a
// corresponding VM and it is up.
func (p *Platform) Configured(dpid uint64) bool {
	vm, ok := p.VM(dpid)
	return ok && vm.State() == vnet.StateUp
}

// ConfigFiles returns the generated routing configuration files of a VM
// (zebra.conf, ospfd.conf, bgpd.conf) — the files the paper's RPC server
// writes. They are rendered from the VM's running configuration, so
// everything applied since creation (boot-deferred interfaces, BGP
// neighbors learned as border links came up) is always reflected. ok is
// false once the VM is gone.
func (p *Platform) ConfigFiles(dpid uint64) (map[string]string, bool) {
	p.mu.Lock()
	vm := p.vms[dpid]
	p.mu.Unlock()
	if vm == nil {
		return nil, false
	}
	return vm.Router().Config().Files(), true
}

// Owns reports whether this platform masters dpid. A non-sharded platform
// masters everything.
func (p *Platform) Owns(dpid uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ownsLocked(dpid)
}

func (p *Platform) ownsLocked(dpid uint64) bool { return !p.cfg.Sharded || p.owned[dpid] }

// Adopt grants this replica mastership of a switch and syncs it: a previous
// master may have left entries behind. A switch not connected yet is synced
// when it connects. No-op unless Sharded.
func (p *Platform) Adopt(dpid uint64) {
	if !p.cfg.Sharded {
		return
	}
	p.mu.Lock()
	p.owned[dpid] = true
	p.mu.Unlock()
	p.sync(dpid)
}

// Release revokes mastership: the switch's VM and desired state are dropped
// locally (nothing is sent and no RPC teardown runs — the new master owns the
// switch's fate) and any live control session is cut so the switch re-dials,
// landing on its new master. No-op unless Sharded.
func (p *Platform) Release(dpid uint64) {
	if !p.cfg.Sharded {
		return
	}
	p.mu.Lock()
	delete(p.owned, dpid)
	p.mu.Unlock()
	p.teardownSwitch(dpid)
	if sc, ok := p.ctl.Switch(dpid); ok {
		sc.Close()
	}
}

// RPCHandler returns the configuration-message handler for rpcconf.Server —
// the paper's RPC server embedded in the RF-controller.
func (p *Platform) RPCHandler() rpcconf.Handler {
	return func(m *rpcconf.Message) error {
		if d := p.cfg.ApplyDelay; d > 0 && m.Kind != rpcconf.KindProbe {
			// Modeled apply cost, held inside the server's apply lock.
			p.clk.Sleep(d)
		}
		switch m.Kind {
		case rpcconf.KindSwitchUp:
			return p.handleSwitchUp(m)
		case rpcconf.KindSwitchDown:
			return p.handleSwitchDown(m)
		case rpcconf.KindLinkUp:
			return p.handleLinkUp(m)
		case rpcconf.KindLinkDown:
			return p.handleLinkDown(m)
		case rpcconf.KindHostUp:
			return p.handleHostUp(m)
		case rpcconf.KindHostDown:
			return p.handleHostDown(m)
		case rpcconf.KindProbe:
			return nil // epoch probe: the ack itself is the answer
		default:
			return fmt.Errorf("rf: unknown configuration message %q", m.Kind)
		}
	}
}

func (p *Platform) handleSwitchUp(m *rpcconf.Message) error {
	if !p.Owns(m.DPID) {
		// Mastership fence: a stale reconciler (or one racing a rehome)
		// must not materialise a VM on the wrong replica. The error makes
		// the sender retry; the ownership transfer drops the item from the
		// non-owner's store.
		return fmt.Errorf("rf: switch-up %016x: not the master of this switch", m.DPID)
	}
	p.mu.Lock()
	if _, dup := p.vms[m.DPID]; dup {
		p.mu.Unlock()
		return nil // idempotent: re-announcements are harmless
	}
	p.mu.Unlock()

	vm, err := vnet.New(vnet.Config{
		DPID:      m.DPID,
		Ports:     m.Ports,
		RouterID:  routerID(m.DPID),
		Clock:     p.clk,
		BootDelay: p.cfg.BootDelay,
		Timers:    p.cfg.Timers,
		ASN:       m.ASN,
	})
	if err != nil {
		return fmt.Errorf("rf: creating VM for %016x: %w", m.DPID, err)
	}
	dpid := m.DPID
	vm.OnTransmit(func(port uint16, frame []byte) {
		_ = p.ctl.PacketOut(dpid, openflow.PortNone,
			[]openflow.Action{&openflow.ActionOutput{Port: port}}, frame)
	})
	vm.OnFIB(func() { p.refresh(dpid) })
	vm.OnHostLearned(func(h vnet.HostLearned) { p.onHostLearned(vm, h) })
	if cb := p.cfg.OnStatus; cb != nil {
		vm.OnReady(func() { cb(dpid, vnet.StateUp) })
		cb(dpid, vnet.StateBooting)
	}

	p.mu.Lock()
	p.vms[dpid] = vm
	p.asns[dpid] = m.ASN
	// Routes the VM installed before it was stored compiled to nothing.
	p.refreshLocked(dpid)
	var ibgpPeers []*vnet.VM
	if m.ASN != 0 {
		// Full-mesh iBGP inside the AS: peer the new VM with every existing
		// same-AS VM on loopbacks (router IDs), both directions. Route
		// reflection is the road-mapped follow-on once meshes grow.
		for peerDPID, peerASN := range p.asns {
			if peerDPID != dpid && peerASN == m.ASN {
				ibgpPeers = append(ibgpPeers, p.vms[peerDPID])
			}
		}
	}
	p.mu.Unlock()
	rid := vm.Router().Config().RouterID
	for _, peer := range ibgpPeers {
		peerRID := peer.Router().Config().RouterID
		vm.Router().AddBGPNeighbor(peerRID, m.ASN)
		peer.Router().AddBGPNeighbor(rid, m.ASN)
	}
	return nil
}

func (p *Platform) handleSwitchDown(m *rpcconf.Message) error {
	p.teardownSwitch(m.DPID)
	return nil
}

// routerID derives a VM's router ID from its datapath ID, 10.255.0.0 + dpid,
// so it depends neither on which replica creates the VM nor on the order
// switches are discovered in.
func routerID(dpid uint64) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], 10<<24|255<<16+uint32(dpid))
	return netip.AddrFrom4(b)
}

// teardownSwitch removes every trace of a switch from this platform: its VM
// (destroyed), learned hosts, pins, address and endpoint indexes, and its
// seat in the AS's iBGP mesh. The switch then compiles to no flows, and a
// FIB change the dying VM still reports compiles to none either. Shared by
// the RPC switch-down path and Release. The monitoring program stays: the
// telemetry placement decides where it goes.
func (p *Platform) teardownSwitch(dpid uint64) {
	p.mu.Lock()
	vm, ok := p.vms[dpid]
	asn := p.asns[dpid]
	delete(p.vms, dpid)
	delete(p.asns, dpid)
	for a, o := range p.addrIndex {
		if o.dpid == dpid {
			delete(p.addrIndex, a)
		}
	}
	for o := range p.portAddr {
		if o.dpid == dpid {
			delete(p.portAddr, o)
		}
	}
	var ibgpPeers []*vnet.VM
	if ok && asn != 0 {
		for peerDPID, peerASN := range p.asns {
			if peerASN == asn {
				ibgpPeers = append(ibgpPeers, p.vms[peerDPID])
			}
		}
	}
	if st := p.sw[dpid]; st != nil {
		clear(st.hosts)
		st.pins = nil
	}
	p.refreshAllLocked()
	p.mu.Unlock()
	if ok {
		// Unpeer the departed VM from the AS's iBGP mesh.
		rid := vm.Router().Config().RouterID
		for _, peer := range ibgpPeers {
			peer.Router().RemoveBGPNeighbor(rid)
		}
		vm.Destroy()
		if cb := p.cfg.OnStatus; cb != nil {
			cb(dpid, vnet.StateDestroyed)
		}
	}
}

func (p *Platform) handleLinkUp(m *rpcconf.Message) error {
	aAddr, err := m.AAddrPrefix()
	if err != nil {
		return fmt.Errorf("rf: link-up aAddr: %w", err)
	}
	bAddr, err := m.BAddrPrefix()
	if err != nil {
		return fmt.Errorf("rf: link-up bAddr: %w", err)
	}
	ownA, ownB := p.Owns(m.ADPID), p.Owns(m.BDPID)
	if !ownA && !ownB {
		return fmt.Errorf("rf: link-up %016x-%016x: neither endpoint mastered by this replica",
			m.ADPID, m.BDPID)
	}
	p.mu.Lock()
	vmA, okA := p.vms[m.ADPID]
	vmB, okB := p.vms[m.BDPID]
	p.mu.Unlock()
	// Every mastered endpoint must have its VM (switch-up sorts first); an
	// endpoint mastered elsewhere is that replica's business.
	if (ownA && !okA) || (ownB && !okB) {
		return fmt.Errorf("rf: link-up %016x-%016x references unknown VM", m.ADPID, m.BDPID)
	}
	if m.AASN != 0 && m.BASN != 0 && m.AASN != m.BASN {
		// eBGP border link: OSPF stays inside each domain (passive
		// interfaces), and each VM gains the far end as an eBGP neighbor —
		// the multi-AS analogue of the paper's link configuration message.
		if ownA {
			if err := vmA.ConfigureBorderInterface(m.APort, aAddr, DefaultLinkCost); err != nil {
				return err
			}
		}
		if ownB {
			if err := vmB.ConfigureBorderInterface(m.BPort, bAddr, DefaultLinkCost); err != nil {
				return err
			}
		}
		if ownA {
			vmA.Router().AddBGPNeighbor(bAddr.Addr(), m.BASN)
		}
		if ownB {
			vmB.Router().AddBGPNeighbor(aAddr.Addr(), m.AASN)
		}
	} else {
		if ownA {
			if err := vmA.ConfigureInterface(m.APort, aAddr, DefaultLinkCost, p.cfg.Pool); err != nil {
				return err
			}
		}
		if ownB {
			if err := vmB.ConfigureInterface(m.BPort, bAddr, DefaultLinkCost, p.cfg.Pool); err != nil {
				return err
			}
		}
	}
	// Index BOTH endpoint addresses regardless of mastership: compile
	// resolves next hops that may live on a remote replica's switch, and
	// the teardown path unpeers eBGP using the far side's address.
	p.mu.Lock()
	p.addrIndex[aAddr.Addr()] = addrOwner{m.ADPID, m.APort}
	p.addrIndex[bAddr.Addr()] = addrOwner{m.BDPID, m.BPort}
	p.portAddr[addrOwner{m.ADPID, m.APort}] = aAddr
	p.portAddr[addrOwner{m.BDPID, m.BPort}] = bAddr
	p.refreshAllLocked()
	p.mu.Unlock()
	return nil
}

func (p *Platform) handleLinkDown(m *rpcconf.Message) error {
	p.mu.Lock()
	vmA := p.vms[m.ADPID]
	vmB := p.vms[m.BDPID]
	aAddr, aOK := p.portAddr[addrOwner{m.ADPID, m.APort}]
	bAddr, bOK := p.portAddr[addrOwner{m.BDPID, m.BPort}]
	p.mu.Unlock()
	// Unpeer any eBGP session that ran over the link before the addresses
	// go away (no-op on intra-AS links and BGP-less VMs). The far side's
	// address comes from the platform's endpoint records, not its VM — on a
	// sharded replica the far VM may be mastered elsewhere.
	if vmB != nil && aOK {
		vmB.Router().RemoveBGPNeighbor(aAddr.Addr())
	}
	if vmA != nil && bOK {
		vmA.Router().RemoveBGPNeighbor(bAddr.Addr())
	}
	if vmA != nil {
		if addr, ok := vmA.InterfaceAddr(m.APort); ok {
			p.unindexAddr(addr.Addr(), m.ADPID, m.APort)
		}
		vmA.DeconfigureInterface(m.APort)
	}
	if vmB != nil {
		if addr, ok := vmB.InterfaceAddr(m.BPort); ok {
			p.unindexAddr(addr.Addr(), m.BDPID, m.BPort)
		}
		vmB.DeconfigureInterface(m.BPort)
	}
	p.mu.Lock()
	delete(p.portAddr, addrOwner{m.ADPID, m.APort})
	delete(p.portAddr, addrOwner{m.BDPID, m.BPort})
	p.mu.Unlock()
	return nil
}

// unindexAddr removes an address→interface mapping only when it still
// belongs to the interface being torn down. A teardown is reconciled
// asynchronously, so by the time it applies the subnet may have been
// recycled onto another link — whose index entry must survive.
func (p *Platform) unindexAddr(addr netip.Addr, dpid uint64, port uint16) {
	p.mu.Lock()
	if p.addrIndex[addr] == (addrOwner{dpid, port}) {
		delete(p.addrIndex, addr)
		p.refreshAllLocked()
	}
	p.mu.Unlock()
}

func (p *Platform) handleHostUp(m *rpcconf.Message) error {
	gw, err := m.AAddrPrefix()
	if err != nil {
		return fmt.Errorf("rf: host-up gateway: %w", err)
	}
	if !p.Owns(m.ADPID) {
		return fmt.Errorf("rf: host-up %016x: not the master of this switch", m.ADPID)
	}
	p.mu.Lock()
	vm, ok := p.vms[m.ADPID]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("rf: host-up references unknown VM %016x", m.ADPID)
	}
	// The host subnet itself becomes an OSPF network so the stub is
	// advertised to the rest of the domain.
	if err := vm.ConfigureInterface(m.APort, gw, DefaultLinkCost, gw.Masked()); err != nil {
		return err
	}
	p.mu.Lock()
	p.addrIndex[gw.Addr()] = addrOwner{m.ADPID, m.APort}
	p.portAddr[addrOwner{m.ADPID, m.APort}] = gw
	p.refreshAllLocked()
	p.mu.Unlock()
	return nil
}

func (p *Platform) handleHostDown(m *rpcconf.Message) error {
	p.mu.Lock()
	vm, ok := p.vms[m.ADPID]
	p.mu.Unlock()
	if !ok {
		return nil
	}
	if addr, ok := vm.InterfaceAddr(m.APort); ok {
		p.unindexAddr(addr.Addr(), m.ADPID, m.APort)
	}
	vm.DeconfigureInterface(m.APort)
	p.mu.Lock()
	delete(p.portAddr, addrOwner{m.ADPID, m.APort})
	p.mu.Unlock()
	return nil
}

// onSwitchUp syncs every switch that (re)connects: whatever its table holds
// — a previous master's entries, withdrawals that could not reach it while
// its session was down — desired state replaces it.
func (p *Platform) onSwitchUp(sc *ctlkit.SwitchConn) { p.sync(sc.DPID()) }

// onPacketIn punts non-LLDP frames into the mirrored VM interface. pi is
// lent, and so is the frame Inject gets: the VM copies what it keeps.
func (p *Platform) onPacketIn(sc *ctlkit.SwitchConn, pi *openflow.PacketIn) {
	var f pkt.Frame
	if pkt.DecodeFrameInto(&f, pi.Data) != nil || f.Type == pkt.EtherTypeLLDP {
		return
	}
	vm, ok := p.VM(sc.DPID())
	if !ok {
		return
	}
	vm.Inject(pi.InPort, pi.Data)
}

// portOfIface parses "eth<N>".
func portOfIface(name string) (uint16, bool) {
	num, ok := strings.CutPrefix(name, "eth")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(num, 10, 16)
	if err != nil {
		return 0, false
	}
	return uint16(v), true
}

// routePriority ranks a route flow by prefix length: longest match wins.
func routePriority(prefix netip.Prefix) uint16 { return uint16(100 + prefix.Bits()) }

// flowTo builds the flow entry that sends IPv4 traffic toward dst.
func flowTo(dst netip.Prefix, priority uint16, actions ...openflow.Action) *openflow.FlowMod {
	match := openflow.MatchAll()
	match.Wildcards &^= openflow.WildcardDlType
	match.DlType = uint16(pkt.EtherTypeIPv4)
	match.SetNwDstPrefix(dst)
	return &openflow.FlowMod{
		Match:    match,
		Command:  openflow.FlowModAdd,
		Priority: priority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  actions,
	}
}

// rewriteTo is one hop: rewrite both MACs, forward out port.
func rewriteTo(src, dst pkt.MAC, port uint16) []openflow.Action {
	return []openflow.Action{
		&openflow.ActionSetDlSrc{Addr: src},
		&openflow.ActionSetDlDst{Addr: dst},
		&openflow.ActionOutput{Port: port},
	}
}

// routeFlowLocked compiles one prefix's equal-cost best set (primary first)
// into its flow entry, or nil when no path has a next hop the address index
// resolves. Connected routes have no next hop, so their subnets stay on the
// punt path. One viable next hop yields the classic rewrite+output triple,
// while several yield a multipath action whose bucket the switch selects per
// microflow key hash, so equal-cost alternates share load without ever
// reordering one flow. Callers hold mu.
func (p *Platform) routeFlowLocked(dpid uint64, paths []rib.Route) *openflow.FlowMod {
	var buckets []openflow.MultipathBucket
	for _, path := range paths {
		port, ok := portOfIface(path.Iface)
		if !ok || !path.NextHop.IsValid() {
			continue
		}
		owner, known := p.addrIndex[path.NextHop]
		if !known {
			continue // next hop is not a VM interface we assigned
		}
		buckets = append(buckets, openflow.MultipathBucket{
			DlSrc: vnet.MAC(dpid, port),
			DlDst: vnet.MAC(owner.dpid, owner.port),
			Port:  port,
		})
	}
	if len(buckets) == 0 {
		return nil
	}
	actions := []openflow.Action{&openflow.ActionMultipath{Buckets: buckets}}
	if len(buckets) == 1 {
		actions = rewriteTo(buckets[0].DlSrc, buckets[0].DlDst, buckets[0].Port)
	}
	prefix := paths[0].Prefix
	return flowTo(prefix, routePriority(prefix), actions...)
}

// onHostLearned adds a directly attached host to its switch's inputs, which
// compile it to a /32 fast-path flow. A host a destroyed VM reports is
// ignored.
func (p *Platform) onHostLearned(vm *vnet.VM, h vnet.HostLearned) {
	dpid := vm.DPID()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.vms[dpid] != vm {
		return
	}
	p.stateLocked(dpid).hosts[h.IP] = h
	p.refreshLocked(dpid)
}
