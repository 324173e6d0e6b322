package vnet

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/pkt"
	"routeflow/internal/quagga"
	"routeflow/internal/rib"
)

func fastTimers() quagga.Timers {
	return quagga.Timers{Hello: 20 * time.Millisecond, Dead: 80 * time.Millisecond,
		SPFDelay: 5 * time.Millisecond}
}

func newVM(t *testing.T, dpid uint64, ports int, boot time.Duration) *VM {
	t.Helper()
	vm, err := New(Config{DPID: dpid, Ports: ports,
		RouterID: netip.MustParseAddr("10.255.0.9"), BootDelay: boot,
		Timers: fastTimers()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(vm.Destroy)
	return vm
}

func waitState(t *testing.T, vm *VM, want State) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if vm.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("vm state = %v, want %v", vm.State(), want)
}

func TestVMValidation(t *testing.T) {
	if _, err := New(Config{DPID: 1, Ports: 0,
		RouterID: netip.MustParseAddr("1.1.1.1")}); err == nil {
		t.Fatal("zero ports accepted")
	}
	if _, err := New(Config{DPID: 1, Ports: 1}); err == nil {
		t.Fatal("missing router ID accepted")
	}
}

func TestVMBootLifecycle(t *testing.T) {
	vm := newVM(t, 0xA, 2, 30*time.Millisecond)
	if vm.State() != StateBooting {
		t.Fatalf("initial state = %v", vm.State())
	}
	ready := make(chan struct{})
	vm.OnReady(func() { close(ready) })
	select {
	case <-ready:
	case <-time.After(3 * time.Second):
		t.Fatal("never ready")
	}
	if vm.State() != StateUp {
		t.Fatalf("state = %v", vm.State())
	}
	// OnReady after up fires immediately.
	fired := false
	vm.OnReady(func() { fired = true })
	if !fired {
		t.Fatal("OnReady after up did not fire synchronously")
	}
	if vm.Name() != "vm-000000000000000a" || vm.DPID() != 0xA || vm.Ports() != 2 {
		t.Fatal("identity accessors")
	}
	if StateBooting.String() != "booting" || StateUp.String() != "up" ||
		StateDestroyed.String() != "destroyed" || State(9).String() == "" {
		t.Fatal("state strings")
	}
}

func TestConfigureWhileBootingIsQueued(t *testing.T) {
	vm := newVM(t, 0xB, 2, 50*time.Millisecond)
	pool := netip.MustParsePrefix("172.16.0.0/16")
	if err := vm.ConfigureInterface(1, netip.MustParsePrefix("172.16.0.1/30"), 10, pool); err != nil {
		t.Fatal(err)
	}
	waitState(t, vm, StateUp)
	// After boot, the queued configuration must be applied: connected route.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := vm.RIB().Lookup(netip.MustParseAddr("172.16.0.2")); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rt, ok := vm.RIB().Lookup(netip.MustParseAddr("172.16.0.2"))
	if !ok || rt.Source != rib.SourceConnected {
		t.Fatalf("connected route = %v, %v", rt, ok)
	}
	if addr, ok := vm.InterfaceAddr(1); !ok || addr.String() != "172.16.0.1/30" {
		t.Fatalf("iface addr = %v, %v", addr, ok)
	}
	if ports := vm.ConfiguredPorts(); len(ports) != 1 || ports[0] != 1 {
		t.Fatalf("configured ports = %v", ports)
	}
}

func TestConfigureConverges(t *testing.T) {
	vm := newVM(t, 0xC, 1, time.Millisecond)
	waitState(t, vm, StateUp)
	pool := netip.MustParsePrefix("172.16.0.0/16")
	addr := netip.MustParsePrefix("172.16.0.1/30")
	if err := vm.ConfigureInterface(1, addr, 1, pool); err != nil {
		t.Fatal(err)
	}
	// Level-triggered re-apply of the same address is a no-op.
	if err := vm.ConfigureInterface(1, addr, 1, pool); err != nil {
		t.Fatalf("idempotent re-apply errored: %v", err)
	}
	if got, _ := vm.InterfaceAddr(1); got != addr {
		t.Fatalf("addr after re-apply = %v", got)
	}
	// A different address reconfigures instead of erroring.
	next := netip.MustParsePrefix("172.16.0.5/30")
	if err := vm.ConfigureInterface(1, next, 1, pool); err != nil {
		t.Fatalf("reconfigure errored: %v", err)
	}
	if got, _ := vm.InterfaceAddr(1); got != next {
		t.Fatalf("addr after reconfigure = %v", got)
	}
	if _, ok := vm.RIB().Lookup(addr.Addr()); ok {
		t.Fatal("old connected route survived reconfigure")
	}
	if _, ok := vm.RIB().Lookup(next.Addr().Next()); !ok {
		t.Fatal("new connected route missing after reconfigure")
	}
	// Port 0 is invalid; destroyed VMs refuse configuration.
	if err := vm.ConfigureInterface(0, addr, 1, pool); err == nil {
		t.Fatal("port 0 accepted")
	}
	vm.Destroy()
	if err := vm.ConfigureInterface(1, addr, 1, pool); err == nil {
		t.Fatal("destroyed VM accepted configuration")
	}
}

// TestGrowInterfaceOnDemand is the regression test for the port-count vs.
// port-number contract mismatch behind the pan-European demo flake: a
// switch announcing 2 ports whose host attachment names port 7 (numbers
// need not be contiguous) must still get a working gateway interface.
func TestGrowInterfaceOnDemand(t *testing.T) {
	vm := newVM(t, 0x11, 2, time.Millisecond)
	waitState(t, vm, StateUp)
	gw := netip.MustParsePrefix("10.7.0.1/24")
	if err := vm.ConfigureInterface(7, gw, 10, gw.Masked()); err != nil {
		t.Fatalf("non-contiguous port rejected: %v", err)
	}
	if vm.Ports() != 3 {
		t.Fatalf("ports = %d, want 3 (2 announced + 1 grown)", vm.Ports())
	}
	if addr, ok := vm.InterfaceAddr(7); !ok || addr != gw {
		t.Fatalf("grown iface addr = %v, %v", addr, ok)
	}
	if mac, ok := vm.InterfaceMAC(7); !ok || mac != MAC(0x11, 7) {
		t.Fatalf("grown iface mac = %v, %v", mac, ok)
	}
	// The grown interface answers ARP for its gateway address — the exact
	// behaviour whose absence wedged the host forever.
	var mu sync.Mutex
	var sent [][]byte
	vm.OnTransmit(func(port uint16, frame []byte) {
		if port == 7 {
			mu.Lock()
			sent = append(sent, frame)
			mu.Unlock()
		}
	})
	hostMAC := pkt.LocalMAC(0x70)
	req := pkt.NewARPRequest(hostMAC, netip.MustParseAddr("10.7.0.100"), gw.Addr())
	frame := &pkt.Frame{Dst: pkt.BroadcastMAC, Src: hostMAC,
		Type: pkt.EtherTypeARP, Payload: req.Marshal()}
	vm.Inject(7, frame.Marshal())
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(sent)
		mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("grown interface never answered ARP for the gateway")
}

// TestConfigureWhileBootingConvergesToLast checks that re-declarations
// queued during boot settle on the final declared address.
func TestConfigureWhileBootingConvergesToLast(t *testing.T) {
	vm := newVM(t, 0x12, 1, 50*time.Millisecond)
	pool := netip.MustParsePrefix("172.16.0.0/16")
	first := netip.MustParsePrefix("172.16.0.1/30")
	second := netip.MustParsePrefix("172.16.0.9/30")
	if err := vm.ConfigureInterface(1, first, 1, pool); err != nil {
		t.Fatal(err)
	}
	if err := vm.ConfigureInterface(1, second, 1, pool); err != nil {
		t.Fatal(err)
	}
	waitState(t, vm, StateUp)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := vm.RIB().Lookup(second.Addr().Next()); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if addr, _ := vm.InterfaceAddr(1); addr != second {
		t.Fatalf("addr = %v, want %v", addr, second)
	}
	if _, ok := vm.RIB().Lookup(first.Addr()); ok {
		t.Fatal("superseded boot-time address survived")
	}
}

func TestVMAnswersARPAndEmitsHostLearned(t *testing.T) {
	vm := newVM(t, 0xD, 1, time.Millisecond)
	waitState(t, vm, StateUp)
	gw := netip.MustParsePrefix("10.1.0.1/24")
	if err := vm.ConfigureInterface(1, gw, 10, gw.Masked()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sent [][]byte
	vm.OnTransmit(func(port uint16, frame []byte) {
		mu.Lock()
		sent = append(sent, frame)
		mu.Unlock()
	})
	learned := make(chan HostLearned, 1)
	vm.OnHostLearned(func(h HostLearned) { learned <- h })

	hostMAC := pkt.LocalMAC(0x77)
	hostIP := netip.MustParseAddr("10.1.0.100")
	req := pkt.NewARPRequest(hostMAC, hostIP, gw.Addr())
	frame := &pkt.Frame{Dst: pkt.BroadcastMAC, Src: hostMAC,
		Type: pkt.EtherTypeARP, Payload: req.Marshal()}
	vm.Inject(1, frame.Marshal())

	select {
	case h := <-learned:
		if h.IP != hostIP || h.MAC != hostMAC || h.Port != 1 {
			t.Fatalf("learned = %+v", h)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no host-learned event")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) == 0 {
		t.Fatal("no ARP reply transmitted")
	}
	f, err := pkt.DecodeFrame(sent[len(sent)-1])
	if err != nil || f.Type != pkt.EtherTypeARP {
		t.Fatalf("reply frame: %v %v", f, err)
	}
	rep, err := pkt.DecodeARP(f.Payload)
	if err != nil || rep.Op != pkt.ARPReply || rep.SenderIP != gw.Addr() {
		t.Fatalf("arp reply = %+v, %v", rep, err)
	}
	if mac, ok := vm.LookupARP(1, hostIP); !ok || mac != hostMAC {
		t.Fatal("ARP cache not populated")
	}
}

func TestVMSlowPathRouting(t *testing.T) {
	// Two interfaces; a static-ish scenario: packet in port 1 destined to a
	// host on port 2's subnet must be forwarded after ARP resolution.
	vm := newVM(t, 0xE, 2, time.Millisecond)
	waitState(t, vm, StateUp)
	if err := vm.ConfigureInterface(1, netip.MustParsePrefix("172.16.0.1/30"), 10,
		netip.MustParsePrefix("172.16.0.0/16")); err != nil {
		t.Fatal(err)
	}
	lan := netip.MustParsePrefix("10.2.0.1/24")
	if err := vm.ConfigureInterface(2, lan, 10, lan.Masked()); err != nil {
		t.Fatal(err)
	}
	type tx struct {
		port  uint16
		frame []byte
	}
	out := make(chan tx, 16)
	vm.OnTransmit(func(port uint16, frame []byte) { out <- tx{port, frame} })

	// Route an IP packet toward 10.2.0.50 (unresolved): the VM must emit an
	// ARP request on port 2 and queue the packet.
	dst := netip.MustParseAddr("10.2.0.50")
	ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP,
		Src: netip.MustParseAddr("10.9.0.100"), Dst: dst,
		Payload: (&pkt.UDP{SrcPort: 1, DstPort: 2, Payload: []byte("x")}).Marshal(
			netip.MustParseAddr("10.9.0.100"), dst)}
	vmMAC, _ := vm.InterfaceMAC(1)
	in := &pkt.Frame{Dst: vmMAC, Src: pkt.LocalMAC(0x88),
		Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
	vm.Inject(1, in.Marshal())

	var arpOut tx
	select {
	case arpOut = <-out:
	case <-time.After(2 * time.Second):
		t.Fatal("no ARP request emitted")
	}
	if arpOut.port != 2 {
		t.Fatalf("arp on port %d", arpOut.port)
	}
	// Answer the ARP: the queued data packet must now be forwarded.
	hostMAC := pkt.LocalMAC(0x99)
	rep := (&pkt.ARP{Op: pkt.ARPReply, SenderHW: hostMAC, SenderIP: dst,
		TargetHW: vmMAC, TargetIP: lan.Addr()})
	repFrame := &pkt.Frame{Dst: vmMAC, Src: hostMAC, Type: pkt.EtherTypeARP,
		Payload: rep.Marshal()}
	vm.Inject(2, repFrame.Marshal())

	deadline := time.After(2 * time.Second)
	for {
		select {
		case got := <-out:
			f, err := pkt.DecodeFrame(got.frame)
			if err != nil || f.Type != pkt.EtherTypeIPv4 {
				continue
			}
			fwd, err := pkt.DecodeIPv4(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if got.port != 2 || f.Dst != hostMAC {
				t.Fatalf("forwarded to port %d dst %v", got.port, f.Dst)
			}
			if fwd.TTL != 63 {
				t.Fatalf("TTL = %d, want decremented 63", fwd.TTL)
			}
			return
		case <-deadline:
			t.Fatal("queued packet never forwarded")
		}
	}
}

func TestVMMACDeterministicAndDistinct(t *testing.T) {
	a, b := MAC(1, 1), MAC(1, 2)
	if a == b || a != MAC(1, 1) {
		t.Fatal("MAC scheme broken")
	}
	if a.IsMulticast() {
		t.Fatal("VM MAC must be unicast")
	}
	if IfaceName(3) != "eth3" {
		t.Fatal("iface naming")
	}
	if NextHopMAC(5, 2) != MAC(5, 2) {
		t.Fatal("NextHopMAC")
	}
}

func TestDeconfigureInterface(t *testing.T) {
	vm := newVM(t, 0xF, 1, time.Millisecond)
	waitState(t, vm, StateUp)
	addr := netip.MustParsePrefix("172.16.0.1/30")
	if err := vm.ConfigureInterface(1, addr, 10, addr.Masked()); err != nil {
		t.Fatal(err)
	}
	vm.DeconfigureInterface(1)
	if _, ok := vm.InterfaceAddr(1); ok {
		t.Fatal("address survived deconfigure")
	}
	if _, ok := vm.RIB().Lookup(addr.Addr()); ok {
		t.Fatal("connected route survived deconfigure")
	}
	vm.DeconfigureInterface(1) // idempotent
}

func TestDestroyedVMIgnoresTraffic(t *testing.T) {
	vm := newVM(t, 0x10, 1, time.Millisecond)
	waitState(t, vm, StateUp)
	vm.Destroy()
	if vm.State() != StateDestroyed {
		t.Fatal("destroy")
	}
	// No panic, no effect.
	vm.Inject(1, []byte{1, 2, 3})
	vm.Destroy() // idempotent
}

// An interface configured while the VM boots sends its first OSPF hello when
// the boot completes — the queued attach is the InterfaceUp event — not one
// HelloInterval later. RFC timers on a fake clock that stops at the end of
// the boot, so no hello tick ever fires.
func TestQueuedInterfaceSendsHelloWhenBootCompletes(t *testing.T) {
	clk := clock.NewFake()
	const boot = 2 * time.Second
	vm, err := New(Config{DPID: 0xB1, Ports: 2, RouterID: netip.MustParseAddr("10.255.0.9"),
		Clock: clk, BootDelay: boot,
		Timers: quagga.Timers{Hello: 10 * time.Second, Dead: 40 * time.Second, SPFDelay: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(vm.Destroy)
	type tx struct {
		port  uint16
		frame []byte
	}
	var mu sync.Mutex
	var sent []tx
	vm.OnTransmit(func(port uint16, frame []byte) {
		mu.Lock()
		sent = append(sent, tx{port, frame})
		mu.Unlock()
	})
	ready := make(chan struct{})
	vm.OnReady(func() { close(ready) })
	if err := vm.ConfigureInterface(1, netip.MustParsePrefix("172.16.0.1/30"), 10,
		netip.MustParsePrefix("172.16.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if vm.State() != StateBooting {
		t.Fatalf("state = %v, want the configuration queued behind the boot", vm.State())
	}
	clk.Advance(boot)
	select {
	case <-ready: // fires after the queued configuration has been applied
	case <-time.After(3 * time.Second):
		t.Fatal("never ready")
	}
	mu.Lock()
	defer mu.Unlock()
	hellos := 0
	for _, s := range sent {
		f, err := pkt.DecodeFrame(s.frame)
		if err != nil || f.Type != pkt.EtherTypeIPv4 {
			continue
		}
		if ip, err := pkt.DecodeIPv4(f.Payload); err == nil && ip.Proto == pkt.ProtoOSPF &&
			s.port == 1 && ip.Src == netip.MustParseAddr("172.16.0.1") {
			hellos++
		}
	}
	if hellos != 1 {
		t.Fatalf("%d OSPF hellos on port 1 by the end of the boot (of %d frames), want 1", hellos, len(sent))
	}
	if got := vm.Router().OSPF().HellosSent(); got != 1 {
		t.Fatalf("ospf counted %d hellos, want 1", got)
	}
}
