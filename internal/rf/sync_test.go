package rf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/ctlkit"
	"routeflow/internal/ofswitch"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
	"routeflow/internal/rib"
	"routeflow/internal/rpcconf"
	"routeflow/internal/vnet"
)

// The tests in this file run one platform, its controller and a real switch
// dialing it over a MemListener, all on a fake clock: the repair tick and the
// switch's redial backoff fire only when a test advances it. The platform's
// VMs are real, created through its RPC handler, but never finish booting, so
// the only routes in a VM's RIB are the ones a test adds.

const rigDPID = 1

// Port 1 of the rig's switch links to switch 2 and port 2 to switch 3; the
// next hops are the far ends. Port 3 leads to no interface rf assigned.
var (
	rigNextHop  = netip.MustParseAddr("172.16.0.2")
	rigNextHop2 = netip.MustParseAddr("172.16.0.6")
	unresolved  = netip.MustParseAddr("172.16.9.2")
	ifaceVia    = map[netip.Addr]string{rigNextHop: "eth1", rigNextHop2: "eth2", unresolved: "eth3"}
)

type rig struct {
	t   *testing.T
	clk *clock.Fake
	p   *Platform
	sw  *ofswitch.Switch
	vm  *vnet.VM // the VM of the rig's switch, once booted
	// stall, while held, stops the switch reading its control channel, so
	// the controller's send queue fills.
	stall sync.Mutex
	// flowMods counts the flow-mods the switch has read.
	flowMods atomic.Int64
	// writes logs the state-writing messages the switch has read (SetConfig,
	// FlowMod, TelemetryMod), XIDs zeroed, in order.
	writesMu sync.Mutex
	writes   [][]byte
	// rules is the last monitoring program set through setTelemetry.
	rules []openflow.MonitorRule
	epoch uint64
}

// newRig connects the switch; an unsharded rig also boots the VMs.
func newRig(t *testing.T, sharded bool) *rig {
	t.Helper()
	clk := clock.NewFake()
	p, err := New(Config{Clock: clk, Pool: netip.MustParsePrefix("172.16.0.0/16"), BootDelay: time.Hour, Sharded: sharded})
	if err != nil {
		t.Fatal(err)
	}
	ln := ctlkit.NewMemListener("rf")
	go p.Controller().Serve(ln)
	r := &rig{t: t, clk: clk, p: p, sw: ofswitch.New(ofswitch.Config{DPID: rigDPID, Clock: clk})}
	if err := r.sw.StartDialer(func() (io.ReadWriteCloser, error) {
		c, err := ln.Dial()
		if err != nil {
			return nil, err
		}
		return &rigConn{Conn: c, r: r}, nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.sw.Stop()
		p.Stop()
		ln.Close()
	})
	r.await("switch connected", r.connected)
	if !sharded {
		r.boot()
	}
	return r
}

// boot creates the VMs of switches 1-3 that the platform masters and brings
// both links up.
func (r *rig) boot() {
	r.t.Helper()
	for dpid, ports := range map[uint64]int{rigDPID: 3, 2: 1, 3: 1} {
		if r.p.Owns(dpid) {
			r.apply(rpcconf.SwitchUp(dpid, ports))
		}
	}
	r.vm, _ = r.p.VM(rigDPID)
	r.link(1, true)
	r.link(2, true)
}

func (r *rig) apply(m *rpcconf.Message) {
	r.t.Helper()
	if err := r.p.RPCHandler()(m); err != nil {
		r.t.Fatalf("%s: %v", m.Kind, err)
	}
}

// link brings the link on port 1 or 2 up or down, which indexes or
// unindexes the addresses at both of its ends.
func (r *rig) link(port uint16, up bool) {
	r.t.Helper()
	far := uint64(port) + 1
	if !up {
		r.apply(rpcconf.LinkDown(rigDPID, port, far, 1))
		return
	}
	near := netip.AddrFrom4([4]byte{172, 16, 0, byte(4*(port-1) + 1)})
	r.apply(rpcconf.LinkUp(rigDPID, port, far, 1, netip.PrefixFrom(near, 30), netip.PrefixFrom(near.Next(), 30)))
}

// rigConn is the switch's end of the control channel: reads wait while the
// test holds stall, and every flow-mod read is counted.
type rigConn struct {
	net.Conn
	r   *rig
	buf []byte // the part of a message read so far
}

func (c *rigConn) Read(b []byte) (int, error) {
	c.r.stall.Lock()
	//lint:ignore SA2001 the empty critical section is the gate: it waits while the test holds stall
	c.r.stall.Unlock()
	n, err := c.Conn.Read(b)
	c.buf = append(c.buf, b[:n]...)
	for len(c.buf) >= openflow.HeaderLen {
		size := int(binary.BigEndian.Uint16(c.buf[2:4]))
		if size < openflow.HeaderLen || len(c.buf) < size {
			break
		}
		switch openflow.Type(c.buf[1]) {
		case openflow.TypeFlowMod:
			c.r.flowMods.Add(1)
			fallthrough
		case openflow.TypeSetConfig, openflow.TypeTelemetryMod:
			msg := append([]byte(nil), c.buf[:size]...)
			clear(msg[4:8])
			c.r.writesMu.Lock()
			c.r.writes = append(c.r.writes, msg)
			c.r.writesMu.Unlock()
		}
		c.buf = c.buf[size:]
	}
	return n, err
}

func (r *rig) connected() bool {
	_, ok := r.p.Controller().Switch(rigDPID)
	return ok
}

// barrier returns once the switch has read everything sent before it.
func (r *rig) barrier() {
	r.t.Helper()
	sc, ok := r.p.Controller().Switch(rigDPID)
	if !ok {
		r.t.Fatal("switch not connected")
	}
	if err := sc.Barrier(); err != nil {
		r.t.Fatal(err)
	}
}

// await polls cond on the wall clock without moving the fake clock.
func (r *rig) await(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// settle advances the fake clock, which lets the switch redial and the repair
// loop run, until the switch holds exactly the desired flows and program.
func (r *rig) settle(what string) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		gap := r.gap()
		if gap == "" {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("%s: switch never matched desired state: %s", what, gap)
		}
		r.clk.Advance(50 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

// gap describes how the switch differs from desired state, or is "".
func (r *rig) gap() string {
	sig := func(m openflow.Match, prio uint16, actions []openflow.Action) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%v prio=%d:", &m, prio)
		for _, a := range actions {
			fmt.Fprintf(&b, " %v", a)
		}
		return b.String()
	}
	var have, want []string
	for _, fi := range r.sw.FlowTable() {
		have = append(have, sig(fi.Match, fi.Priority, fi.Actions))
	}
	for _, fm := range r.p.DesiredFlows(rigDPID) {
		want = append(want, sig(fm.Match, fm.Priority, fm.Actions))
	}
	for _, mc := range r.sw.MonitorCounters() {
		have = append(have, fmt.Sprintf("monitor %+v", mc.Rule))
	}
	for _, rule := range r.rules {
		want = append(want, fmt.Sprintf("monitor %+v", rule))
	}
	sort.Strings(have)
	sort.Strings(want)
	if h, w := strings.Join(have, "\n"), strings.Join(want, "\n"); h != w {
		return fmt.Sprintf("switch holds %d, desired %d:\n have %s\n want %s", len(have), len(want), h, w)
	}
	return ""
}

// cut closes the control session from the controller side, as a missed
// keepalive or a FlowVisor restart does. The switch keeps its table and
// redials once the fake clock passes its backoff.
func (r *rig) cut() {
	r.t.Helper()
	if sc, ok := r.p.Controller().Switch(rigDPID); ok {
		sc.Close()
	}
	r.await("session down", func() bool { return !r.connected() })
}

func routePrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

// ospfRoute is an OSPF route to prefix i through via.
func ospfRoute(i int, via netip.Addr, metric uint32) rib.Route {
	return rib.Route{Prefix: routePrefix(i), NextHop: via, Iface: ifaceVia[via], Source: rib.SourceOSPF, Metric: metric}
}

// routes is the RIB of the rig switch's VM.
func (r *rig) routes() *rib.RIB { return r.vm.RIB() }

func (r *rig) addRoute(i int) {
	r.t.Helper()
	if err := r.routes().Add(ospfRoute(i, rigNextHop, 10)); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) delRoute(i int) { r.routes().Remove(routePrefix(i), rib.SourceOSPF, rigNextHop) }

// addHost learns host i behind port. Host 0 is 10.0.0.1: the same /32 a
// route /32 to it would match, at the host priority.
func (r *rig) addHost(i int, port uint16) {
	r.p.onHostLearned(r.vm, vnet.HostLearned{Port: port,
		IP: netip.AddrFrom4([4]byte{10, 0, byte(i), 1}), MAC: pkt.LocalMAC(uint64(0xB000 + i))})
}

func pin(i int, port uint16) PinFlow {
	return PinFlow{DPID: rigDPID, Src: routePrefix(200 + i), Dst: routePrefix(300 + i),
		DlSrc: vnet.MAC(rigDPID, port), DlDst: vnet.MAC(2, 1), OutPort: port}
}

func (r *rig) setTelemetry(rules []openflow.MonitorRule) {
	r.epoch++
	r.rules = rules
	r.p.SetTelemetry(TelemetryProgram{Epoch: r.epoch,
		Rules: map[uint64][]openflow.MonitorRule{rigDPID: rules}})
}

func monitorRule(i int) openflow.MonitorRule {
	return openflow.MonitorRule{ID: uint32(i), Src: [4]byte{10, 2, byte(i), 0}, SrcBits: 24,
		Dst: [4]byte{10, 3, byte(i), 0}, DstBits: 24}
}

// TestWithdrawalWhileDisconnectedIsGoneAfterReconnect: a route withdrawn
// while the switch's session is down must not survive on a switch that kept
// its table across the cut.
func TestWithdrawalWhileDisconnectedIsGoneAfterReconnect(t *testing.T) {
	r := newRig(t, false)
	r.addRoute(1)
	r.addRoute(2)
	r.settle("routes installed")
	r.cut()
	r.delRoute(1)
	if n := r.p.FlowCount(rigDPID); n != 1 {
		t.Fatalf("desired flows after the withdrawal = %d, want 1", n)
	}
	r.settle("after reconnect")
	if len(r.sw.FlowTable()) != 1 {
		t.Fatalf("switch holds %d flows, want 1", len(r.sw.FlowTable()))
	}
}

// TestPinRemovedWhileDisconnectedIsGoneAfterReconnect is the same for a TE
// pin that SetPins drops while the session is down.
func TestPinRemovedWhileDisconnectedIsGoneAfterReconnect(t *testing.T) {
	r := newRig(t, false)
	r.p.SetPins([]PinFlow{pin(1, 2), pin(2, 3)})
	r.settle("pins installed")
	r.cut()
	r.p.SetPins([]PinFlow{pin(1, 2)})
	if got := r.p.Pins(); len(got) != 1 || got[0] != pin(1, 2) {
		t.Fatalf("pin program = %+v, want only %+v", got, pin(1, 2))
	}
	r.settle("after reconnect")
}

// TestRebootedSwitchIsRewrittenOnConnect: a switch that lost its table and
// monitor rules in a crash, with nothing edited while it was down, gets both
// back from the sync its reconnect runs.
func TestRebootedSwitchIsRewrittenOnConnect(t *testing.T) {
	r := newRig(t, false)
	r.addRoute(1)
	r.addHost(1, 2)
	r.p.SetPins([]PinFlow{pin(1, 3)})
	r.setTelemetry([]openflow.MonitorRule{monitorRule(1)})
	r.settle("state installed")
	r.sw.Reboot()
	r.await("session down", func() bool { return !r.connected() })
	r.settle("after reconnect")
}

// TestHostAndRouteToOneAddressAreTwoFlows: a host /32 and a route /32 to the
// same address differ in priority, so they are two flows on the switch and
// in desired state, and withdrawing the route leaves the host flow.
func TestHostAndRouteToOneAddressAreTwoFlows(t *testing.T) {
	r := newRig(t, false)
	r.addHost(0, 2)
	host := netip.MustParsePrefix("10.0.0.1/32")
	if err := r.routes().Add(rib.Route{Prefix: host, NextHop: rigNextHop, Iface: "eth1", Source: rib.SourceOSPF}); err != nil {
		t.Fatal(err)
	}
	r.settle("host and route installed")
	if n := r.p.FlowCount(rigDPID); n != 2 {
		t.Fatalf("desired flows = %d, want 2", n)
	}
	r.routes().Remove(host, rib.SourceOSPF, rigNextHop)
	r.settle("route withdrawn")
	if fl := r.p.DesiredFlows(rigDPID); len(fl) != 1 || fl[0].Priority != hostFlowPriority {
		t.Fatalf("desired after the withdrawal = %v, want the host flow", fl)
	}
}

// TestConnectedRouteRetiresLearnedRouteFlow: a subnet first learned through
// BGP and then connected again (a border /30 whose interface returns after
// the far switch crashed) loses its route flow. The connected subnet is on
// the punt path, and a flow left there forwards the VM's own eBGP traffic
// away from it.
func TestConnectedRouteRetiresLearnedRouteFlow(t *testing.T) {
	r := newRig(t, false)
	subnet := netip.MustParsePrefix("172.16.0.20/30")
	if err := r.routes().Add(rib.Route{Prefix: subnet, NextHop: rigNextHop, Iface: "eth1", Source: rib.SourceIBGP}); err != nil {
		t.Fatal(err)
	}
	r.settle("learned route installed")
	if n := r.p.FlowCount(rigDPID); n != 1 {
		t.Fatalf("desired flows = %d, want the learned route's", n)
	}
	if err := r.routes().Add(rib.Route{Prefix: subnet, Iface: "eth2", Source: rib.SourceConnected}); err != nil {
		t.Fatal(err)
	}
	r.settle("connected route replaced it")
	if n := len(r.sw.FlowTable()); n != 0 {
		t.Fatalf("switch holds %d flows, want none for a connected subnet", n)
	}
}

// TestUnresolvableReplacementLeavesNoFlow: a route replaced by a better one
// whose next hop rf cannot resolve to a switch port leaves no flow for the
// prefix. The old route's flow would forward along a path the VM no longer
// uses.
func TestUnresolvableReplacementLeavesNoFlow(t *testing.T) {
	r := newRig(t, false)
	if err := r.routes().Add(ospfRoute(1, rigNextHop, 20)); err != nil {
		t.Fatal(err)
	}
	r.settle("route installed")
	if err := r.routes().Add(ospfRoute(1, unresolved, 10)); err != nil {
		t.Fatal(err)
	}
	r.settle("route replaced")
	if n := len(r.sw.FlowTable()); n != 0 {
		t.Fatalf("switch holds %d flows after the replacement, want none", n)
	}
}

// TestNextHopIndexedAfterRouteGetsFlow: a route whose next hop is not indexed
// when it arrives gets its flow once a link-up indexes the address, with no
// further change to the RIB.
func TestNextHopIndexedAfterRouteGetsFlow(t *testing.T) {
	r := newRig(t, false)
	r.link(1, false)
	r.addRoute(1)
	if n := r.p.FlowCount(rigDPID); n != 0 {
		t.Fatalf("desired flows = %d before the next hop is indexed, want 0", n)
	}
	r.link(1, true)
	r.settle("next hop indexed")
	if n := len(r.sw.FlowTable()); n != 1 {
		t.Fatalf("switch holds %d flows, want the route's", n)
	}
}

// TestUnchangedTableSendsNoFlowMods: RIB mutations that leave the compiled
// table as it was send the switch nothing. The last one withdraws a prefix
// whose best route was unresolvable, so it had no flow to delete.
func TestUnchangedTableSendsNoFlowMods(t *testing.T) {
	r := newRig(t, false)
	rt := r.routes()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rt.Add(ospfRoute(1, rigNextHop, 20)))
	must(rt.Add(ospfRoute(2, rigNextHop, 20)))
	must(rt.Add(ospfRoute(2, unresolved, 20)))
	rt.Remove(routePrefix(2), rib.SourceOSPF, rigNextHop)
	r.settle("routes installed")
	if n := len(r.sw.FlowTable()); n != 1 {
		t.Fatalf("switch holds %d flows, want route 1's", n)
	}
	r.barrier()
	before := r.flowMods.Load()

	must(rt.Add(ospfRoute(1, rigNextHop, 10)))                                                                   // metric change
	must(rt.Add(ospfRoute(1, unresolved, 10)))                                                                   // an alternate that does not resolve
	must(rt.Add(rib.Route{Prefix: routePrefix(1), NextHop: rigNextHop2, Iface: "eth2", Source: rib.SourceIBGP})) // a loser
	must(rt.Add(rib.Route{Prefix: routePrefix(9), Iface: "eth3", Source: rib.SourceConnected}))                  // a connected subnet
	rt.Remove(routePrefix(2), rib.SourceOSPF, unresolved)                                                        // an unresolvable route's withdrawal
	r.barrier()
	if n := r.flowMods.Load() - before; n != 0 {
		t.Fatalf("%d flow-mods sent for mutations that leave the table unchanged", n)
	}
	r.settle("after the mutations")
}

// TestConcurrentRIBMutationsConverge: mutations from several goroutines run
// their refreshes concurrently and in any order; each compiles the RIB as it
// is then, so once they return the desired table is the compile of the final
// RIB and the switch holds it.
func TestConcurrentRIBMutationsConverge(t *testing.T) {
	r := newRig(t, false)
	vias := []netip.Addr{rigNextHop, rigNextHop2, unresolved}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				via := vias[(g+i)%len(vias)]
				if i%3 == 2 {
					r.routes().Remove(routePrefix(10*g+i%10), rib.SourceOSPF, via)
				} else if err := r.routes().Add(ospfRoute(10*g+i%10, via, 10)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := r.p.CheckDerived(rigDPID); err != nil {
		t.Fatal(err)
	}
	r.settle("after the mutations")
}

// TestDroppedSendsRepairedWithinOneTick: sends dropped on a full queue leave
// the switch wrong until the next repair tick, and right after it.
func TestDroppedSendsRepairedWithinOneTick(t *testing.T) {
	r := newRig(t, false)
	r.stall.Lock()
	// More installs than the send queue holds: the tail is dropped. Then
	// withdraw all but ten, which the full queue drops as well.
	const n = 1100
	routes := make([]rib.Route, n)
	for i := range routes {
		routes[i] = ospfRoute(i, rigNextHop, 10)
	}
	r.routes().ReplaceSource(rib.SourceOSPF, routes)
	r.routes().ReplaceSource(rib.SourceOSPF, routes[:10])
	r.stall.Unlock()
	if r.p.Controller().SendQueueDrops() == 0 {
		t.Fatal("no send was dropped; the queue never filled")
	}
	// Everything that was queued has reached the switch once a barrier
	// comes back.
	r.barrier()
	if r.gap() == "" {
		t.Fatal("switch matches desired state although sends were dropped")
	}
	r.clk.Advance(repairInterval)
	r.await("repair within one tick", func() bool { return r.gap() == "" })
	if n := len(r.sw.FlowTable()); n != 10 {
		t.Fatalf("switch holds %d flows, want 10", n)
	}
}

// TestAdoptReplacesForeignFlows: a sharded replica adopting a switch that a
// previous master left flows and monitor rules on writes it whole at once,
// without waiting for a repair tick.
func TestAdoptReplacesForeignFlows(t *testing.T) {
	r := newRig(t, true)
	sc, _ := r.p.Controller().Switch(rigDPID)
	for i := 0; i < 5; i++ {
		fm := flowTo(routePrefix(500+i), 124, rewriteTo(vnet.MAC(rigDPID, 3), vnet.MAC(9, 9), 3)...)
		if err := sc.Send(fm); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Send(&openflow.TelemetryMod{Epoch: 99, Rules: []openflow.MonitorRule{monitorRule(9)}}); err != nil {
		t.Fatal(err)
	}
	r.barrier()
	if len(r.sw.FlowTable()) != 5 || len(r.sw.MonitorCounters()) != 1 {
		t.Fatal("foreign state not installed")
	}
	// Inputs given before adoption are held, not sent.
	r.p.SetPins([]PinFlow{pin(1, 2)})
	r.setTelemetry([]openflow.MonitorRule{monitorRule(1)})
	r.barrier()
	if len(r.sw.FlowTable()) != 5 {
		t.Fatal("a replica wrote to a switch it does not master")
	}
	r.p.Adopt(rigDPID)
	r.await("adopted switch equals desired state", func() bool { return r.gap() == "" })
	r.boot()
	r.addRoute(1)
	r.addHost(1, 2)
	r.await("routes and hosts installed", func() bool { return r.gap() == "" })
	if n := len(r.sw.FlowTable()); n != 3 {
		t.Fatalf("switch holds %d flows, want 3", n)
	}
}

// TestRandomEditsCutsAndRebootsConverge interleaves every kind of input
// change with session cuts and reboots: learned routes (some through a next
// hop rf cannot resolve, some equal-cost), connected routes over them, links
// going down and up (which unindex and index next hops), hosts, pins and the
// monitoring program. After every op the desired table is what the inputs
// compile to, and at quiesce the switch holds exactly the desired flows and
// the program's monitor rules.
func TestRandomEditsCutsAndRebootsConverge(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := newRig(t, false)
			rng := rand.New(rand.NewSource(seed))
			port := func() uint16 { return uint16(1 + rng.Intn(3)) }
			vias := []netip.Addr{rigNextHop, rigNextHop2, unresolved}
			for op := 0; op < 300; op++ {
				switch k := rng.Intn(24); {
				case k < 5:
					via := vias[rng.Intn(len(vias))]
					if err := r.routes().Add(ospfRoute(rng.Intn(30), via, uint32(10+10*rng.Intn(2)))); err != nil {
						t.Fatal(err)
					}
				case k < 8:
					r.routes().Remove(routePrefix(rng.Intn(30)), rib.SourceOSPF, vias[rng.Intn(len(vias))])
				case k < 10:
					i := rng.Intn(30)
					if rng.Intn(2) == 0 {
						if err := r.routes().Add(rib.Route{Prefix: routePrefix(i), Iface: "eth3", Source: rib.SourceConnected}); err != nil {
							t.Fatal(err)
						}
					} else {
						r.routes().Remove(routePrefix(i), rib.SourceConnected, netip.Addr{})
					}
				case k == 10:
					r.link(uint16(1+rng.Intn(2)), rng.Intn(2) == 0)
				case k < 13:
					r.addHost(rng.Intn(8), port())
				case k < 15:
					var pins []PinFlow
					for i := 0; i < 6; i++ {
						if rng.Intn(2) == 0 {
							pins = append(pins, pin(i, port()))
						}
					}
					r.p.SetPins(pins)
				case k < 17:
					var rules []openflow.MonitorRule
					for i := 1; i <= 4; i++ {
						if rng.Intn(2) == 0 {
							rules = append(rules, monitorRule(i))
						}
					}
					r.setTelemetry(rules)
				case k == 17:
					if r.connected() {
						r.cut()
					}
				case k == 18:
					r.sw.Reboot()
				default:
					r.clk.Advance(time.Duration(rng.Intn(400)) * time.Millisecond)
					time.Sleep(time.Millisecond)
				}
				if err := r.p.CheckDerived(rigDPID); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			r.settle("quiesce")
		})
	}
}

// TestSameInputsSameWire: two platforms fed the same inputs write the same
// messages in the same order, XIDs aside. A refresh's delta and a sync's
// whole table go out in (priority, match) order, not in map order.
func TestSameInputsSameWire(t *testing.T) {
	run := func() [][]byte {
		r := newRig(t, false)
		var routes []rib.Route
		for i := 1; i <= 40; i++ {
			routes = append(routes, ospfRoute(i, rigNextHop, 10))
			if i%3 == 0 {
				routes = append(routes, ospfRoute(i, rigNextHop2, 10)) // a multipath flow
			}
		}
		r.routes().ReplaceSource(rib.SourceOSPF, routes) // one delta of 40 flows
		for i := 1; i <= 8; i++ {
			r.addHost(i, 1)
		}
		r.p.SetPins([]PinFlow{pin(1, 1), pin(2, 2), pin(3, 1)})
		r.setTelemetry([]openflow.MonitorRule{monitorRule(1), monitorRule(2)})
		r.routes().ReplaceSource(rib.SourceOSPF, routes[10:]) // a delta of deletes
		r.settle("inputs installed")
		r.sw.Reboot()
		r.await("session down", func() bool { return !r.connected() })
		r.settle("resynced") // a sync: the whole table
		r.barrier()
		r.writesMu.Lock()
		defer r.writesMu.Unlock()
		return r.writes
	}
	a, b := run(), run()
	if len(a) < 100 {
		t.Fatalf("only %d state-writing messages sent", len(a))
	}
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || !bytes.Equal(a[i], b[i]) {
			t.Fatalf("the two platforms' writes differ at message %d of %d/%d", i, len(a), len(b))
		}
	}
}
