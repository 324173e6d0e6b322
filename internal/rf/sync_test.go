package rf

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/ctlkit"
	"routeflow/internal/ofswitch"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
	"routeflow/internal/rib"
	"routeflow/internal/vnet"
)

// The tests in this file run one platform, its controller and a real switch
// dialing it over a MemListener, all on a fake clock: the repair tick and the
// switch's redial backoff fire only when a test advances it.

const rigDPID = 1

// rigNextHop is where every route of these tests points: port 1 of switch 2.
var rigNextHop = netip.MustParseAddr("172.16.0.2")

type rig struct {
	t   *testing.T
	clk *clock.Fake
	p   *Platform
	sw  *ofswitch.Switch
	// stall, while held, stops the switch reading its control channel, so
	// the controller's send queue fills.
	stall sync.Mutex
	// rules is the last monitoring program set through setTelemetry.
	rules []openflow.MonitorRule
	epoch uint64
}

func newRig(t *testing.T, sharded bool) *rig {
	t.Helper()
	clk := clock.NewFake()
	p, err := New(Config{Clock: clk, Pool: netip.MustParsePrefix("172.16.0.0/16"), Sharded: sharded})
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.addrIndex[rigNextHop] = addrOwner{2, 1}
	p.mu.Unlock()
	ln := ctlkit.NewMemListener("rf")
	go p.Controller().Serve(ln)
	r := &rig{t: t, clk: clk, p: p, sw: ofswitch.New(ofswitch.Config{DPID: rigDPID, Clock: clk})}
	if err := r.sw.StartDialer(func() (io.ReadWriteCloser, error) {
		c, err := ln.Dial()
		if err != nil {
			return nil, err
		}
		return stallConn{c, &r.stall}, nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.sw.Stop()
		p.Stop()
		ln.Close()
	})
	r.await("switch connected", r.connected)
	return r
}

type stallConn struct {
	net.Conn
	stall *sync.Mutex
}

func (c stallConn) Read(b []byte) (int, error) {
	c.stall.Lock()
	//lint:ignore SA2001 the empty critical section is the gate: it waits while the test holds stall
	c.stall.Unlock()
	return c.Conn.Read(b)
}

func (r *rig) connected() bool {
	_, ok := r.p.Controller().Switch(rigDPID)
	return ok
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

func (r *rig) addRoute(i int) {
	r.p.onFIBEvent(rigDPID, rib.Event{Type: rib.RouteAdded, Route: rib.Route{
		Prefix: routePrefix(i), NextHop: rigNextHop, Iface: "eth1", Source: rib.SourceOSPF}})
}

func (r *rig) delRoute(i int) {
	r.p.onFIBEvent(rigDPID, rib.Event{Type: rib.RouteRemoved, Route: rib.Route{
		Prefix: routePrefix(i), NextHop: rigNextHop, Iface: "eth1", Source: rib.SourceOSPF}})
}

// addHost learns host i behind port. Host 0 is 10.0.0.1: the same /32 a
// route /32 to it would match, at the host priority.
func (r *rig) addHost(i int, port uint16) {
	r.p.onHostLearned(rigDPID, vnet.HostLearned{Port: port,
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
	route := func(typ rib.EventType) {
		r.p.onFIBEvent(rigDPID, rib.Event{Type: typ, Route: rib.Route{
			Prefix: host, NextHop: rigNextHop, Iface: "eth1", Source: rib.SourceOSPF}})
	}
	route(rib.RouteAdded)
	r.settle("host and route installed")
	if n := r.p.FlowCount(rigDPID); n != 2 {
		t.Fatalf("desired flows = %d, want 2", n)
	}
	route(rib.RouteRemoved)
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
	r.p.onFIBEvent(rigDPID, rib.Event{Type: rib.RouteAdded, Route: rib.Route{
		Prefix: subnet, NextHop: rigNextHop, Iface: "eth1", Source: rib.SourceIBGP}})
	r.settle("learned route installed")
	if n := r.p.FlowCount(rigDPID); n != 1 {
		t.Fatalf("desired flows = %d, want the learned route's", n)
	}
	r.p.onFIBEvent(rigDPID, rib.Event{Type: rib.RouteReplaced, Route: rib.Route{
		Prefix: subnet, Iface: "eth2", Source: rib.SourceConnected}})
	r.settle("connected route replaced it")
	if n := len(r.sw.FlowTable()); n != 0 {
		t.Fatalf("switch holds %d flows, want none for a connected subnet", n)
	}
}

// TestDroppedSendsRepairedWithinOneTick: sends dropped on a full queue leave
// the switch wrong until the next repair tick, and right after it.
func TestDroppedSendsRepairedWithinOneTick(t *testing.T) {
	r := newRig(t, false)
	sc, _ := r.p.Controller().Switch(rigDPID)
	r.stall.Lock()
	// More installs than the send queue holds: the tail is dropped. Then
	// withdraw all but ten, which the full queue drops as well.
	const n = 1100
	for i := 0; i < n; i++ {
		r.addRoute(i)
	}
	for i := 10; i < n; i++ {
		r.delRoute(i)
	}
	r.stall.Unlock()
	if r.p.Controller().SendQueueDrops() == 0 {
		t.Fatal("no send was dropped; the queue never filled")
	}
	// Everything that was queued has reached the switch once a barrier
	// comes back.
	if err := sc.Barrier(); err != nil {
		t.Fatal(err)
	}
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
	if err := sc.Barrier(); err != nil {
		t.Fatal(err)
	}
	if len(r.sw.FlowTable()) != 5 || len(r.sw.MonitorCounters()) != 1 {
		t.Fatal("foreign state not installed")
	}
	// Desired state built before adoption is held, not sent.
	r.addRoute(1)
	r.addHost(1, 2)
	r.p.SetPins([]PinFlow{pin(1, 2)})
	r.setTelemetry([]openflow.MonitorRule{monitorRule(1)})
	if err := sc.Barrier(); err != nil {
		t.Fatal(err)
	}
	if len(r.sw.FlowTable()) != 5 {
		t.Fatal("a replica wrote to a switch it does not master")
	}
	r.p.Adopt(rigDPID)
	r.await("adopted switch equals desired state", func() bool { return r.gap() == "" })
	if n := len(r.sw.FlowTable()); n != 3 {
		t.Fatalf("switch holds %d flows, want 3", n)
	}
}

// TestRandomEditsCutsAndRebootsConverge interleaves every kind of edit with
// session cuts and reboots; at quiesce the switch holds exactly the desired
// flows and the program's monitor rules.
func TestRandomEditsCutsAndRebootsConverge(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := newRig(t, false)
			rng := rand.New(rand.NewSource(seed))
			port := func() uint16 { return uint16(1 + rng.Intn(3)) }
			for op := 0; op < 300; op++ {
				switch k := rng.Intn(20); {
				case k < 6:
					r.addRoute(rng.Intn(30))
				case k < 10:
					r.delRoute(rng.Intn(30))
				case k < 12:
					r.addHost(rng.Intn(8), port())
				case k < 14:
					var pins []PinFlow
					for i := 0; i < 6; i++ {
						if rng.Intn(2) == 0 {
							pins = append(pins, pin(i, port()))
						}
					}
					r.p.SetPins(pins)
				case k < 16:
					var rules []openflow.MonitorRule
					for i := 1; i <= 4; i++ {
						if rng.Intn(2) == 0 {
							rules = append(rules, monitorRule(i))
						}
					}
					r.setTelemetry(rules)
				case k == 16:
					if r.connected() {
						r.cut()
					}
				case k == 17:
					r.sw.Reboot()
				default:
					r.clk.Advance(time.Duration(rng.Intn(400)) * time.Millisecond)
					time.Sleep(time.Millisecond)
				}
			}
			r.settle("quiesce")
		})
	}
}
