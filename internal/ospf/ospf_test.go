package ospf

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/rib"
)

// fast protocol timers for tests (same ratios as the RFC defaults).
func fastConfig(id string, r *rib.RIB) Config {
	return Config{
		RouterID:      netip.MustParseAddr(id),
		RIB:           r,
		HelloInterval: 20 * time.Millisecond,
		DeadInterval:  80 * time.Millisecond,
		SPFDelay:      5 * time.Millisecond,
	}
}

// pipePair wires two OSPF interfaces with ordered asynchronous delivery and
// a kill switch.
type pipePair struct {
	aliveAB atomic.Bool
	aliveBA atomic.Bool
	ab      chan []byte
	ba      chan []byte
}

func newPipePair() *pipePair {
	p := &pipePair{ab: make(chan []byte, 1024), ba: make(chan []byte, 1024)}
	p.aliveAB.Store(true)
	p.aliveBA.Store(true)
	return p
}

func (p *pipePair) cut() { p.aliveAB.Store(false); p.aliveBA.Store(false) }

// connect links instance a (interface name an, address aAddr) with b.
func connect(t *testing.T, a *Instance, an string, aAddr string,
	b *Instance, bn string, bAddr string, cost uint16) *pipePair {
	t.Helper()
	p := newPipePair()
	apfx, bpfx := netip.MustParsePrefix(aAddr), netip.MustParsePrefix(bAddr)
	aifc, err := a.AddInterface(an, apfx, cost, func(dst netip.Addr, payload []byte) {
		if p.aliveAB.Load() {
			select {
			case p.ab <- payload:
			default:
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	bifc, err := b.AddInterface(bn, bpfx, cost, func(dst netip.Addr, payload []byte) {
		if p.aliveBA.Load() {
			select {
			case p.ba <- payload:
			default:
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		for {
			select {
			case m := <-p.ab:
				if p.aliveAB.Load() {
					bifc.Deliver(apfx.Addr(), m)
				}
			case <-done:
				return
			}
		}
	}()
	go func() {
		for {
			select {
			case m := <-p.ba:
				if p.aliveBA.Load() {
					aifc.Deliver(bpfx.Addr(), m)
				}
			case <-done:
				return
			}
		}
	}()
	return p
}

// stubIface adds an interface with no neighbor (a leaf subnet).
func stubIface(t *testing.T, inst *Instance, name, cidr string) {
	t.Helper()
	if _, err := inst.AddInterface(name, netip.MustParsePrefix(cidr), 10,
		func(netip.Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
}

func newRouter(t *testing.T, id string) (*Instance, *rib.RIB) {
	t.Helper()
	r := rib.New()
	inst, err := New(fastConfig(id, r))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
	return inst, r
}

func waitCond(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHelloWireRoundTrip(t *testing.T) {
	h := &hello{NetMask: 0xfffffffc, HelloInterval: 10, DeadInterval: 40,
		Neighbors: []uint32{0x01010101, 0x02020202}}
	payload := marshalPacket(header{Type: typeHello, RouterID: 0x0a0a0a0a}, h.marshal())
	gh, body, err := parsePacket(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gh.Type != typeHello || gh.RouterID != 0x0a0a0a0a {
		t.Fatalf("header = %+v", gh)
	}
	got, err := parseHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.NetMask != h.NetMask || len(got.Neighbors) != 2 || got.Neighbors[1] != 0x02020202 {
		t.Fatalf("hello = %+v", got)
	}
}

func TestPacketChecksumRejectsCorruption(t *testing.T) {
	payload := marshalPacket(header{Type: typeHello, RouterID: 1}, (&hello{}).marshal())
	payload[headerLen] ^= 0xff
	if _, _, err := parsePacket(payload); err == nil {
		t.Fatal("corrupted packet accepted")
	}
	if _, _, err := parsePacket([]byte{2, 1}); err == nil {
		t.Fatal("runt accepted")
	}
	payload = marshalPacket(header{Type: typeHello, RouterID: 1}, nil)
	payload[0] = 3 // wrong version
	if _, _, err := parsePacket(payload); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestLSAWireRoundTrip(t *testing.T) {
	l := &lsa{AdvRouter: 0x0a000001, Seq: InitialSeq, Age: 7, Links: []rlaLink{
		{ID: 0x0a000002, Data: 0xac100001, Type: linkP2P, Metric: 10},
		{ID: 0xac100000, Data: 0xfffffffc, Type: linkStub, Metric: 10},
	}}
	b := l.marshal()
	got, consumed, err := parseLSA(b)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(b) {
		t.Fatalf("consumed = %d of %d", consumed, len(b))
	}
	if got.AdvRouter != l.AdvRouter || got.Seq != l.Seq || len(got.Links) != 2 {
		t.Fatalf("lsa = %+v", got)
	}
	if got.Links[0] != l.Links[0] || got.Links[1] != l.Links[1] {
		t.Fatalf("links = %+v", got.Links)
	}
}

func TestLSAFletcherDetectsCorruption(t *testing.T) {
	l := &lsa{AdvRouter: 1, Seq: InitialSeq,
		Links: []rlaLink{{ID: 2, Data: 3, Type: linkP2P, Metric: 1}}}
	b := l.marshal()
	b[len(b)-1] ^= 0x01 // corrupt metric
	if _, _, err := parseLSA(b); err == nil {
		t.Fatal("corrupted LSA accepted")
	}
}

func TestLSUpdateRoundTrip(t *testing.T) {
	lsas := []*lsa{
		{AdvRouter: 1, Seq: InitialSeq, Links: []rlaLink{{ID: 9, Data: 8, Type: linkStub, Metric: 5}}},
		{AdvRouter: 2, Seq: InitialSeq + 3},
	}
	got, err := parseLSUpdate(marshalLSUpdate(lsas))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].AdvRouter != 1 || got[1].Seq != InitialSeq+3 {
		t.Fatalf("lsas = %+v", got)
	}
}

func TestLSAFletcherQuick(t *testing.T) {
	prop := func(advRouter, seq uint32, id, data uint32, metric uint16) bool {
		l := &lsa{AdvRouter: advRouter, Seq: seq, Links: []rlaLink{
			{ID: id, Data: data, Type: linkP2P, Metric: metric}}}
		got, _, err := parseLSA(l.marshal())
		return err == nil && got.AdvRouter == advRouter && got.Seq == seq &&
			got.Links[0].Metric == metric
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoRouterAdjacencyAndRoutes(t *testing.T) {
	a, ribA := newRouter(t, "10.255.0.1")
	b, ribB := newRouter(t, "10.255.0.2")
	connect(t, a, "eth0", "172.16.0.1/30", b, "eth0", "172.16.0.2/30", 10)
	stubIface(t, a, "lan0", "10.1.0.1/24")
	stubIface(t, b, "lan0", "10.2.0.1/24")
	a.Start()
	b.Start()

	waitCond(t, "adjacency Full on both", 5*time.Second, func() bool {
		return a.FullNeighbors() == 1 && b.FullNeighbors() == 1
	})
	waitCond(t, "A learns B's LAN", 5*time.Second, func() bool {
		rt, ok := ribA.Lookup(netip.MustParseAddr("10.2.0.9"))
		return ok && rt.Source == rib.SourceOSPF && rt.NextHop == netip.MustParseAddr("172.16.0.2")
	})
	waitCond(t, "B learns A's LAN", 5*time.Second, func() bool {
		rt, ok := ribB.Lookup(netip.MustParseAddr("10.1.0.9"))
		return ok && rt.NextHop == netip.MustParseAddr("172.16.0.1")
	})
	if a.LSDBSize() != 2 || b.LSDBSize() != 2 {
		t.Fatalf("lsdb sizes = %d/%d", a.LSDBSize(), b.LSDBSize())
	}
	nbs := a.Neighbors()
	if len(nbs) != 1 || nbs[0].State != NeighborFull ||
		nbs[0].RouterID != netip.MustParseAddr("10.255.0.2") {
		t.Fatalf("neighbors = %+v", nbs)
	}
}

func TestThreeRouterLineTransitRoutes(t *testing.T) {
	a, ribA := newRouter(t, "10.255.0.1")
	b, _ := newRouter(t, "10.255.0.2")
	c, ribC := newRouter(t, "10.255.0.3")
	connect(t, a, "eth0", "172.16.0.1/30", b, "eth0", "172.16.0.2/30", 10)
	connect(t, b, "eth1", "172.16.0.5/30", c, "eth0", "172.16.0.6/30", 10)
	stubIface(t, c, "lan0", "10.3.0.1/24")
	a.Start()
	b.Start()
	c.Start()

	waitCond(t, "A reaches C's LAN via B", 10*time.Second, func() bool {
		rt, ok := ribA.Lookup(netip.MustParseAddr("10.3.0.42"))
		return ok && rt.NextHop == netip.MustParseAddr("172.16.0.2") && rt.Iface == "eth0"
	})
	rt, _ := ribA.Lookup(netip.MustParseAddr("10.3.0.42"))
	// metric: A→B link (10) + B→C link (10) + C stub (10) = 30
	if rt.Metric != 30 {
		t.Fatalf("metric = %d, want 30", rt.Metric)
	}
	// C must also route to the far A–B subnet.
	waitCond(t, "C reaches the A-B subnet", 10*time.Second, func() bool {
		rt, ok := ribC.Lookup(netip.MustParseAddr("172.16.0.1"))
		return ok && rt.NextHop == netip.MustParseAddr("172.16.0.5")
	})
}

func TestCostSteersPathChoice(t *testing.T) {
	// Square: A-B cheap-cheap, A-D-C expensive; A must reach C via B.
	a, ribA := newRouter(t, "10.255.0.1")
	b, _ := newRouter(t, "10.255.0.2")
	c, _ := newRouter(t, "10.255.0.3")
	d, _ := newRouter(t, "10.255.0.4")
	connect(t, a, "eth0", "172.16.0.1/30", b, "eth0", "172.16.0.2/30", 1)
	connect(t, b, "eth1", "172.16.0.5/30", c, "eth0", "172.16.0.6/30", 1)
	connect(t, a, "eth1", "172.16.0.9/30", d, "eth0", "172.16.0.10/30", 100)
	connect(t, d, "eth1", "172.16.0.13/30", c, "eth1", "172.16.0.14/30", 100)
	stubIface(t, c, "lan0", "10.3.0.1/24")
	for _, r := range []*Instance{a, b, c, d} {
		r.Start()
	}
	waitCond(t, "A routes to C via B (cheap path)", 10*time.Second, func() bool {
		rt, ok := ribA.Lookup(netip.MustParseAddr("10.3.0.1"))
		return ok && rt.NextHop == netip.MustParseAddr("172.16.0.2")
	})
}

func TestNeighborDeathWithdrawsRoutes(t *testing.T) {
	a, ribA := newRouter(t, "10.255.0.1")
	b, _ := newRouter(t, "10.255.0.2")
	p := connect(t, a, "eth0", "172.16.0.1/30", b, "eth0", "172.16.0.2/30", 10)
	stubIface(t, b, "lan0", "10.2.0.1/24")
	a.Start()
	b.Start()
	waitCond(t, "route up", 5*time.Second, func() bool {
		_, ok := ribA.Lookup(netip.MustParseAddr("10.2.0.1"))
		return ok
	})
	p.cut()
	waitCond(t, "route withdrawn after dead interval", 5*time.Second, func() bool {
		rt, ok := ribA.Lookup(netip.MustParseAddr("10.2.0.1"))
		return !ok || rt.Source != rib.SourceOSPF
	})
	if a.FullNeighbors() != 0 {
		t.Fatal("neighbor survived dead interval")
	}
}

func TestRingConvergence(t *testing.T) {
	const n = 6
	insts := make([]*Instance, n)
	ribs := make([]*rib.RIB, n)
	for i := 0; i < n; i++ {
		insts[i], ribs[i] = newRouter(t, fmt.Sprintf("10.255.0.%d", i+1))
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		base := i * 4
		connect(t, insts[i], fmt.Sprintf("eth%d-r", i), fmt.Sprintf("172.17.%d.1/30", base),
			insts[j], fmt.Sprintf("eth%d-l", j), fmt.Sprintf("172.17.%d.2/30", base), 10)
	}
	for _, r := range insts {
		r.Start()
	}
	waitCond(t, "full LSDB everywhere", 15*time.Second, func() bool {
		for _, r := range insts {
			if r.LSDBSize() != n {
				return false
			}
		}
		return true
	})
	// Every router must reach every ring subnet.
	waitCond(t, "all subnets routed from router 0", 15*time.Second, func() bool {
		for i := 0; i < n; i++ {
			probe := netip.MustParseAddr(fmt.Sprintf("172.17.%d.2", i*4))
			if _, ok := ribs[0].Lookup(probe); !ok {
				return false
			}
		}
		return true
	})
	if insts[0].SPFRuns() == 0 {
		t.Fatal("SPF never ran")
	}
}

func TestRemoveInterfaceReoriginates(t *testing.T) {
	a, _ := newRouter(t, "10.255.0.1")
	b, ribB := newRouter(t, "10.255.0.2")
	connect(t, a, "eth0", "172.16.0.1/30", b, "eth0", "172.16.0.2/30", 10)
	stubIface(t, a, "lan0", "10.1.0.1/24")
	a.Start()
	b.Start()
	waitCond(t, "B sees A's LAN", 5*time.Second, func() bool {
		_, ok := ribB.Lookup(netip.MustParseAddr("10.1.0.1"))
		return ok
	})
	a.RemoveInterface("lan0")
	waitCond(t, "B withdraws A's LAN", 5*time.Second, func() bool {
		_, ok := ribB.Lookup(netip.MustParseAddr("10.1.0.1"))
		return !ok
	})
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{RouterID: netip.MustParseAddr("::1"), RIB: rib.New()}); err == nil {
		t.Fatal("IPv6 router ID accepted")
	}
	if _, err := New(Config{RouterID: netip.MustParseAddr("1.1.1.1")}); err == nil {
		t.Fatal("nil RIB accepted")
	}
	inst, err := New(Config{RouterID: netip.MustParseAddr("1.1.1.1"), RIB: rib.New()})
	if err != nil {
		t.Fatal(err)
	}
	if inst.cfg.HelloInterval != DefaultHelloInterval || inst.cfg.DeadInterval != DefaultDeadInterval {
		t.Fatal("defaults not applied")
	}
	if inst.RouterID() != netip.MustParseAddr("1.1.1.1") {
		t.Fatal("router id accessor")
	}
	if _, err := inst.AddInterface("x", netip.MustParsePrefix("fd00::1/64"), 1, nil); err == nil {
		t.Fatal("IPv6 interface accepted")
	}
	if _, err := inst.AddInterface("x", netip.MustParsePrefix("10.0.0.1/30"), 1, func(netip.Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.AddInterface("x", netip.MustParsePrefix("10.0.0.5/30"), 1, func(netip.Addr, []byte) {}); err == nil {
		t.Fatal("duplicate interface accepted")
	}
}

func TestMismatchedTimersIgnored(t *testing.T) {
	cfg := fastConfig("10.255.0.9", rib.New())
	cfg.Clock = clock.NewFake() // never advanced: only events send hellos
	inst, _ := New(cfg)
	t.Cleanup(inst.Stop)
	ifc, _ := inst.AddInterface("eth0", netip.MustParsePrefix("172.16.0.1/30"), 1,
		func(netip.Addr, []byte) {})
	inst.Start()
	// A hello advertising RFC-default timers (10s/40s) mismatches our fast
	// test timers and must be ignored: no neighbor, no triggered answer.
	alien := marshalPacket(header{Type: typeHello, RouterID: 0x09090909},
		(&hello{NetMask: 0xfffffffc, HelloInterval: 10, DeadInterval: 40}).marshal())
	ifc.Deliver(netip.MustParseAddr("172.16.0.2"), alien)
	if len(inst.Neighbors()) != 0 {
		t.Fatal("mismatched-timer hello created a neighbor")
	}
	if got := inst.HellosSent(); got != 1 {
		t.Fatalf("hellos sent = %d, want only the Start hello", got)
	}
	if got := inst.RejectedPackets(); got != 1 {
		t.Fatalf("rejected packets = %d, want 1", got)
	}
}

func TestNeighborStateString(t *testing.T) {
	if NeighborDown.String() != "Down" || NeighborInit.String() != "Init" ||
		NeighborFull.String() != "Full" || NeighborState(9).String() == "" {
		t.Fatal("state strings")
	}
}
