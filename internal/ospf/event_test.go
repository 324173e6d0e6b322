package ospf

import (
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/rib"
)

// The tests in this file run with the RFC timers (hello 10 s, dead 40 s) and
// a clock that never reaches a hello tick: whatever forms an adjacency here
// was triggered by an event.

// rfcRouter builds a router with RFC hello/dead timers on clk (nil = the
// system clock).
func rfcRouter(t *testing.T, id string, clk clock.Clock) (*Instance, *rib.RIB) {
	t.Helper()
	r := rib.New()
	inst, err := New(Config{
		RouterID: netip.MustParseAddr(id), RIB: r, Clock: clk,
		HelloInterval: DefaultHelloInterval, DeadInterval: DefaultDeadInterval,
		SPFDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
	return inst, r
}

// wire is a hand-pumped p2p link: a send only queues the packet, and nothing
// crosses until the test delivers it. That makes "both ends sent before
// either processed" a state the test constructs, not a race it hopes for.
type wire struct {
	mu   sync.Mutex
	q    [2][][]byte // q[e]: sent by end e, not yet delivered to the other end
	ifc  [2]*Interface
	addr [2]netip.Addr
}

// attach enables OSPF on inst as one end of the wire.
func (w *wire) attach(t *testing.T, end int, inst *Instance, cidr string) {
	t.Helper()
	pfx := netip.MustParsePrefix(cidr)
	ifc, err := inst.AddInterface("eth0", pfx, 10, func(_ netip.Addr, p []byte) {
		w.mu.Lock()
		w.q[end] = append(w.q[end], p)
		w.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	w.ifc[end], w.addr[end] = ifc, pfx.Addr()
}

// take removes and returns everything end `from` has sent so far.
func (w *wire) take(from int) [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	batch := w.q[from]
	w.q[from] = nil
	return batch
}

// hand gives packets sent by end `from` to the other end; with no interface
// attached there they are lost on the wire.
func (w *wire) hand(from int, batch [][]byte) {
	if to := w.ifc[1-from]; to != nil {
		for _, p := range batch {
			to.Deliver(w.addr[from], p)
		}
	}
}

// deliver moves everything end `from` has sent so far across the wire and
// returns how many packets that was.
func (w *wire) deliver(from int) int {
	batch := w.take(from)
	w.hand(from, batch)
	return len(batch)
}

// pump delivers in both directions until cond holds.
func (w *wire) pump(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitCond(t, what, 5*time.Second, func() bool {
		w.deliver(0)
		w.deliver(1)
		return cond()
	})
}

// drain delivers until both queues stay empty. Hellos are only ever sent
// from Start, AddInterface and Deliver, all on the test's goroutine, so after
// drain the hello counters are final; the short wait covers the LSA floods,
// which leave on goroutines of their own.
func (w *wire) drain() {
	for idle := 0; idle < 10; {
		if w.deliver(0)+w.deliver(1) > 0 {
			idle = 0
			continue
		}
		idle++
		time.Sleep(time.Millisecond)
	}
}

func bothFull(a, b *Instance) func() bool {
	return func() bool { return a.FullNeighbors() == 1 && b.FullNeighbors() == 1 }
}

func TestInterfaceAddedAfterStartFormsAdjacencyAtOnce(t *testing.T) {
	a, ribA := rfcRouter(t, "10.255.0.1", nil)
	b, ribB := rfcRouter(t, "10.255.0.2", nil)
	a.Start()
	b.Start()
	stubIface(t, a, "lan0", "10.1.0.1/24")
	stubIface(t, b, "lan0", "10.2.0.1/24")
	connect(t, a, "eth0", "172.16.0.1/30", b, "eth0", "172.16.0.2/30", 10)

	// One second against a 10 s hello interval: no tick can have helped.
	waitCond(t, "Full both ways and stub routes installed", time.Second, func() bool {
		ra, okA := ribA.Lookup(netip.MustParseAddr("10.2.0.9"))
		rb, okB := ribB.Lookup(netip.MustParseAddr("10.1.0.9"))
		return bothFull(a, b)() &&
			okA && ra.Source == rib.SourceOSPF && ra.NextHop == netip.MustParseAddr("172.16.0.2") &&
			okB && rb.Source == rib.SourceOSPF && rb.NextHop == netip.MustParseAddr("172.16.0.1")
	})
}

func TestCrossingHellosReachFull(t *testing.T) {
	clk := clock.NewFake()
	a, _ := rfcRouter(t, "10.255.0.1", clk)
	b, _ := rfcRouter(t, "10.255.0.2", clk)
	w := &wire{}
	w.attach(t, 0, a, "172.16.0.1/30")
	w.attach(t, 1, b, "172.16.0.2/30")
	a.Start()
	b.Start()
	// Both first hellos are on the wire before either end has heard a thing,
	// so neither lists the other.
	fromA, fromB := w.take(0), w.take(1)
	if len(fromA) != 1 || len(fromB) != 1 {
		t.Fatalf("Start sent %d/%d hellos, want 1/1", len(fromA), len(fromB))
	}
	w.hand(0, fromA)
	w.hand(1, fromB)
	if a.FullNeighbors() != 0 || b.FullNeighbors() != 0 {
		t.Fatal("an empty hello made a Full neighbor")
	}
	w.pump(t, "Full on both ends after crossing hellos", bothFull(a, b))
	w.drain()
	if a.LSDBSize() != 2 || b.LSDBSize() != 2 {
		t.Fatalf("lsdb sizes = %d/%d, want 2/2", a.LSDBSize(), b.LSDBSize())
	}
	// Start hello + the triggered answer + the becameFull answer.
	if ha, hb := a.HellosSent(), b.HellosSent(); ha > 4 || hb > 4 {
		t.Fatalf("adjacency cost %d/%d hellos, want <= 4 per side", ha, hb)
	}
}

func TestOneSidedHelloReachesFullInOneRoundTrip(t *testing.T) {
	clk := clock.NewFake()
	a, _ := rfcRouter(t, "10.255.0.1", clk)
	b, _ := rfcRouter(t, "10.255.0.2", clk)
	a.Start()
	b.Start()
	w := &wire{}
	w.attach(t, 1, b, "172.16.0.2/30")
	w.deliver(1) // b's InterfaceUp hello finds nobody listening yet
	w.attach(t, 0, a, "172.16.0.1/30")
	for _, step := range []struct {
		from         int
		fullA, fullB int
	}{
		{0, 0, 0}, // a's InterfaceUp hello: b enters Init and answers
		{1, 1, 0}, // b's answer lists a: a is Full, dumps its LSDB, answers
		{0, 1, 1}, // a's answer lists b: b is Full
	} {
		w.deliver(step.from)
		if a.FullNeighbors() != step.fullA || b.FullNeighbors() != step.fullB {
			t.Fatalf("after delivering from end %d: full = %d/%d, want %d/%d", step.from,
				a.FullNeighbors(), b.FullNeighbors(), step.fullA, step.fullB)
		}
	}
	w.drain()
	if ha, hb := a.HellosSent(), b.HellosSent(); ha > 4 || hb > 4 {
		t.Fatalf("adjacency cost %d/%d hellos, want <= 4 per side", ha, hb)
	}
}

func TestRestartedNeighborResyncedWithoutTick(t *testing.T) {
	clk := clock.NewFake()
	a, _ := rfcRouter(t, "10.255.0.1", clk)
	b, _ := rfcRouter(t, "10.255.0.2", clk)
	stubIface(t, a, "lan0", "10.1.0.1/24")
	w := &wire{}
	w.attach(t, 0, a, "172.16.0.1/30")
	w.attach(t, 1, b, "172.16.0.2/30")
	a.Start()
	b.Start()
	w.pump(t, "first adjacency", bothFull(a, b))
	w.drain()

	// b dies and comes back well inside a's dead interval with the same
	// router ID and an empty database; a still holds it as Full.
	b.Stop()
	b2, ribB2 := rfcRouter(t, "10.255.0.2", clk)
	w.attach(t, 1, b2, "172.16.0.2/30")
	b2.Start()
	w.pump(t, "restarted neighbor Full and holding our LSA", func() bool {
		return bothFull(a, b2)() && b2.LSDBSize() == 2
	})
	b2.RunSPFNow()
	rt, ok := ribB2.Lookup(netip.MustParseAddr("10.1.0.9"))
	if !ok || rt.Source != rib.SourceOSPF || rt.NextHop != netip.MustParseAddr("172.16.0.1") {
		t.Fatalf("restarted neighbor's route to our LAN = %+v, %v", rt, ok)
	}
}

// TestOwnStaleLSAAtEqualSequenceIsSuperseded: a router re-created under the
// same router ID can originate, with other links, at the very sequence
// number its earlier incarnation's LSA still holds in a neighbor. The
// neighbor keeps its copy at an equal number, so when a database dump hands
// that copy back the router must re-originate past it. A copy equal to its
// own changes nothing.
func TestOwnStaleLSAAtEqualSequenceIsSuperseded(t *testing.T) {
	a, _ := rfcRouter(t, "10.255.0.1", clock.NewFake())
	ifc, err := a.AddInterface("eth0", netip.MustParsePrefix("172.16.0.1/30"), 10,
		func(netip.Addr, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	me := u32(a.RouterID())
	own := func() lsa {
		a.mu.Lock()
		defer a.mu.Unlock()
		return *a.lsdb[me]
	}
	dump := func(l lsa) {
		ifc.Deliver(netip.MustParseAddr("172.16.0.2"),
			marshalPacket(header{Type: typeLSUpdate, RouterID: 0x0aff0002}, marshalLSUpdate([]*lsa{&l})))
	}

	cur := own()
	dump(cur)
	if got := own(); got.Seq != cur.Seq {
		t.Fatalf("our own LSA handed back re-originated: seq %#x -> %#x", cur.Seq, got.Seq)
	}
	stale := lsa{AdvRouter: me, Seq: cur.Seq, Links: []rlaLink{
		{ID: 0x0aff0002, Data: u32(netip.MustParseAddr("172.16.0.26")), Type: linkP2P, Metric: 10}}}
	dump(stale)
	if got := own(); got.Seq <= cur.Seq || !slices.Equal(got.Links, cur.Links) {
		t.Fatalf("after a stale copy at our sequence %#x: own LSA seq %#x links %+v, want a later seq with our links %+v",
			cur.Seq, got.Seq, got.Links, cur.Links)
	}
}

func TestPeerThatNeverListsUsGetsOneTriggeredHello(t *testing.T) {
	a, _ := rfcRouter(t, "10.255.0.1", clock.NewFake())
	var mu sync.Mutex
	var sent [][]byte
	ifc, err := a.AddInterface("eth0", netip.MustParsePrefix("172.16.0.1/30"), 10,
		func(_ netip.Addr, p []byte) {
			mu.Lock()
			sent = append(sent, p)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	a.Start() // hello 1
	const peer = 0x0aff0002
	from := netip.MustParseAddr("172.16.0.2")
	helloListing := func(nbrs ...uint32) []byte {
		return marshalPacket(header{Type: typeHello, RouterID: peer},
			(&hello{NetMask: 0xfffffffc, HelloInterval: 10, DeadInterval: 40, Neighbors: nbrs}).marshal())
	}
	for n := 0; n < 3; n++ {
		ifc.Deliver(from, helloListing())
	}
	if got := a.HellosSent(); got != 2 {
		t.Fatalf("three 1-way hellos drew %d hellos in all, want 2 (Start + one triggered)", got)
	}
	mu.Lock()
	last := sent[len(sent)-1]
	mu.Unlock()
	_, body, err := parsePacket(last)
	if err != nil {
		t.Fatal(err)
	}
	if hl, err := parseHello(body); err != nil || len(hl.Neighbors) != 1 || hl.Neighbors[0] != peer {
		t.Fatalf("triggered hello = %+v, %v; want it to list the peer", hl, err)
	}

	// Each later state change is answered once more, and only once.
	ifc.Deliver(from, helloListing(u32(a.RouterID()))) // Init -> Full: the becameFull answer
	if got := a.HellosSent(); got != 3 {
		t.Fatalf("hellos after reaching Full = %d, want 3", got)
	}
	ifc.Deliver(from, helloListing(u32(a.RouterID()))) // already Full: nothing
	ifc.Deliver(from, helloListing())                  // Full -> Init: triggered
	ifc.Deliver(from, helloListing())                  // already Init: nothing
	if got := a.HellosSent(); got != 4 {
		t.Fatalf("hellos after the peer restarted = %d, want 4", got)
	}
}

func TestRejectedPacketsCounted(t *testing.T) {
	a, _ := rfcRouter(t, "10.255.0.1", clock.NewFake())
	ifc, err := a.AddInterface("eth0", netip.MustParsePrefix("172.16.0.1/30"), 10,
		func(netip.Addr, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	from := netip.MustParseAddr("172.16.0.2")
	good := marshalPacket(header{Type: typeHello, RouterID: 9},
		(&hello{NetMask: 0xfffffffc, HelloInterval: 10, DeadInterval: 40}).marshal())
	corrupt := append([]byte(nil), good...)
	corrupt[headerLen] ^= 0xff
	badLSA := (&lsa{AdvRouter: 9, Seq: InitialSeq}).marshal()
	badLSA[len(badLSA)-1] ^= 1
	for _, p := range [][]byte{
		{2, 1}, // runt
		corrupt,
		marshalPacket(header{Type: typeHello, RouterID: 9}, []byte{1, 2, 3}), // short hello
		marshalPacket(header{Type: typeHello, RouterID: 9}, // timer mismatch
			(&hello{NetMask: 0xfffffffc, HelloInterval: 1, DeadInterval: 4}).marshal()),
		marshalPacket(header{Type: typeLSUpdate, RouterID: 9}, append([]byte{0, 0, 0, 1}, badLSA...)),
	} {
		before := a.RejectedPackets()
		ifc.Deliver(from, p)
		if a.RejectedPackets() != before+1 {
			t.Fatalf("packet % x was dropped uncounted", p)
		}
	}
	if len(a.Neighbors()) != 0 {
		t.Fatal("a rejected packet created a neighbor")
	}
	// Accepted packets and our own echo are not rejections.
	before := a.RejectedPackets()
	ifc.Deliver(from, good)
	ifc.Deliver(from, marshalPacket(header{Type: typeHello, RouterID: u32(a.RouterID())}, nil))
	if a.RejectedPackets() != before {
		t.Fatal("an accepted hello or our own echo was counted as rejected")
	}
}

func TestStopRacingAddInterfaceSendsNothingAfterStop(t *testing.T) {
	for round := 0; round < 200; round++ {
		inst, err := New(Config{RouterID: netip.MustParseAddr("10.255.0.1"), RIB: rib.New(),
			Clock: clock.NewFake()})
		if err != nil {
			t.Fatal(err)
		}
		var stopReturned atomic.Bool
		var sends, late atomic.Int32
		send := func(netip.Addr, []byte) {
			sends.Add(1)
			if stopReturned.Load() {
				late.Add(1)
			}
		}
		inst.Start()
		if _, err := inst.AddInterface("eth0", netip.MustParsePrefix("172.16.0.1/30"), 10, send); err != nil {
			t.Fatal(err)
		}
		if sends.Load() != 1 {
			t.Fatalf("round %d: interface added to a running instance sent %d hellos, want 1", round, sends.Load())
		}
		added := make(chan struct{})
		go func() {
			defer close(added)
			if _, err := inst.AddInterface("eth1", netip.MustParsePrefix("172.16.0.5/30"), 10, send); err != nil {
				t.Error(err)
			}
		}()
		inst.Stop()
		stopReturned.Store(true)
		<-added
		if late.Load() != 0 {
			t.Fatalf("round %d: %d sends after Stop returned", round, late.Load())
		}
		// And an interface added to a stopped instance stays silent.
		n := sends.Load()
		if _, err := inst.AddInterface("eth2", netip.MustParsePrefix("172.16.0.9/30"), 10, send); err != nil {
			t.Fatal(err)
		}
		if sends.Load() != n {
			t.Fatalf("round %d: a stopped instance sent a hello", round)
		}
	}
}
