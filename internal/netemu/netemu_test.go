package netemu

import (
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/pkt"
)

func newPair(t *testing.T) (*Network, *Endpoint, *Endpoint) {
	t.Helper()
	n := NewNetwork(clock.System())
	t.Cleanup(n.Close)
	a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b",
		MACA: pkt.LocalMAC(1), MACB: pkt.LocalMAC(2)})
	return n, a, b
}

func TestCableDelivers(t *testing.T) {
	_, a, b := newPair(t)
	got := make(chan []byte, 1)
	b.SetReceiver(func(f []byte) { got <- append([]byte(nil), f...) })
	if !a.Send([]byte("frame")) {
		t.Fatal("send failed")
	}
	select {
	case f := <-got:
		if string(f) != "frame" {
			t.Fatalf("got %q", f)
		}
	case <-time.After(time.Second):
		t.Fatal("frame not delivered")
	}
}

func TestCableInOrderDelivery(t *testing.T) {
	_, a, b := newPair(t)
	var mu sync.Mutex
	var got []byte
	done := make(chan struct{})
	b.SetReceiver(func(f []byte) {
		mu.Lock()
		got = append(got, f[0])
		if len(got) == 100 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		if !a.Send([]byte{byte(i)}) {
			t.Fatalf("send %d failed", i)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("not all frames arrived")
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("frame %d out of order: %d", i, v)
		}
	}
}

func TestCableSendCopiesBuffer(t *testing.T) {
	_, a, b := newPair(t)
	got := make(chan []byte, 1)
	b.SetReceiver(func(f []byte) { got <- append([]byte(nil), f...) })
	buf := []byte("orig")
	a.Send(buf)
	buf[0] = 'X' // mutate after send
	f := <-got
	if string(f) != "orig" {
		t.Fatalf("send did not copy: %q", f)
	}
}

func TestLinkDownDropsAndNotifies(t *testing.T) {
	_, a, b := newPair(t)
	var notified atomic.Int32
	a.OnLinkState(func(up bool) {
		if !up {
			notified.Add(1)
		}
	})
	b.OnLinkState(func(up bool) {
		if !up {
			notified.Add(1)
		}
	})
	rx := make(chan []byte, 1)
	b.SetReceiver(func(f []byte) { rx <- append([]byte(nil), f...) })

	a.SetLinkUp(false)
	if a.LinkUp() || b.LinkUp() {
		t.Fatal("link should be down on both ends")
	}
	if notified.Load() != 2 {
		t.Fatalf("notifications = %d, want 2", notified.Load())
	}
	if a.Send([]byte("x")) {
		t.Fatal("send on down link succeeded")
	}
	// Raising it again restores delivery.
	a.SetLinkUp(true)
	a.SetLinkUp(true) // idempotent, no extra notifications
	if !a.Send([]byte("y")) {
		t.Fatal("send after link up failed")
	}
	select {
	case <-rx:
	case <-time.After(time.Second):
		t.Fatal("no delivery after link restore")
	}
}

func TestLossRateDropsRoughly(t *testing.T) {
	n := NewNetwork(clock.System())
	defer n.Close()
	a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b", LossRate: 0.5, Seed: 42})
	var rx atomic.Int32
	b.SetReceiver(func([]byte) { rx.Add(1) })
	sent := 0
	for i := 0; i < 1000; i++ {
		if a.Send([]byte{1}) {
			sent++
		}
	}
	if sent < 350 || sent > 650 {
		t.Fatalf("with 50%% loss, %d/1000 sends succeeded", sent)
	}
	st := a.Stats()
	if st.TxPackets != uint64(sent) || st.Drops != uint64(1000-sent) {
		t.Fatalf("stats = %+v, sent=%d", st, sent)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := NewNetwork(clock.System())
	defer n.Close()
	a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b", Latency: 30 * time.Millisecond})
	got := make(chan time.Time, 1)
	b.SetReceiver(func([]byte) { got <- time.Now() })
	start := time.Now()
	a.Send([]byte("x"))
	select {
	case at := <-got:
		if d := at.Sub(start); d < 25*time.Millisecond {
			t.Fatalf("delivered after %v, want >= ~30ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
}

func TestInboxOverflowDrops(t *testing.T) {
	n := NewNetwork(clock.System())
	defer n.Close()
	a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b", InboxDepth: 4,
		Latency: 50 * time.Millisecond})
	b.SetReceiver(func([]byte) {})
	dropped := false
	for i := 0; i < 64; i++ {
		if !a.Send([]byte{byte(i)}) {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("tiny inbox with slow consumer never overflowed")
	}
}

func TestEndpointString(t *testing.T) {
	_, a, _ := newPair(t)
	if a.String() == "" || a.Name() != "a" {
		t.Fatal("identity accessors broken")
	}
}

// buildHostPair wires two hosts back-to-back on one cable (same subnet).
func buildHostPair(t *testing.T) (*Host, *Host) {
	t.Helper()
	n := NewNetwork(clock.System())
	t.Cleanup(n.Close)
	a, b := n.NewCable(CableOpts{NameA: "h1", NameB: "h2",
		MACA: pkt.LocalMAC(0xA), MACB: pkt.LocalMAC(0xB)})
	h1, err := NewHost(HostConfig{Name: "h1",
		Addr: netip.MustParsePrefix("10.0.0.1/24")}, a, n.Clock())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHost(HostConfig{Name: "h2",
		Addr: netip.MustParsePrefix("10.0.0.2/24")}, b, n.Clock())
	if err != nil {
		t.Fatal(err)
	}
	return h1, h2
}

func TestHostARPAndUDP(t *testing.T) {
	h1, h2 := buildHostPair(t)
	got := make(chan string, 1)
	h2.BindUDP(9000, func(src netip.Addr, srcPort uint16, payload []byte) {
		if src == h1.Addr() && srcPort == 1234 {
			got <- string(payload)
		}
	})
	if err := h1.SendUDP(h2.Addr(), 1234, 9000, []byte("hello-routed-world")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "hello-routed-world" {
			t.Fatalf("payload = %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not delivered")
	}
	// The ARP cache must now be warm on both sides (request learned + reply).
	if _, ok := h1.ARPCacheSnapshot()[h2.Addr()]; !ok {
		t.Fatal("h1 did not cache h2's MAC")
	}
	if _, ok := h2.ARPCacheSnapshot()[h1.Addr()]; !ok {
		t.Fatal("h2 did not learn h1's MAC from the request")
	}
}

func TestHostPing(t *testing.T) {
	h1, h2 := buildHostPair(t)
	d, err := h1.Ping(h2.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Fatalf("rtt = %v", d)
	}
}

func TestHostPingTimeout(t *testing.T) {
	h1, _ := buildHostPair(t)
	// 10.0.0.77 does not exist; ARP will fail first.
	_, err := h1.Ping(netip.MustParseAddr("10.0.0.77"), 100*time.Millisecond)
	if err == nil {
		t.Fatal("ping to ghost host succeeded")
	}
}

func TestHostOffLinkRequiresGateway(t *testing.T) {
	h1, _ := buildHostPair(t)
	err := h1.SendUDP(netip.MustParseAddr("192.168.99.1"), 1, 2, nil)
	if err == nil {
		t.Fatal("off-link send without gateway succeeded")
	}
}

func TestHostUDPUnbind(t *testing.T) {
	h1, h2 := buildHostPair(t)
	var hits atomic.Int32
	h2.BindUDP(7, func(netip.Addr, uint16, []byte) { hits.Add(1) })
	h2.BindUDP(7, nil)                       // unbind
	h1.SendUDP(h2.Addr(), 1, 7, []byte("x")) //nolint:errcheck
	time.Sleep(50 * time.Millisecond)
	if hits.Load() != 0 {
		t.Fatal("handler ran after unbind")
	}
}

func TestHostRejectsIPv6(t *testing.T) {
	n := NewNetwork(clock.System())
	defer n.Close()
	a, _ := n.NewCable(CableOpts{NameA: "x", NameB: "y"})
	_, err := NewHost(HostConfig{Name: "x",
		Addr: netip.MustParsePrefix("fd00::1/64")}, a, n.Clock())
	if err == nil {
		t.Fatal("IPv6 host accepted")
	}
}

func TestHostClosedSendFails(t *testing.T) {
	h1, h2 := buildHostPair(t)
	h1.Close()
	if err := h1.SendUDP(h2.Addr(), 1, 2, nil); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestARPConcurrentResolvers(t *testing.T) {
	h1, h2 := buildHostPair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := h1.Resolve(h2.Addr()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHostDatapathAllocBudget: a full-size datagram crosses SendUDP, the
// cable and the receiving host's stack up to the bound handler without one
// allocation — the frame is built in the pooled buffer the cable delivers,
// and every layer decodes into stack values. AllocsPerRun counts mallocs of
// the whole process, so the delivery goroutine's receive path is included.
func TestHostDatapathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	h1, h2 := buildHostPair(t)
	var got atomic.Uint64
	h2.BindUDP(7001, func(netip.Addr, uint16, []byte) { got.Add(1) })
	payload := make([]byte, 1472)
	sendOne := func() {
		want := got.Load() + 1
		if err := h1.SendUDP(h2.Addr(), 20001, 7001, payload); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(2 * time.Second); got.Load() < want; {
			if time.Now().After(deadline) {
				t.Fatal("datagram not delivered")
			}
			runtime.Gosched()
		}
	}
	sendOne() // ARP, pool warm-up
	if n := testing.AllocsPerRun(500, sendOne); n != 0 {
		t.Fatalf("SendUDP → cable → receive = %.2f allocs per 1472 B datagram, budget 0", n)
	}
}

// TestHostCountsDiscards: every frame addressed to the host that it drops
// for a failed decode or checksum shows in RxDiscards; frames for someone
// else and datagrams to an unbound port do not.
func TestHostCountsDiscards(t *testing.T) {
	h1, h2 := buildHostPair(t)
	delivered := make(chan string, 8)
	h2.BindUDP(7001, func(_ netip.Addr, _ uint16, p []byte) { delivered <- string(p) })
	raw := h1.ep // frames are put on the cable behind h1's back
	build := func(dstMAC pkt.MAC, dstIP netip.Addr, port uint16, payload string) []byte {
		u := &pkt.UDP{SrcPort: 1, DstPort: port, Payload: []byte(payload)}
		ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP, Src: h1.Addr(), Dst: dstIP, Payload: u.Marshal(h1.Addr(), dstIP)}
		return (&pkt.Frame{Dst: dstMAC, Src: h1.MAC(), Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	}
	flip := func(b []byte, at int) []byte { b[at] ^= 0x40; return b }
	last := func(b []byte) int { return len(b) - 1 }
	good := build(h2.MAC(), h2.Addr(), 7001, "intact")
	udpBit := build(h2.MAC(), h2.Addr(), 7001, "payload bit")
	icmp := (&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 1, Seq: 1, Payload: []byte("ping")}).Marshal()
	icmpIP := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr(), Payload: flip(icmp, last(icmp))}
	discarded := [][]byte{
		flip(udpBit, last(udpBit)), // UDP checksum
		flip(build(h2.MAC(), h2.Addr(), 7001, "ttl bit"), pkt.EthernetHeaderLen+8),                               // IPv4 header checksum
		(&pkt.Frame{Dst: h2.MAC(), Src: h1.MAC(), Type: pkt.EtherTypeIPv4, Payload: icmpIP.Marshal()}).Marshal(), // ICMP checksum
		(&pkt.Frame{Dst: pkt.BroadcastMAC, Src: h1.MAC(), Type: pkt.EtherTypeARP, Payload: make([]byte, 10)}).Marshal(),
		good[:10], // runt: no Ethernet header
	}
	otherMAC := build(pkt.LocalMAC(0xCC), h2.Addr(), 7001, "other mac")
	ignored := [][]byte{
		flip(otherMAC, last(otherMAC)),
		build(h2.MAC(), netip.MustParseAddr("10.0.0.77"), 7001, "other ip"),
		build(h2.MAC(), h2.Addr(), 7002, "unbound port"),
	}
	for _, f := range append(discarded, ignored...) {
		if !raw.Send(f) {
			t.Fatal("cable refused a frame")
		}
	}
	raw.Send(good) // in order behind the others: once it arrives they have all been handled
	select {
	case p := <-delivered:
		if p != "intact" {
			t.Fatalf("handler got %q: a discarded datagram was delivered", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("intact datagram not delivered")
	}
	if got, want := h2.RxDiscards(), uint64(len(discarded)); got != want {
		t.Fatalf("RxDiscards = %d, want %d", got, want)
	}
}
