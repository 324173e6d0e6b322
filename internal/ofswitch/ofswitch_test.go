package ofswitch

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// harness wires one switch with two data ports to a fake controller over
// net.Pipe and to two raw endpoints acting as hosts.
type harness struct {
	t    *testing.T
	sw   *Switch
	net  *netemu.Network
	h1   *netemu.Endpoint // far end of port 1
	h2   *netemu.Endpoint // far end of port 2
	conn net.Conn         // controller side of the pipe
	msgs chan openflow.Message
}

func newHarness(t *testing.T, clk clock.Clock) *harness {
	t.Helper()
	if clk == nil {
		clk = clock.System()
	}
	n := netemu.NewNetwork(clk)
	t.Cleanup(n.Close)
	sw := New(Config{DPID: 0x2a, Name: "s1", Clock: clk, MissSendLen: 64})
	p1, h1 := n.NewCable(netemu.CableOpts{NameA: "s1:1", NameB: "h1",
		MACA: pkt.LocalMAC(0x11), MACB: pkt.LocalMAC(0xA1)})
	p2, h2 := n.NewCable(netemu.CableOpts{NameA: "s1:2", NameB: "h2",
		MACA: pkt.LocalMAC(0x12), MACB: pkt.LocalMAC(0xA2)})
	if err := sw.AttachPort(1, p1); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachPort(2, p2); err != nil {
		t.Fatal(err)
	}
	swConn, ctlConn := net.Pipe()
	if err := sw.Start(swConn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.Stop)
	h := &harness{t: t, sw: sw, net: n, h1: h1, h2: h2, conn: ctlConn,
		msgs: make(chan openflow.Message, 256)}
	go func() { // the harness keeps what it reads, so it decodes owned messages
		dec := openflow.NewDecoder(ctlConn)
		for {
			frame, err := dec.Next()
			if err != nil {
				close(h.msgs)
				return
			}
			m, err := openflow.Unmarshal(frame)
			if err != nil {
				close(h.msgs)
				return
			}
			h.msgs <- m
		}
	}()
	// Consume the switch's HELLO and answer it.
	if m := h.expect(openflow.TypeHello); m == nil {
		t.Fatal("no hello from switch")
	}
	h.send(&openflow.Hello{})
	return h
}

func (h *harness) send(m openflow.Message) {
	h.t.Helper()
	if _, err := h.conn.Write(m.AppendTo(nil)); err != nil {
		h.t.Fatalf("controller send: %v", err)
	}
}

// expect waits for the next message of the given type, discarding others.
func (h *harness) expect(t openflow.Type) openflow.Message {
	h.t.Helper()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case m, ok := <-h.msgs:
			if !ok {
				h.t.Fatal("connection closed while waiting")
			}
			if m.MsgType() == t {
				return m
			}
		case <-deadline:
			h.t.Fatalf("timed out waiting for %v", t)
		}
	}
}

// expectFrame waits for a frame on ep.
func expectFrame(t *testing.T, ch <-chan []byte, what string) []byte {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(3 * time.Second):
		t.Fatalf("no frame: %s", what)
		return nil
	}
}

func capture(ep *netemu.Endpoint) <-chan []byte {
	ch := make(chan []byte, 64)
	ep.SetReceiver(func(f []byte) { ch <- append([]byte(nil), f...) })
	return ch
}

func udpFrame(src, dst pkt.MAC, srcIP, dstIP string, sport, dport uint16, payload string) []byte {
	s, d := netip.MustParseAddr(srcIP), netip.MustParseAddr(dstIP)
	u := &pkt.UDP{SrcPort: sport, DstPort: dport, Payload: []byte(payload)}
	ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP, Src: s, Dst: d,
		Payload: u.Marshal(s, d)}
	f := &pkt.Frame{Dst: dst, Src: src, Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
	return f.Marshal()
}

func TestHandshakeAndFeatures(t *testing.T) {
	h := newHarness(t, nil)
	req := &openflow.FeaturesRequest{}
	req.SetXID(77)
	h.send(req)
	m := h.expect(openflow.TypeFeaturesReply).(*openflow.FeaturesReply)
	if m.XID() != 77 || m.DatapathID != 0x2a || len(m.Ports) != 2 {
		t.Fatalf("features = %+v", m)
	}
	if m.Ports[0].PortNo != 1 || m.Ports[1].PortNo != 2 {
		t.Fatalf("port order = %v,%v", m.Ports[0].PortNo, m.Ports[1].PortNo)
	}
	if m.Ports[0].Name != "s1-eth1" {
		t.Fatalf("port name = %q", m.Ports[0].Name)
	}
}

func TestEchoKeepalive(t *testing.T) {
	h := newHarness(t, nil)
	req := &openflow.EchoRequest{Data: []byte("ka")}
	req.SetXID(5)
	h.send(req)
	rep := h.expect(openflow.TypeEchoReply).(*openflow.EchoReply)
	if rep.XID() != 5 || string(rep.Data) != "ka" {
		t.Fatalf("echo = %+v", rep)
	}
}

func TestGetSetConfig(t *testing.T) {
	h := newHarness(t, nil)
	h.send(&openflow.SetConfig{MissSendLen: 100})
	h.send(&openflow.GetConfigRequest{})
	rep := h.expect(openflow.TypeGetConfigReply).(*openflow.GetConfigReply)
	if rep.MissSendLen != 100 {
		t.Fatalf("miss_send_len = %d", rep.MissSendLen)
	}
}

func TestPacketInOnMissIsBufferedAndTruncated(t *testing.T) {
	h := newHarness(t, nil)
	long := make([]byte, 300)
	f := &pkt.Frame{Dst: pkt.LocalMAC(0xA2), Src: pkt.LocalMAC(0xA1),
		Type: pkt.EtherTypeIPv4, Payload: long}
	h.h1.Send(f.Marshal())
	pin := h.expect(openflow.TypePacketIn).(*openflow.PacketIn)
	if pin.InPort != 1 || pin.Reason != openflow.PacketInReasonNoMatch {
		t.Fatalf("packet-in = %+v", pin)
	}
	if pin.BufferID == openflow.NoBuffer {
		t.Fatal("expected buffered packet-in")
	}
	if len(pin.Data) != 64 {
		t.Fatalf("miss data len = %d, want 64 (miss_send_len)", len(pin.Data))
	}
	if int(pin.TotalLen) != 14+300 {
		t.Fatalf("total len = %d", pin.TotalLen)
	}
}

func TestFlowModForwardsTraffic(t *testing.T) {
	h := newHarness(t, nil)
	rx2 := capture(h.h2)
	fm := &openflow.FlowMod{
		Match:    openflow.MatchAll(),
		Command:  openflow.FlowModAdd,
		Priority: 100, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
	h.send(fm)
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)

	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 1, 2, "pp")
	h.h1.Send(frame)
	got := expectFrame(t, rx2, "forwarded frame")
	if string(got) != string(frame) {
		t.Fatal("frame modified by pure output action")
	}
	flows := h.sw.FlowTable()
	if len(flows) != 1 || flows[0].Packets != 1 {
		t.Fatalf("flow stats = %+v", flows)
	}
}

func TestPriorityWins(t *testing.T) {
	h := newHarness(t, nil)
	rx1 := capture(h.h1)
	rx2 := capture(h.h2)
	// Low priority: everything to port 2. High priority: UDP back out port 1.
	low := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	hiMatch := openflow.MatchAll()
	hiMatch.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto
	hiMatch.DlType = uint16(pkt.EtherTypeIPv4)
	hiMatch.NwProto = uint8(pkt.ProtoUDP)
	hi := &openflow.FlowMod{Match: hiMatch, Command: openflow.FlowModAdd,
		Priority: 200, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortInPort}}}
	h.send(low)
	h.send(hi)
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)

	udp := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 5, 6, "x")
	h.h1.Send(udp)
	expectFrame(t, rx1, "udp hairpinned to in-port by high-priority flow")

	arp := &pkt.Frame{Dst: pkt.BroadcastMAC, Src: pkt.LocalMAC(0xA1),
		Type: pkt.EtherTypeARP, Payload: pkt.NewARPRequest(pkt.LocalMAC(0xA1),
			netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")).Marshal()}
	h.h1.Send(arp.Marshal())
	expectFrame(t, rx2, "arp forwarded by low-priority flow")
}

func TestRewriteActionsFixChecksums(t *testing.T) {
	h := newHarness(t, nil)
	rx2 := capture(h.h2)
	newDst := pkt.LocalMAC(0xDD)
	fm := &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 1,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{
			&openflow.ActionSetDlDst{Addr: newDst},
			&openflow.ActionSetNwDst{Addr: [4]byte{192, 168, 9, 9}},
			&openflow.ActionSetTpDst{Port: 9999},
			&openflow.ActionOutput{Port: 2},
		},
	}
	h.send(fm)
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	h.h1.Send(udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 7, 8, "data"))

	got := expectFrame(t, rx2, "rewritten frame")
	f, err := pkt.DecodeFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dst != newDst {
		t.Fatalf("dl_dst = %v", f.Dst)
	}
	ip, err := pkt.DecodeIPv4(f.Payload) // verifies IP checksum
	if err != nil {
		t.Fatal(err)
	}
	if ip.Dst != netip.MustParseAddr("192.168.9.9") {
		t.Fatalf("nw_dst = %v", ip.Dst)
	}
	u, err := pkt.DecodeUDP(ip.Payload, ip.Src, ip.Dst) // verifies UDP checksum
	if err != nil {
		t.Fatal(err)
	}
	if u.DstPort != 9999 || string(u.Payload) != "data" {
		t.Fatalf("udp = %+v", u)
	}
}

func TestPacketOutInlineAndFlood(t *testing.T) {
	h := newHarness(t, nil)
	rx1 := capture(h.h1)
	rx2 := capture(h.h2)
	frame := udpFrame(pkt.LocalMAC(1), pkt.LocalMAC(2), "1.1.1.1", "2.2.2.2", 1, 2, "po")
	po := &openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
		Data:    frame}
	h.send(po)
	expectFrame(t, rx1, "flood to port 1")
	expectFrame(t, rx2, "flood to port 2")
}

func TestPacketOutBufferRelease(t *testing.T) {
	h := newHarness(t, nil)
	rx2 := capture(h.h2)
	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 3, 4, "buffered")
	h.h1.Send(frame)
	pin := h.expect(openflow.TypePacketIn).(*openflow.PacketIn)
	if pin.BufferID == openflow.NoBuffer {
		t.Fatal("expected buffered")
	}
	po := &openflow.PacketOut{BufferID: pin.BufferID, InPort: pin.InPort,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	h.send(po)
	got := expectFrame(t, rx2, "released buffer")
	if string(got) != string(frame) {
		t.Fatal("released frame differs")
	}
	// Releasing again must produce a buffer-unknown error.
	h.send(po)
	em := h.expect(openflow.TypeError).(*openflow.ErrorMsg)
	if em.ErrType != openflow.ErrTypeBadRequest || em.Code != openflow.ErrCodeBadRequestBufUnknown {
		t.Fatalf("error = %+v", em)
	}
}

func TestFlowModBufferRelease(t *testing.T) {
	h := newHarness(t, nil)
	rx2 := capture(h.h2)
	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 3, 4, "fmrel")
	h.h1.Send(frame)
	pin := h.expect(openflow.TypePacketIn).(*openflow.PacketIn)
	fm := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 1, BufferID: pin.BufferID, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	h.send(fm)
	got := expectFrame(t, rx2, "buffer released via flow-mod")
	if string(got) != string(frame) {
		t.Fatal("released frame differs")
	}
}

func TestFlowDeleteSendsFlowRemoved(t *testing.T) {
	h := newHarness(t, nil)
	fm := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 5, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Flags:   openflow.FlowModFlagSendFlowRem,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	h.send(fm)
	del := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModDelete,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone}
	h.send(del)
	fr := h.expect(openflow.TypeFlowRemoved).(*openflow.FlowRemoved)
	if fr.Reason != openflow.FlowRemovedDelete || fr.Priority != 5 {
		t.Fatalf("flow removed = %+v", fr)
	}
	if h.sw.NumFlows() != 0 {
		t.Fatal("table not empty after delete")
	}
}

func TestFlowDeleteOutPortFilter(t *testing.T) {
	h := newHarness(t, nil)
	for _, port := range []uint16{1, 2} {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardInPort
		m.InPort = port // distinct matches so they coexist
		h.send(&openflow.FlowMod{Match: m, Command: openflow.FlowModAdd,
			Priority: 5, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: port}}})
	}
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	if h.sw.NumFlows() != 2 {
		t.Fatalf("flows = %d", h.sw.NumFlows())
	}
	// Delete only flows outputting to port 2.
	h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModDelete,
		BufferID: openflow.NoBuffer, OutPort: 2})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	flows := h.sw.FlowTable()
	if len(flows) != 1 {
		t.Fatalf("flows after filtered delete = %d", len(flows))
	}
	if out := flows[0].Actions[0].(*openflow.ActionOutput); out.Port != 1 {
		t.Fatalf("survivor outputs to %d", out.Port)
	}
}

func TestIdleTimeoutExpiry(t *testing.T) {
	clk := clock.Scaled(50)
	h := newHarness(t, clk)
	fm := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 5, IdleTimeout: 2, BufferID: openflow.NoBuffer,
		OutPort: openflow.PortNone, Flags: openflow.FlowModFlagSendFlowRem,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	h.send(fm)
	fr := h.expect(openflow.TypeFlowRemoved).(*openflow.FlowRemoved)
	if fr.Reason != openflow.FlowRemovedIdleTimeout {
		t.Fatalf("reason = %d", fr.Reason)
	}
	if h.sw.NumFlows() != 0 {
		t.Fatal("expired flow still installed")
	}
}

func TestHardTimeoutExpiry(t *testing.T) {
	clk := clock.Scaled(50)
	h := newHarness(t, clk)
	fm := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 5, HardTimeout: 2, BufferID: openflow.NoBuffer,
		OutPort: openflow.PortNone, Flags: openflow.FlowModFlagSendFlowRem,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	h.send(fm)
	fr := h.expect(openflow.TypeFlowRemoved).(*openflow.FlowRemoved)
	if fr.Reason != openflow.FlowRemovedHardTimeout {
		t.Fatalf("reason = %d", fr.Reason)
	}
}

// TestExpiryLoopSleepsAndWakes: the expiry loop sleeps while no entry has a
// timeout and wakes for the next one, so a timed flow added after another
// expired still expires; untimed flows never count.
func TestExpiryLoopSleepsAndWakes(t *testing.T) {
	h := newHarness(t, clock.Scaled(50))
	timed := func(prio uint16) *openflow.FlowMod {
		return &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
			Priority: prio, IdleTimeout: 1, BufferID: openflow.NoBuffer,
			OutPort: openflow.PortNone, Flags: openflow.FlowModFlagSendFlowRem,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	}
	untimed := timed(9)
	untimed.IdleTimeout = 0
	h.send(untimed)
	for prio := uint16(5); prio <= 6; prio++ {
		h.send(timed(prio))
		if fr := h.expect(openflow.TypeFlowRemoved).(*openflow.FlowRemoved); fr.Priority != prio {
			t.Fatalf("removed priority %d, want %d", fr.Priority, prio)
		}
		if h.sw.table.hasTimed() {
			t.Fatal("timed entries counted after the last one expired")
		}
	}
	if h.sw.NumFlows() != 1 {
		t.Fatalf("%d flows left, want the untimed one", h.sw.NumFlows())
	}
}

// TestIdleSwitchArmsNoTimer: a running switch with no timed entry and no
// monitoring program holds no timer, so it does not wake; a timed entry
// arms the expiry loop's.
func TestIdleSwitchArmsNoTimer(t *testing.T) {
	clk := clock.NewFake()
	h := newHarness(t, clk)
	h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 5, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	if n := clk.Pending(); n != 0 {
		t.Fatalf("idle switch holds %d armed timers, want 0", n)
	}
	h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 6, IdleTimeout: 1, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("switch with a timed entry holds %d armed timers, want 1", clk.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlowCreatedAtItsReadsClock: the session stamps the messages of one
// transport read with one clock reading, so a flow added in a later read,
// after the clock moved, is created at the later time.
func TestFlowCreatedAtItsReadsClock(t *testing.T) {
	clk := clock.NewFake()
	h := newHarness(t, clk)
	add := func(priority uint16) {
		h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
			Priority: priority, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
		h.send(&openflow.BarrierRequest{})
		h.expect(openflow.TypeBarrierReply)
	}
	add(5)
	clk.Advance(3 * time.Second)
	add(6)
	ages := map[uint16]time.Duration{}
	for _, fi := range h.sw.FlowTable() {
		ages[fi.Priority] = fi.Age
	}
	if ages[5] != 3*time.Second || ages[6] != 0 {
		t.Fatalf("flow ages %v, want priority 5 at 3s and priority 6 at 0", ages)
	}
}

func TestOverlapCheck(t *testing.T) {
	h := newHarness(t, nil)
	a := openflow.MatchAll()
	a.Wildcards &^= openflow.WildcardDlType
	a.DlType = 0x0800
	h.send(&openflow.FlowMod{Match: a, Command: openflow.FlowModAdd, Priority: 7,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 1}}})
	// Wider match at same priority overlaps.
	h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 7, Flags: openflow.FlowModFlagCheckOverlap,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
	em := h.expect(openflow.TypeError).(*openflow.ErrorMsg)
	if em.ErrType != openflow.ErrTypeFlowModFailed || em.Code != openflow.ErrCodeFlowModOverlap {
		t.Fatalf("error = %+v", em)
	}
	if h.sw.NumFlows() != 1 {
		t.Fatalf("flows = %d", h.sw.NumFlows())
	}
}

func TestModifyActions(t *testing.T) {
	h := newHarness(t, nil)
	rx1 := capture(h.h1)
	rx2 := capture(h.h2)
	h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 5, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	h.h1.Send(udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 1, 2, "a"))
	expectFrame(t, rx2, "pre-modify path")

	h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModModify,
		Priority: 5, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortInPort}}})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	h.h1.Send(udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 1, 2, "b"))
	expectFrame(t, rx1, "post-modify hairpin")
}

func TestModifyMissBehavesAsAdd(t *testing.T) {
	h := newHarness(t, nil)
	h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModModify,
		Priority: 9, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	if h.sw.NumFlows() != 1 {
		t.Fatalf("flows = %d", h.sw.NumFlows())
	}
}

func TestStatsEndToEnd(t *testing.T) {
	h := newHarness(t, nil)
	h.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 3, Cookie: 0xFEED, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	h.h1.Send(udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 1, 2, "st"))

	h.send(&openflow.StatsRequest{StatsType: openflow.StatsDesc})
	desc := h.expect(openflow.TypeStatsReply).(*openflow.StatsReply)
	if desc.Desc == nil || desc.Desc.Datapath != "s1" {
		t.Fatalf("desc = %+v", desc.Desc)
	}

	h.send(&openflow.StatsRequest{StatsType: openflow.StatsFlow,
		Flow: &openflow.FlowStatsRequest{Match: openflow.MatchAll(), TableID: 0xff,
			OutPort: openflow.PortNone}})
	fs := h.expect(openflow.TypeStatsReply).(*openflow.StatsReply)
	if len(fs.Flows) != 1 || fs.Flows[0].Cookie != 0xFEED {
		t.Fatalf("flow stats = %+v", fs.Flows)
	}

	h.send(&openflow.StatsRequest{StatsType: openflow.StatsTable})
	ts := h.expect(openflow.TypeStatsReply).(*openflow.StatsReply)
	if len(ts.Tables) != 1 || ts.Tables[0].ActiveCount != 1 {
		t.Fatalf("table stats = %+v", ts.Tables)
	}

	h.send(&openflow.StatsRequest{StatsType: openflow.StatsPort,
		Port: &openflow.PortStatsRequest{PortNo: openflow.PortNone}})
	ps := h.expect(openflow.TypeStatsReply).(*openflow.StatsReply)
	if len(ps.Ports) != 2 {
		t.Fatalf("port stats = %+v", ps.Ports)
	}
}

// TestFlowStatsSplitAcrossParts: a table too large for one 64 KiB message is
// answered as a multipart reply, MORE on every part but the last, and the
// parts together list the whole table once.
func TestFlowStatsSplitAcrossParts(t *testing.T) {
	h := newHarness(t, nil)
	const n = 2000
	for i := 0; i < n; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = 0x0800
		m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), 32))
		h.send(&openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: 132,
			Cookie: uint64(i), BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
	}
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)

	req := &openflow.StatsRequest{StatsType: openflow.StatsFlow}
	req.SetXID(77)
	h.send(req)
	seen := make(map[uint64]bool, n)
	parts := 0
	for {
		rep := h.expect(openflow.TypeStatsReply).(*openflow.StatsReply)
		parts++
		if rep.XID() != 77 {
			t.Fatalf("part %d has xid %d", parts, rep.XID())
		}
		for _, f := range rep.Flows {
			if seen[f.Cookie] {
				t.Fatalf("flow %d listed twice", f.Cookie)
			}
			seen[f.Cookie] = true
		}
		if rep.Flags&openflow.StatsReplyFlagMore == 0 {
			break
		}
	}
	if parts < 2 {
		t.Fatalf("%d flows answered in %d part", n, parts)
	}
	table := h.sw.FlowTable()
	if len(table) != n || len(seen) != n {
		t.Fatalf("table holds %d flows, the parts list %d; want %d", len(table), len(seen), n)
	}
	for _, fi := range table {
		if !seen[fi.Cookie] {
			t.Fatalf("flow %d missing from the parts", fi.Cookie)
		}
	}
}

func TestPortStatusOnLinkChange(t *testing.T) {
	h := newHarness(t, nil)
	h.h1.SetLinkUp(false)
	ps := h.expect(openflow.TypePortStatus).(*openflow.PortStatus)
	if ps.Desc.PortNo != 1 || ps.Desc.State&openflow.PortStateDown == 0 {
		t.Fatalf("port status = %+v", ps)
	}
	h.h1.SetLinkUp(true)
	ps = h.expect(openflow.TypePortStatus).(*openflow.PortStatus)
	if ps.Desc.State&openflow.PortStateDown != 0 {
		t.Fatal("port still down after link restore")
	}
}

func TestUnknownMessageGetsError(t *testing.T) {
	h := newHarness(t, nil)
	v := &openflow.Vendor{VendorID: 42, Data: []byte("???")}
	v.SetXID(123)
	h.send(v)
	em := h.expect(openflow.TypeError).(*openflow.ErrorMsg)
	if em.XID() != 123 || em.ErrType != openflow.ErrTypeBadRequest {
		t.Fatalf("error = %+v xid=%d", em, em.XID())
	}
}

func TestAttachPortValidation(t *testing.T) {
	sw := New(Config{DPID: 1})
	n := netemu.NewNetwork(nil)
	defer n.Close()
	a, _ := n.NewCable(netemu.CableOpts{})
	if err := sw.AttachPort(0, a); err == nil {
		t.Fatal("port 0 accepted")
	}
	if err := sw.AttachPort(openflow.PortFlood, a); err == nil {
		t.Fatal("reserved port accepted")
	}
	if err := sw.AttachPort(1, a); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachPort(1, a); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if len(sw.Ports()) != 1 {
		t.Fatal("port list wrong")
	}
}

func TestDoubleStartFails(t *testing.T) {
	sw := New(Config{DPID: 9})
	c1, _ := net.Pipe()
	defer c1.Close()
	go func() { // drain the hello
		openflow.NewDecoder(c1).Decode() //nolint:errcheck
	}()
	swSide, ctl := net.Pipe()
	go func() {
		dec := openflow.NewDecoder(ctl)
		for {
			if _, err := dec.Decode(); err != nil {
				return
			}
		}
	}()
	if err := sw.Start(swSide); err != nil {
		t.Fatal(err)
	}
	defer sw.Stop()
	if err := sw.Start(swSide); err == nil {
		t.Fatal("second start succeeded")
	}
}

// TestRebootWipesDataplaneState pins crash semantics: Reboot drops every
// installed flow (no flow-removed notifications — a crashed switch sends
// nothing) and forgets buffered packets, so a buffer release after the
// crash is an error, not a stale transmission.
func TestRebootWipesDataplaneState(t *testing.T) {
	h := newHarness(t, nil)
	h.send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Flags:    openflow.FlowModFlagSendFlowRem,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	if h.sw.NumFlows() != 1 {
		t.Fatalf("flows = %d, want 1", h.sw.NumFlows())
	}
	// Park a packet in the buffer pool via a table miss... the flow above
	// matches everything, so delete it first to force the punt.
	h.send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModDelete,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
	})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	h.h1.Send(udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2),
		"10.0.0.1", "10.0.0.2", 1000, 2000, "buffered"))
	pi := h.expect(openflow.TypePacketIn).(*openflow.PacketIn)

	// Reinstall a flow so Reboot has both a table and a buffer to wipe.
	h.send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Flags:    openflow.FlowModFlagSendFlowRem,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	})
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)

	h.sw.Reboot()
	if h.sw.NumFlows() != 0 {
		t.Fatalf("flows after reboot = %d, want 0", h.sw.NumFlows())
	}
	// The control session died with the crash.
	if _, ok := <-h.msgs; ok {
		// Drain anything queued before the close; the channel must close.
		for range h.msgs {
		}
	}
	// A Start-managed switch stays down after Reboot (only StartDialer
	// reconnects); releasing the pre-crash buffer must go nowhere.
	out := capture(h.h2)
	if got, ok := h.sw.takeBuffer(pi.BufferID); ok {
		t.Fatalf("buffer %d survived the reboot: %+v", pi.BufferID, got)
	}
	select {
	case f := <-out:
		t.Fatalf("unexpected frame after reboot: %d bytes", len(f))
	case <-time.After(50 * time.Millisecond):
	}
}

// TestCorruptPayloadForwardedThenDroppedAtHost: host → switch → host with a
// datagram whose payload lost one bit in flight. The switch classifies on
// headers only, so its UDP-port rule still matches and forwards the frame;
// the receiving host is the one L4 verifier on the path, so the datagram
// never reaches the bound handler and shows in the host's discard counter.
func TestCorruptPayloadForwardedThenDroppedAtHost(t *testing.T) {
	h := newHarness(t, nil)
	mkHost := func(name, addr string, ep *netemu.Endpoint) *netemu.Host {
		host, err := netemu.NewHost(netemu.HostConfig{Name: name, Addr: netip.MustParsePrefix(addr)}, ep, nil)
		if err != nil {
			t.Fatal(err)
		}
		return host
	}
	src, dst := mkHost("h1", "10.0.0.1/24", h.h1), mkHost("h2", "10.0.0.2/24", h.h2)
	delivered := make(chan string, 4)
	dst.BindUDP(7001, func(_ netip.Addr, _ uint16, p []byte) { delivered <- string(p) })

	rule := func(m openflow.Match, out uint16) *openflow.FlowMod {
		return &openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: 100,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: out}}}
	}
	udp7001 := openflow.MatchAll()
	udp7001.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto | openflow.WildcardTpDst
	udp7001.DlType, udp7001.NwProto, udp7001.TpDst = uint16(pkt.EtherTypeIPv4), uint8(pkt.ProtoUDP), 7001
	h.send(rule(udp7001, 2))
	for in, out := range map[uint16]uint16{1: 2, 2: 1} { // ARP both ways
		arp := openflow.MatchAll()
		arp.Wildcards &^= openflow.WildcardDlType | openflow.WildcardInPort
		arp.DlType, arp.InPort = uint16(pkt.EtherTypeARP), in
		h.send(rule(arp, out))
	}
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)

	dstMAC, err := src.Resolve(dst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := udpFrame(src.MAC(), dstMAC, "10.0.0.1", "10.0.0.2", 20001, 7001, "one bit of this payload flips")
	corrupt[len(corrupt)-3] ^= 0x10
	if !h.h1.Send(corrupt) {
		t.Fatal("cable refused the frame")
	}
	// An intact datagram follows on the same path: when it arrives, the
	// corrupt one ahead of it has been through the switch and the host.
	if err := src.SendUDP(dst.Addr(), 20001, 7001, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-delivered:
		if p != "intact" {
			t.Fatalf("handler got %q: the corrupt datagram was delivered", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("intact datagram not delivered")
	}
	if got := dst.RxDiscards(); got != 1 {
		t.Fatalf("host RxDiscards = %d, want 1", got)
	}
	var matched uint64
	for _, fi := range h.sw.FlowTable() {
		if fi.Match == udp7001 {
			matched = fi.Packets
		}
	}
	if matched != 2 {
		t.Fatalf("UDP-port rule matched %d packets, want 2: the switch did not forward the corrupt frame by its ports", matched)
	}
	select {
	case p := <-delivered:
		t.Fatalf("extra delivery %q", p)
	default:
	}
}
