package flowvisor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/ctlkit"
	"routeflow/internal/netemu"
	"routeflow/internal/ofswitch"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// stack wires: switch --- flowvisor --- {topo controller, rf controller}.
type stack struct {
	t       *testing.T
	fv      *FlowVisor
	topo    *ctlkit.Controller
	rf      *ctlkit.Controller
	sw      *ofswitch.Switch
	far     []*netemu.Endpoint // far ends of the switch's two data ports
	topoPIs chan *openflow.PacketIn
	rfPIs   chan *openflow.PacketIn
	topoPSs chan *openflow.PortStatus
	rfPSs   chan *openflow.PortStatus
	rfErrs  chan *openflow.ErrorMsg
}

// keepPacketIn copies a packet-in the controller lent to its callback.
func keepPacketIn(pi *openflow.PacketIn) *openflow.PacketIn {
	cp := *pi
	cp.Data = bytes.Clone(pi.Data)
	return &cp
}

func newStack(t *testing.T) *stack {
	t.Helper()
	st := &stack{t: t,
		topoPIs: make(chan *openflow.PacketIn, 64),
		rfPIs:   make(chan *openflow.PacketIn, 64),
		topoPSs: make(chan *openflow.PortStatus, 16),
		rfPSs:   make(chan *openflow.PortStatus, 16),
		rfErrs:  make(chan *openflow.ErrorMsg, 16),
	}
	topoL := ctlkit.NewMemListener("topo")
	rfL := ctlkit.NewMemListener("rf")
	t.Cleanup(func() { topoL.Close(); rfL.Close() })

	st.topo = ctlkit.New("topo", nil, ctlkit.Callbacks{
		PacketIn:   func(_ *ctlkit.SwitchConn, pi *openflow.PacketIn) { st.topoPIs <- keepPacketIn(pi) },
		PortStatus: func(_ *ctlkit.SwitchConn, ps *openflow.PortStatus) { st.topoPSs <- ps },
	})
	st.rf = ctlkit.New("rf", nil, ctlkit.Callbacks{
		PacketIn:   func(_ *ctlkit.SwitchConn, pi *openflow.PacketIn) { st.rfPIs <- keepPacketIn(pi) },
		PortStatus: func(_ *ctlkit.SwitchConn, ps *openflow.PortStatus) { st.rfPSs <- ps },
		Error:      func(_ *ctlkit.SwitchConn, em *openflow.ErrorMsg) { st.rfErrs <- em },
	})
	go st.topo.Serve(topoL)
	go st.rf.Serve(rfL)
	t.Cleanup(st.topo.Stop)
	t.Cleanup(st.rf.Stop)

	st.fv = New("fv", []Slice{
		LLDPSlice("topo", topoL.Dial),
		DefaultSlice("rf", rfL.Dial),
	})
	fvL := ctlkit.NewMemListener("fv")
	t.Cleanup(func() { fvL.Close() })
	go st.fv.Serve(fvL)
	t.Cleanup(st.fv.Stop)

	n := netemu.NewNetwork(clock.System())
	t.Cleanup(n.Close)
	st.sw = ofswitch.New(ofswitch.Config{DPID: 0xD1, Name: "d1"})
	for i := uint16(1); i <= 2; i++ {
		a, b := n.NewCable(netemu.CableOpts{
			NameA: "sw", NameB: "far",
			MACA: pkt.LocalMAC(uint64(0xD100 | i)), MACB: pkt.LocalMAC(uint64(0xEE00 | i))})
		if err := st.sw.AttachPort(i, a); err != nil {
			t.Fatal(err)
		}
		st.far = append(st.far, b)
	}
	conn, err := fvL.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.sw.Start(conn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.sw.Stop)

	waitFor(t, "both controllers see the switch", func() bool {
		return st.topo.NumSwitches() == 1 && st.rf.NumSwitches() == 1
	})
	return st
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func lldpFrame(dpid uint64, port uint16) []byte {
	f := &pkt.Frame{Dst: pkt.LLDPMulticast, Src: pkt.LocalMAC(1),
		Type: pkt.EtherTypeLLDP, Payload: pkt.NewLLDP(dpid, port, 60).Marshal()}
	return f.Marshal()
}

func arpFrame() []byte {
	f := &pkt.Frame{Dst: pkt.BroadcastMAC, Src: pkt.LocalMAC(2),
		Type: pkt.EtherTypeARP,
		Payload: pkt.NewARPRequest(pkt.LocalMAC(2), netip.MustParseAddr("10.0.0.1"),
			netip.MustParseAddr("10.0.0.2")).Marshal()}
	return f.Marshal()
}

func TestBothControllersHandshakeThroughProxy(t *testing.T) {
	st := newStack(t)
	tc, _ := st.topo.Switch(0xD1)
	rc, _ := st.rf.Switch(0xD1)
	if tc.DPID() != 0xD1 || rc.DPID() != 0xD1 {
		t.Fatal("dpid mismatch through proxy")
	}
	if len(tc.Features().Ports) != 2 || len(rc.Features().Ports) != 2 {
		t.Fatal("port lists lost in proxy")
	}
}

func TestPacketInSlicing(t *testing.T) {
	st := newStack(t)
	// LLDP in on port 1 → topology slice only.
	st.far[0].Send(lldpFrame(0x99, 4))
	select {
	case pi := <-st.topoPIs:
		if pi.InPort != 1 {
			t.Fatalf("in_port = %d", pi.InPort)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("topology controller did not get the LLDP packet-in")
	}
	select {
	case <-st.rfPIs:
		t.Fatal("rf controller received LLDP")
	case <-time.After(50 * time.Millisecond):
	}

	// ARP in on port 2 → rf slice only.
	st.far[1].Send(arpFrame())
	select {
	case pi := <-st.rfPIs:
		if pi.InPort != 2 {
			t.Fatalf("in_port = %d", pi.InPort)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("rf controller did not get the ARP packet-in")
	}
	select {
	case <-st.topoPIs:
		t.Fatal("topology controller received ARP")
	case <-time.After(50 * time.Millisecond):
	}

	c, _ := st.fv.Counters("topo")
	if c.PacketIns != 1 {
		t.Fatalf("topo packet-ins = %d", c.PacketIns)
	}
}

func TestWritePolicyEnforced(t *testing.T) {
	st := newStack(t)
	fm := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 1, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}

	// The topology slice may not program flows: expect an EPERM error reply.
	tc, _ := st.topo.Switch(0xD1)
	fmCopy := *fm
	rep, err := tc.Request(&fmCopy)
	if err == nil {
		t.Fatalf("flow-mod through LLDP slice succeeded: %v", rep)
	}
	em, ok := rep.(*openflow.ErrorMsg)
	if !ok || em.Code != openflow.ErrCodeBadRequestEperm {
		t.Fatalf("reply = %#v", rep)
	}
	if st.sw.NumFlows() != 0 {
		t.Fatal("flow installed despite policy")
	}
	c, _ := st.fv.Counters("topo")
	if c.Denied != 1 {
		t.Fatalf("denied = %d", c.Denied)
	}

	// The rf slice may.
	rc, _ := st.rf.Switch(0xD1)
	if err := rc.Send(fm); err != nil {
		t.Fatal(err)
	}
	if err := rc.Barrier(); err != nil {
		t.Fatal(err)
	}
	if st.sw.NumFlows() != 1 {
		t.Fatalf("flows = %d", st.sw.NumFlows())
	}
}

func TestConcurrentStatsXIDDisambiguation(t *testing.T) {
	st := newStack(t)
	tc, _ := st.topo.Switch(0xD1)
	rc, _ := st.rf.Switch(0xD1)
	// Fire many concurrent requests from both slices with colliding local
	// XIDs; every reply must come back to the right requester.
	type res struct {
		who string
		err error
	}
	results := make(chan res, 40)
	for i := 0; i < 20; i++ {
		go func() {
			_, err := tc.Request(&openflow.StatsRequest{StatsType: openflow.StatsDesc})
			results <- res{"topo", err}
		}()
		go func() {
			_, err := rc.Request(&openflow.StatsRequest{StatsType: openflow.StatsTable})
			results <- res{"rf", err}
		}()
	}
	for i := 0; i < 40; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("%s request %d: %v", r.who, i, r.err)
		}
	}
}

// pendingXIDs returns how many proxy transaction IDs the stack's one session
// still maps back to a slice.
func (st *stack) pendingXIDs() int {
	st.fv.mu.Lock()
	defer st.fv.mu.Unlock()
	for s := range st.fv.sessions {
		s.xidMu.Lock()
		defer s.xidMu.Unlock()
		return len(s.pending)
	}
	st.t.Fatal("no proxy session")
	return 0
}

func flowMod(priority uint16, flags uint16) *openflow.FlowMod {
	return &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: priority, Flags: flags, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
}

// TestBarrierFencesUnansweredXIDs: flow-mods and packet-outs get no reply
// when they succeed, so their transaction-ID mappings go when a barrier from
// the same slice is answered. An error to one of them still reaches its
// slice first, and one slice's barrier leaves the other's mappings alone.
func TestBarrierFencesUnansweredXIDs(t *testing.T) {
	st := newStack(t)
	tc, _ := st.topo.Switch(0xD1)
	rc, _ := st.rf.Switch(0xD1)

	const outs = 50
	for i := 0; i < outs; i++ {
		if err := st.topo.PacketOut(0xD1, openflow.PortNone,
			[]openflow.Action{&openflow.ActionOutput{Port: 1}}, arpFrame()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the topology slice's packet-outs mapped", func() bool { return st.pendingXIDs() == outs })

	// The second flow-mod overlaps the first at its priority and asks the
	// switch to check: it fails, and only the error carries its XID.
	if err := rc.Send(flowMod(7, 0)); err != nil {
		t.Fatal(err)
	}
	bad := flowMod(7, openflow.FlowModFlagCheckOverlap)
	bad.Match.Wildcards &^= openflow.WildcardInPort
	bad.Match.InPort = 1
	if err := rc.Send(bad); err != nil {
		t.Fatal(err)
	}
	for i := uint16(0); i < 300; i++ {
		if err := rc.Send(flowMod(100+i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Barrier(); err != nil {
		t.Fatal(err)
	}
	select {
	case em := <-st.rfErrs:
		if em.XID() != bad.XID() || em.ErrType != openflow.ErrTypeFlowModFailed {
			t.Fatalf("error %v for xid %d, want FLOW_MOD_FAILED for %d", em, em.XID(), bad.XID())
		}
	default:
		t.Fatal("the failed flow-mod's error did not reach the rf slice before its barrier reply")
	}
	if n := st.pendingXIDs(); n != outs {
		t.Fatalf("after the rf slice's barrier %d mappings remain, want the topology slice's %d", n, outs)
	}
	if err := tc.Barrier(); err != nil {
		t.Fatal(err)
	}
	if n := st.pendingXIDs(); n != 0 {
		t.Fatalf("after both slices' barriers %d mappings remain", n)
	}
}

// TestProxyBarrierBoundsXIDsWithoutSliceBarriers: a slice that never sends a
// barrier does not grow the map either; the proxy fences every fenceEvery
// messages with a barrier of its own, whose reply no controller sees.
func TestProxyBarrierBoundsXIDsWithoutSliceBarriers(t *testing.T) {
	st := newStack(t)
	rc, _ := st.rf.Switch(0xD1)
	// The handshake's FEATURES_REQUEST counts towards the first fence.
	before, _ := st.fv.Counters("rf")
	total := uint64(2*fenceEvery + 10)
	tail := int((before.ToSwitch + total) % fenceEvery)
	for i := uint64(0); i < total; i++ {
		if err := rc.Send(flowMod(uint16(i%64), 0)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all but the last flow-mods fenced", func() bool {
		c, _ := st.fv.Counters("rf")
		return c.ToSwitch == before.ToSwitch+total && st.pendingXIDs() == tail
	})
	if c, _ := st.fv.Counters("rf"); c.ToController != before.ToController {
		t.Fatalf("the proxy's barrier replies reached the controller: %+v, before %+v", c, before)
	}
}

func TestPortStatusBroadcast(t *testing.T) {
	st := newStack(t)
	st.far[0].SetLinkUp(false)
	for _, ch := range []chan *openflow.PortStatus{st.topoPSs, st.rfPSs} {
		select {
		case ps := <-ch:
			if ps.Desc.PortNo != 1 {
				t.Fatalf("port = %d", ps.Desc.PortNo)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("port-status not broadcast to both slices")
		}
	}
}

func TestEchoTerminatesAtProxy(t *testing.T) {
	st := newStack(t)
	tc, _ := st.topo.Switch(0xD1)
	rep, err := tc.Request(&openflow.EchoRequest{Data: []byte("fv?")})
	if err != nil {
		t.Fatal(err)
	}
	er, ok := rep.(*openflow.EchoReply)
	if !ok || string(er.Data) != "fv?" {
		t.Fatalf("echo reply = %#v", rep)
	}
}

func TestSessionTearDownOnSwitchLoss(t *testing.T) {
	st := newStack(t)
	st.sw.Stop()
	waitFor(t, "controllers lose the switch", func() bool {
		return st.topo.NumSwitches() == 0 && st.rf.NumSwitches() == 0
	})
}

func TestUnreachableSliceAbortsSession(t *testing.T) {
	bad := New("fv", []Slice{{
		Name: "gone",
		Dial: func() (net.Conn, error) { return nil, net.ErrClosed },
	}})
	l := ctlkit.NewMemListener("fv2")
	defer l.Close()
	go bad.Serve(l)
	defer bad.Stop()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	// The proxy should close our connection promptly.
	if _, err := conn.Write((&openflow.Hello{}).AppendTo(nil)); err == nil {
		if _, err := openflow.NewDecoder(conn).Decode(); err == nil {
			t.Fatal("session with unreachable slice stayed open")
		}
	}
}

func TestCountersUnknownSlice(t *testing.T) {
	fv := New("x", nil)
	if _, ok := fv.Counters("nope"); ok {
		t.Fatal("counters for unknown slice")
	}
	if fv.String() == "" {
		t.Fatal("empty string")
	}
}

// frameStream collects the frames read from conn, each copied, until the
// connection closes.
func frameStream(conn net.Conn) <-chan []byte {
	ch := make(chan []byte, 1024)
	go func() {
		defer close(ch)
		dec := openflow.NewDecoder(conn)
		for {
			f, err := dec.Next()
			if err != nil {
				return
			}
			ch <- append([]byte(nil), f...)
		}
	}()
	return ch
}

func nextFrame(t *testing.T, ch <-chan []byte, what string) []byte {
	t.Helper()
	select {
	case f, ok := <-ch:
		if !ok {
			t.Fatalf("%s: connection closed", what)
		}
		return f
	case <-time.After(3 * time.Second):
		t.Fatalf("%s: timed out", what)
		return nil
	}
}

// batch frames msgs back to back.
func batch(msgs ...openflow.Message) []byte {
	var b []byte
	for _, m := range msgs {
		b = m.AppendTo(b)
	}
	return b
}

// withXID returns a copy of frame with its transaction ID set to xid.
func withXID(frame []byte, xid uint32) []byte {
	out := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(out[4:], xid)
	return out
}

// TestRelayIsByteIdenticalButForXIDs drives the proxy from raw pipes: a
// controller writes a mixed batch in one write, and the switch answers with
// one of its own. Every relayed frame must arrive byte for byte as sent but
// for its transaction ID, which the proxy maps out and back; echoes end at
// the proxy, each reply carrying its request's data.
func TestRelayIsByteIdenticalButForXIDs(t *testing.T) {
	ctlEnds := make(chan net.Conn, 2)
	dial := func() (net.Conn, error) {
		a, b := net.Pipe()
		ctlEnds <- b
		return a, nil
	}
	fv := New("fv", []Slice{LLDPSlice("topo", dial), DefaultSlice("rf", dial)})
	l := ctlkit.NewMemListener("fv")
	defer l.Close()
	go fv.Serve(l)
	defer fv.Stop()
	sw, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	topo, rf := <-ctlEnds, <-ctlEnds
	swIn, topoIn, rfIn := frameStream(sw), frameStream(topo), frameStream(rf)
	write := func(conn net.Conn, b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	write(sw, batch(&openflow.Hello{}))
	nextFrame(t, topoIn, "topo hello")
	nextFrame(t, rfIn, "rf hello")

	// Controller to switch: everything but the hello and the echoes is
	// relayed, in order.
	var toSwitch []openflow.Message
	for i := 0; i < 40; i++ {
		fm := flowMod(uint16(100+i%3), 0)
		fm.Actions = []openflow.Action{
			&openflow.ActionSetDlDst{Addr: pkt.LocalMAC(uint64(i))},
			&openflow.ActionOutput{Port: uint16(1 + i%2)},
		}
		if i%10 == 0 {
			fm.Actions = append(fm.Actions, &openflow.ActionVendor{Vendor: 0x2320, Data: []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}})
		}
		toSwitch = append(toSwitch, fm)
		if i%8 == 0 {
			toSwitch = append(toSwitch, &openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: openflow.PortNone,
				Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}, Data: arpFrame()})
		}
	}
	toSwitch = append(toSwitch,
		&openflow.SetConfig{MissSendLen: 128},
		&openflow.StatsRequest{StatsType: openflow.StatsFlow,
			Flow: &openflow.FlowStatsRequest{Match: openflow.MatchAll(), TableID: 0xff, OutPort: openflow.PortNone}},
		&openflow.Raw{T: openflow.TypeQueueGetConfigReq, Body: []byte{0, 5, 0, 0}},
		&openflow.BarrierRequest{})
	var echoes []*openflow.EchoRequest
	ctlBatch := []openflow.Message{&openflow.Hello{}}
	for i, m := range toSwitch {
		m.SetXID(uint32(1000 + i))
		ctlBatch = append(ctlBatch, m)
		if i%9 == 0 {
			e := &openflow.EchoRequest{Data: bytes.Repeat([]byte{byte(i)}, 50+i)}
			e.SetXID(uint32(5000 + i))
			echoes = append(echoes, e)
			ctlBatch = append(ctlBatch, e)
		}
	}
	write(rf, batch(ctlBatch...))
	proxyXID := map[uint32]uint32{} // controller xid -> proxy xid
	for i, m := range toSwitch {
		sent := m.AppendTo(nil)
		got := nextFrame(t, swIn, fmt.Sprintf("relayed %v %d", m.MsgType(), i))
		xid := binary.BigEndian.Uint32(got[4:])
		if !bytes.Equal(withXID(got, m.XID()), sent) {
			t.Fatalf("relayed %v %d:\n got %x\nsent %x", m.MsgType(), i, got, sent)
		}
		proxyXID[m.XID()] = xid
	}
	for _, e := range echoes {
		rep := nextFrame(t, rfIn, "echo reply")
		want := (&openflow.EchoReply{MsgXID: e.MsgXID, Data: e.Data}).AppendTo(nil)
		if !bytes.Equal(rep, want) {
			t.Fatalf("echo reply\n got %x\nwant %x", rep, want)
		}
	}

	// Switch to controllers: replies to the relayed requests, packet-ins
	// for each slice, asynchronous events for both, and echoes for the
	// proxy.
	statsXID, errXID, barrierXID := uint32(1000+len(toSwitch)-3), uint32(1003), uint32(1000+len(toSwitch)-1)
	flows := make([]openflow.FlowStats, 30)
	for i := range flows {
		flows[i] = openflow.FlowStats{Match: openflow.MatchAll(), Priority: uint16(i), Cookie: uint64(i),
			Actions: []openflow.Action{&openflow.ActionOutput{Port: uint16(i)}}}
	}
	reply := func(m openflow.Message, ctlXID uint32) openflow.Message {
		m.SetXID(proxyXID[ctlXID])
		return m
	}
	lldp := &openflow.PacketIn{BufferID: 7, TotalLen: 60, InPort: 1, Data: lldpFrame(0x99, 4)}
	arp := &openflow.PacketIn{BufferID: 8, TotalLen: 42, InPort: 2, Data: arpFrame()}
	ps := &openflow.PortStatus{Reason: openflow.PortReasonModify, Desc: openflow.PhyPort{PortNo: 2, Name: "d1-eth2"}}
	fr := &openflow.FlowRemoved{Match: openflow.MatchAll(), Cookie: 9, Priority: 3, PacketCount: 5}
	errm := reply(&openflow.ErrorMsg{ErrType: openflow.ErrTypeFlowModFailed, Data: make([]byte, 64)}, errXID)
	stats := reply(&openflow.StatsReply{StatsType: openflow.StatsFlow, Flows: flows}, statsXID)
	bar := reply(&openflow.BarrierReply{}, barrierXID)
	var swBatch []openflow.Message
	var swEchoes []*openflow.EchoRequest
	for i, m := range []openflow.Message{lldp, arp, ps, errm, fr, stats, bar} {
		e := &openflow.EchoRequest{Data: bytes.Repeat([]byte{byte(0xE0 + i)}, 200+50*i)}
		e.SetXID(uint32(70 + i))
		swEchoes = append(swEchoes, e)
		swBatch = append(swBatch, m, e)
	}
	write(sw, batch(swBatch...))

	for _, w := range []struct {
		in   <-chan []byte
		m    openflow.Message
		xid  uint32
		what string
	}{
		{topoIn, lldp, 0, "topo: lldp packet-in"},
		{topoIn, ps, 0, "topo: port status"},
		{topoIn, fr, 0, "topo: flow removed"},
		{rfIn, arp, 0, "rf: arp packet-in"},
		{rfIn, ps, 0, "rf: port status"},
		{rfIn, errm, errXID, "rf: error"},
		{rfIn, fr, 0, "rf: flow removed"},
		{rfIn, stats, statsXID, "rf: stats reply"},
		{rfIn, bar, barrierXID, "rf: barrier reply"},
	} {
		want := withXID(w.m.AppendTo(nil), w.xid)
		if got := nextFrame(t, w.in, w.what); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %x\nwant %x", w.what, got, want)
		}
	}
	for _, e := range swEchoes {
		want := (&openflow.EchoReply{MsgXID: e.MsgXID, Data: e.Data}).AppendTo(nil)
		if got := nextFrame(t, swIn, "switch echo reply"); !bytes.Equal(got, want) {
			t.Fatalf("switch echo reply\n got %x\nwant %x", got, want)
		}
	}
}
