package flowvisor

import (
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
		PacketIn:   func(_ *ctlkit.SwitchConn, pi *openflow.PacketIn) { st.topoPIs <- pi },
		PortStatus: func(_ *ctlkit.SwitchConn, ps *openflow.PortStatus) { st.topoPSs <- ps },
	})
	st.rf = ctlkit.New("rf", nil, ctlkit.Callbacks{
		PacketIn:   func(_ *ctlkit.SwitchConn, pi *openflow.PacketIn) { st.rfPIs <- pi },
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
	if err := st.rf.FlowModAdd(0xD1, fm); err != nil {
		t.Fatal(err)
	}
	rc, _ := st.rf.Switch(0xD1)
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
