package ctlkit

import (
	"bytes"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/netemu"
	"routeflow/internal/ofswitch"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// startSwitch wires a fresh software switch (with nPorts loopback-ish ports)
// to the controller's listener.
func startSwitch(t *testing.T, dpid uint64, nPorts int, l *MemListener) (*ofswitch.Switch, []*netemu.Endpoint) {
	t.Helper()
	n := netemu.NewNetwork(clock.System())
	t.Cleanup(n.Close)
	sw := ofswitch.New(ofswitch.Config{DPID: dpid})
	far := make([]*netemu.Endpoint, 0, nPorts)
	for i := 1; i <= nPorts; i++ {
		a, b := n.NewCable(netemu.CableOpts{
			NameA: "sw", NameB: "far",
			MACA: pkt.LocalMAC(dpid<<8 | uint64(i)), MACB: pkt.LocalMAC(0xFF00 | uint64(i))})
		if err := sw.AttachPort(uint16(i), a); err != nil {
			t.Fatal(err)
		}
		far = append(far, b)
	}
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Start(conn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.Stop)
	return sw, far
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

func TestMemListenerDialAccept(t *testing.T) {
	l := NewMemListener("ctl")
	defer l.Close()
	if l.Addr() != "mem://ctl" {
		t.Fatalf("addr = %s", l.Addr())
	}
	done := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		} else {
			c.Close()
		}
		close(done)
	}()
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done
}

func TestMemListenerClose(t *testing.T) {
	l := NewMemListener("x")
	l.Close()
	if _, err := l.Accept(); err != ErrListenerClosed {
		t.Fatalf("accept after close: %v", err)
	}
	if _, err := l.Dial(); err == nil {
		t.Fatal("dial after close succeeded")
	}
	l.Close() // idempotent
}

func TestHandshakeRegistersSwitch(t *testing.T) {
	up := make(chan uint64, 1)
	ctl := New("test", nil, Callbacks{
		SwitchUp: func(sw *SwitchConn) { up <- sw.DPID() },
	})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()

	startSwitch(t, 0xBEEF, 3, l)
	select {
	case dpid := <-up:
		if dpid != 0xBEEF {
			t.Fatalf("dpid = %x", dpid)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("switch never came up")
	}
	sc, ok := ctl.Switch(0xBEEF)
	if !ok {
		t.Fatal("switch not registered")
	}
	if len(sc.Features().Ports) != 3 {
		t.Fatalf("ports = %d", len(sc.Features().Ports))
	}
	if ctl.NumSwitches() != 1 || len(ctl.Switches()) != 1 {
		t.Fatal("switch accounting wrong")
	}
}

func TestSwitchDownCallback(t *testing.T) {
	down := make(chan uint64, 1)
	ctl := New("test", nil, Callbacks{
		SwitchDown: func(sw *SwitchConn) { down <- sw.DPID() },
	})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()

	sw, _ := startSwitch(t, 0x11, 1, l)
	waitFor(t, "switch up", func() bool { return ctl.NumSwitches() == 1 })
	sw.Stop()
	select {
	case dpid := <-down:
		if dpid != 0x11 {
			t.Fatalf("dpid = %x", dpid)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no down callback")
	}
	waitFor(t, "deregistration", func() bool { return ctl.NumSwitches() == 0 })
}

func TestBarrierRoundTrip(t *testing.T) {
	ctl := New("test", nil, Callbacks{})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()
	startSwitch(t, 7, 1, l)
	waitFor(t, "switch up", func() bool { return ctl.NumSwitches() == 1 })
	sc, _ := ctl.Switch(7)
	if err := sc.Barrier(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestStats(t *testing.T) {
	ctl := New("test", nil, Callbacks{})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()
	startSwitch(t, 8, 2, l)
	waitFor(t, "switch up", func() bool { return ctl.NumSwitches() == 1 })
	sc, _ := ctl.Switch(8)
	rep, err := sc.Request(&openflow.StatsRequest{StatsType: openflow.StatsDesc})
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := rep.(*openflow.StatsReply)
	if !ok || sr.Desc == nil {
		t.Fatalf("reply = %#v", rep)
	}
}

func TestPacketInCallbackAndPacketOut(t *testing.T) {
	pins := make(chan *openflow.PacketIn, 8)
	ctl := New("test", nil, Callbacks{
		PacketIn: func(sw *SwitchConn, pi *openflow.PacketIn) {
			cp := *pi // lent: keep a copy
			cp.Data = bytes.Clone(pi.Data)
			pins <- &cp
		},
	})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()
	_, far := startSwitch(t, 9, 2, l)
	waitFor(t, "switch up", func() bool { return ctl.NumSwitches() == 1 })

	rx := make(chan []byte, 1)
	far[1].SetReceiver(func(f []byte) { rx <- append([]byte(nil), f...) })

	// Inject a frame on far side of port 1: no flows → packet-in.
	f := &pkt.Frame{Dst: pkt.BroadcastMAC, Src: pkt.LocalMAC(0xF1),
		Type: pkt.EtherTypeARP,
		Payload: pkt.NewARPRequest(pkt.LocalMAC(0xF1),
			addr("10.0.0.1"), addr("10.0.0.2")).Marshal()}
	far[0].Send(f.Marshal())
	var pi *openflow.PacketIn
	select {
	case pi = <-pins:
	case <-time.After(3 * time.Second):
		t.Fatal("no packet-in")
	}
	if pi.InPort != 1 {
		t.Fatalf("in_port = %d", pi.InPort)
	}
	// Answer with a packet-out to port 2.
	if err := ctl.PacketOut(9, pi.InPort,
		[]openflow.Action{&openflow.ActionOutput{Port: 2}}, f.Marshal()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rx:
	case <-time.After(3 * time.Second):
		t.Fatal("packet-out never reached port 2")
	}
}

// TestFlowModThroughSend: a flow-mod sent on a switch's connection is
// installed by the barrier that follows it; a helper aimed at a dpid that is
// not connected fails with ErrNotConnected.
func TestFlowModThroughSend(t *testing.T) {
	ctl := New("test", nil, Callbacks{})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()
	sw, _ := startSwitch(t, 10, 2, l)
	waitFor(t, "switch up", func() bool { return ctl.NumSwitches() == 1 })
	fm := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 4,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	sc, _ := ctl.Switch(10)
	if err := sc.Send(fm); err != nil {
		t.Fatal(err)
	}
	if err := sc.Barrier(); err != nil {
		t.Fatal(err)
	}
	if sw.NumFlows() != 1 {
		t.Fatalf("flows = %d", sw.NumFlows())
	}
	if err := ctl.PacketOut(0xDEAD, openflow.PortNone, nil, []byte{1}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("packet-out to unknown dpid: %v, want ErrNotConnected", err)
	}
}

func TestPortStatusCallback(t *testing.T) {
	statuses := make(chan *openflow.PortStatus, 4)
	ctl := New("test", nil, Callbacks{
		PortStatus: func(sw *SwitchConn, ps *openflow.PortStatus) { statuses <- ps },
	})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()
	_, far := startSwitch(t, 11, 1, l)
	waitFor(t, "switch up", func() bool { return ctl.NumSwitches() == 1 })
	far[0].SetLinkUp(false)
	select {
	case ps := <-statuses:
		if ps.Desc.State&openflow.PortStateDown == 0 {
			t.Fatal("port not reported down")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no port status")
	}
}

func TestErrorCallback(t *testing.T) {
	errs := make(chan *openflow.ErrorMsg, 1)
	ctl := New("test", nil, Callbacks{
		Error: func(sw *SwitchConn, em *openflow.ErrorMsg) { errs <- em },
	})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()
	startSwitch(t, 12, 1, l)
	waitFor(t, "switch up", func() bool { return ctl.NumSwitches() == 1 })
	sc, _ := ctl.Switch(12)
	// Vendor messages draw a bad-request error from our switch. Send with an
	// explicit xid not registered as pending so it reaches the callback.
	v := &openflow.Vendor{VendorID: 1}
	v.SetXID(0xABCD)
	if err := sc.Send(v); err != nil {
		t.Fatal(err)
	}
	select {
	case em := <-errs:
		if em.ErrType != openflow.ErrTypeBadRequest {
			t.Fatalf("error = %+v", em)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no error callback")
	}
}

func TestKeepaliveClosesDeadSwitch(t *testing.T) {
	// A raw connection that never answers echoes must be dropped after 3
	// missed keepalives. Short intervals keep the test quick.
	ctl := New("test", nil, Callbacks{},
		WithEchoInterval(30*time.Millisecond),
		WithRequestTimeout(20*time.Millisecond))
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	// Play just enough of the switch role: hello + features reply, then mute.
	go func() {
		_, _ = conn.Write((&openflow.Hello{}).AppendTo(nil))
		dec := openflow.NewDecoder(conn)
		for {
			m, err := dec.Decode()
			if err != nil {
				return
			}
			if fr, ok := m.(*openflow.FeaturesRequest); ok {
				rep := &openflow.FeaturesReply{DatapathID: 0x5117}
				rep.SetXID(fr.XID())
				_, _ = conn.Write(rep.AppendTo(nil))
			}
			// Echo requests deliberately ignored.
		}
	}()
	waitFor(t, "switch up", func() bool { return ctl.NumSwitches() == 1 })
	waitFor(t, "dead switch dropped", func() bool { return ctl.NumSwitches() == 0 })
}

func TestDuplicateDPIDReplacesOldConnection(t *testing.T) {
	var downs atomic.Int32
	ctl := New("test", nil, Callbacks{
		SwitchDown: func(*SwitchConn) { downs.Add(1) },
	})
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()
	startSwitch(t, 0x77, 1, l)
	waitFor(t, "first up", func() bool { return ctl.NumSwitches() == 1 })
	startSwitch(t, 0x77, 1, l) // same dpid reconnects
	waitFor(t, "old conn replaced", func() bool { return downs.Load() >= 1 })
	if ctl.NumSwitches() != 1 {
		t.Fatalf("switches = %d", ctl.NumSwitches())
	}
}

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// TestStopWhileSwitchesDial stops a controller with a switch connected
// while another goroutine keeps dialing. Stop waits for the switch's handler,
// and Serve must not count a new handler in once Stop has begun that wait;
// under -race such a handler is a report against the WaitGroup.
func TestStopWhileSwitchesDial(t *testing.T) {
	for i := 0; i < 10; i++ {
		l := NewMemListener("ctl")
		c := New("ctl", nil, Callbacks{})
		go c.Serve(l)
		startSwitch(t, 1, 1, l)
		waitFor(t, "switch registered", func() bool { _, ok := c.Switch(1); return ok })
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < 500; j++ {
				conn, err := l.Dial()
				if err != nil {
					return
				}
				conn.Close()
			}
		}()
		c.Stop()
		<-done
		l.Close()
	}
}
