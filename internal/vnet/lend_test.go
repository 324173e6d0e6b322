package vnet

import (
	"bytes"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/ctlkit"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// TestRoutedPuntOutlivesTheLentPacketIn wires a VM to a ctlkit controller
// the way rf does: packet-ins are injected into the VM, and what the VM
// transmits goes back out as a packet-out. The packet-in the VM routes is
// lent by the controller's decoder, and its packet-out waits in the send
// queue while the packet-ins behind it in the same batch are decoded into
// the same buffer. The packet-out on the wire must still be the routed
// frame. The controller's writer is held up by echo replies the switch has
// not read yet, so the packet-out is encoded only after those packet-ins.
// OSPF hellos the VM sends meanwhile are skipped; any other packet-out that
// is not the routed frame fails the test.
func TestRoutedPuntOutlivesTheLentPacketIn(t *testing.T) {
	const dpid = 0x14
	vm := newVM(t, dpid, 2, time.Millisecond)
	waitState(t, vm, StateUp)
	if err := vm.ConfigureInterface(1, netip.MustParsePrefix("172.16.0.1/30"), 10,
		netip.MustParsePrefix("172.16.0.0/16")); err != nil {
		t.Fatal(err)
	}
	lan := netip.MustParsePrefix("10.2.0.1/24")
	if err := vm.ConfigureInterface(2, lan, 10, lan.Masked()); err != nil {
		t.Fatal(err)
	}
	host, hostMAC := netip.MustParseAddr("10.2.0.50"), pkt.LocalMAC(0x99)
	vmMAC1, _ := vm.InterfaceMAC(1)
	vmMAC2, _ := vm.InterfaceMAC(2)
	arp := &pkt.ARP{Op: pkt.ARPReply, SenderHW: hostMAC, SenderIP: host, TargetHW: vmMAC2, TargetIP: lan.Addr()}
	vm.Inject(2, (&pkt.Frame{Dst: vmMAC2, Src: hostMAC, Type: pkt.EtherTypeARP, Payload: arp.Marshal()}).Marshal())
	if _, ok := vm.LookupARP(2, host); !ok {
		t.Fatal("host not learned")
	}

	var handled atomic.Int64
	ctl := ctlkit.New("rf", nil, ctlkit.Callbacks{
		PacketIn: func(_ *ctlkit.SwitchConn, pi *openflow.PacketIn) {
			vm.Inject(pi.InPort, pi.Data)
			handled.Add(1)
		},
	}, ctlkit.WithEchoInterval(0))
	vm.OnTransmit(func(port uint16, frame []byte) {
		_ = ctl.PacketOut(dpid, openflow.PortNone, []openflow.Action{&openflow.ActionOutput{Port: port}}, frame)
	})
	l := ctlkit.NewMemListener("rf")
	t.Cleanup(func() { l.Close() })
	go ctl.Serve(l)
	t.Cleanup(ctl.Stop)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.Write(append((&openflow.Hello{}).AppendTo(nil), (&openflow.FeaturesReply{DatapathID: dpid}).AppendTo(nil)...))
	waitUntil(t, "switch up", func() bool { _, ok := ctl.Switch(dpid); return ok })

	// More echo replies than the stream to the switch and one write batch
	// hold, so the packet-out queues behind them.
	const echoes = 200
	var batch []byte
	for i := 0; i < echoes; i++ {
		batch = (&openflow.EchoRequest{Data: make([]byte, 1000)}).AppendTo(batch)
	}
	conn.Write(batch)

	src := netip.MustParseAddr("10.9.0.100")
	udp := (&pkt.UDP{SrcPort: 1, DstPort: 2, Payload: []byte("lent")}).Marshal(src, host)
	transit := &pkt.IPv4{ID: 7, TTL: 64, Proto: pkt.ProtoUDP, Src: src, Dst: host, Payload: udp}
	batch = (&openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1,
		Data: (&pkt.Frame{Dst: vmMAC1, Src: pkt.LocalMAC(0x88), Type: pkt.EtherTypeIPv4, Payload: transit.Marshal()}).Marshal()}).AppendTo(nil)
	const after = 40
	for i := 0; i < after; i++ {
		noise := &pkt.Frame{Dst: pkt.BroadcastMAC, Src: pkt.LocalMAC(0x77), Type: pkt.EtherTypeLLDP,
			Payload: bytes.Repeat([]byte{0xAA}, 500)}
		batch = (&openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1, Data: noise.Marshal()}).AppendTo(batch)
	}
	conn.Write(batch)
	waitUntil(t, "packet-ins handled", func() bool { return handled.Load() == 1+after })

	routed := *transit
	routed.TTL--
	want := (&pkt.Frame{Dst: hostMAC, Src: vmMAC2, Type: pkt.EtherTypeIPv4, Payload: routed.Marshal()}).Marshal()
	allSPFRouters := pkt.MAC{0x01, 0x00, 0x5e, 0x00, 0x00, 0x05}
	dec := openflow.NewDecoder(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		m, err := dec.Decode()
		if err != nil {
			t.Fatalf("no packet-out: %v", err)
		}
		if po, ok := m.(*openflow.PacketOut); ok {
			if len(po.Data) >= 6 && pkt.MAC(po.Data[:6]) == allSPFRouters {
				continue
			}
			if !bytes.Equal(po.Data, want) {
				t.Fatalf("packet-out carries\n%x\nwant the routed frame\n%x", po.Data, want)
			}
			return
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
