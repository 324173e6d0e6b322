package ofswitch

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// offloadHarness is a 3-port switch with capture sinks, no controller.
func offloadHarness(t *testing.T) (*Switch, *captureSwitch) {
	t.Helper()
	cs := newCaptureSwitch(t, 3)
	return cs.sw, cs
}

func waitRx(t *testing.T, cs *captureSwitch, port uint16, want int) [][]byte {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		cs.mu.Lock()
		got := len(cs.rx[port])
		frames := append([][]byte(nil), cs.rx[port]...)
		cs.mu.Unlock()
		if got >= want {
			return frames
		}
		if time.Now().After(deadline) {
			t.Fatalf("port %d received %d frames, want %d", port, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func macFrame(src, dst pkt.MAC, tag string) []byte {
	return udpFrame(src, dst, "10.0.0.1", "10.0.0.2", 1000, 2000, tag)
}

func TestOffloadOffByDefault(t *testing.T) {
	sw, _ := offloadHarness(t)
	if sw.StatefulOffloadEnabled() {
		t.Fatal("offload enabled on a fresh switch")
	}
	// Traffic must not learn anything: same exchange as the learning test
	// below, but the reply may not be forwarded (empty table → punt only).
	hostA, hostB := pkt.LocalMAC(0xAA), pkt.LocalMAC(0xBB)
	sw.handleFrame(1, macFrame(hostA, hostB, "x"))
	sw.handleFrame(2, macFrame(hostB, hostA, "y"))
	time.Sleep(50 * time.Millisecond)
	if st := sw.OffloadStats(); st != (OffloadStats{}) {
		t.Fatalf("offload stats advanced while disabled: %+v", st)
	}
}

// TestOffloadMACLearning: after one punted frame from each host, the switch
// forwards between them with an empty flow table — a learned flow is never
// punted — and the second packet of the flow upgrades to a pin hit.
func TestOffloadMACLearning(t *testing.T) {
	sw, cs := offloadHarness(t)
	sw.SetStatefulOffload(true)
	hostA, hostB := pkt.LocalMAC(0xAA), pkt.LocalMAC(0xBB)

	// A transmits on port 1: table miss, punted, but srcMAC learned.
	sw.handleFrame(1, macFrame(hostA, hostB, "hello"))
	// B answers on port 2: dst A is learned → forwarded out port 1.
	sw.handleFrame(2, macFrame(hostB, hostA, "reply-1"))
	got := waitRx(t, cs, 1, 1)
	if string(got[0][pkt.EthernetHeaderLen+28:]) != "reply-1" {
		t.Fatalf("unexpected frame on port 1: %x", got[0])
	}
	if st := sw.OffloadStats(); st.MACHits != 1 {
		t.Fatalf("MACHits = %d, want 1 (stats %+v)", st.MACHits, st)
	}
	// Second packet of the same microflow: pin hit, not another MAC lookup.
	sw.handleFrame(2, macFrame(hostB, hostA, "reply-2"))
	waitRx(t, cs, 1, 2)
	if st := sw.OffloadStats(); st.PinHits != 1 || st.MACHits != 1 {
		t.Fatalf("after second packet stats = %+v, want PinHits=1 MACHits=1", st)
	}
}

// TestOffloadPinInvalidatedByFlowMod: a pin created from a flow-table
// decision dies with the table generation, so a re-routed flow takes the
// new path on its very next packet.
func TestOffloadPinInvalidatedByFlowMod(t *testing.T) {
	sw, cs := offloadHarness(t)
	sw.SetStatefulOffload(true)
	add := func(out uint16, prio uint16) {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = uint16(pkt.EtherTypeIPv4)
		m.SetNwDstPrefix(netip.MustParsePrefix("10.0.0.0/8"))
		if err := sw.table.add(tableEntry(m, prio, out), false); err != nil {
			t.Fatal(err)
		}
	}
	add(2, 10)
	frame := macFrame(pkt.LocalMAC(0xAA), pkt.LocalMAC(0xBB), "pinme")
	sw.handleFrame(1, frame) // table hit → observed → pinned to port 2
	sw.handleFrame(1, frame) // pin hit
	waitRx(t, cs, 2, 2)
	if st := sw.OffloadStats(); st.PinHits != 1 {
		t.Fatalf("PinHits = %d, want 1", st.PinHits)
	}
	add(3, 20) // higher-priority re-route; bumps every shard generation
	sw.handleFrame(1, frame)
	got := waitRx(t, cs, 3, 1)
	if string(got[0][pkt.EthernetHeaderLen+28:]) != "pinme" {
		t.Fatalf("unexpected frame on port 3: %x", got[0])
	}
}

// TestOffloadBypassesFlowCounters documents the hardware-offload semantic:
// pinned packets do not advance the flow entry's packet/byte counters.
func TestOffloadBypassesFlowCounters(t *testing.T) {
	sw, cs := offloadHarness(t)
	sw.SetStatefulOffload(true)
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType
	m.DlType = uint16(pkt.EtherTypeIPv4)
	m.SetNwDstPrefix(netip.MustParsePrefix("10.0.0.0/8"))
	if err := sw.table.add(tableEntry(m, 10, 2), false); err != nil {
		t.Fatal(err)
	}
	frame := macFrame(pkt.LocalMAC(0xAA), pkt.LocalMAC(0xBB), "count")
	for i := 0; i < 5; i++ {
		sw.handleFrame(1, frame)
	}
	waitRx(t, cs, 2, 5)
	flows := sw.table.snapshot(time.Now())
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	// First packet went through the table (and created the pin); the other
	// four were offloaded and are invisible to the flow counters.
	if flows[0].Packets != 1 {
		t.Fatalf("flow counter = %d packets, want 1 (offloaded traffic must bypass it)", flows[0].Packets)
	}
	if st := sw.OffloadStats(); st.PinHits != 4 {
		t.Fatalf("PinHits = %d, want 4", st.PinHits)
	}
}

// TestOffloadRebootClears: learned state does not survive a power cycle.
func TestOffloadRebootClears(t *testing.T) {
	sw, cs := offloadHarness(t)
	sw.SetStatefulOffload(true)
	hostA, hostB := pkt.LocalMAC(0xAA), pkt.LocalMAC(0xBB)
	sw.handleFrame(1, macFrame(hostA, hostB, "x"))
	sw.handleFrame(2, macFrame(hostB, hostA, "y"))
	waitRx(t, cs, 1, 1)

	sw.Reboot()
	if !sw.StatefulOffloadEnabled() {
		t.Fatal("reboot should not disable the offload feature flag")
	}
	sw.handleFrame(2, macFrame(hostB, hostA, "after-reboot"))
	time.Sleep(50 * time.Millisecond)
	cs.mu.Lock()
	n := len(cs.rx[1])
	cs.mu.Unlock()
	if n != 1 {
		t.Fatalf("port 1 saw %d frames after reboot, learned state leaked through the power cycle", n)
	}
}

// TestOffloadDisableWipes: turning the flag off drops all learned state and
// restores the punt-everything pipeline.
func TestOffloadDisableWipes(t *testing.T) {
	sw, cs := offloadHarness(t)
	sw.SetStatefulOffload(true)
	hostA, hostB := pkt.LocalMAC(0xAA), pkt.LocalMAC(0xBB)
	sw.handleFrame(1, macFrame(hostA, hostB, "x"))
	sw.handleFrame(2, macFrame(hostB, hostA, "y"))
	waitRx(t, cs, 1, 1)

	sw.SetStatefulOffload(false)
	if sw.StatefulOffloadEnabled() {
		t.Fatal("still enabled")
	}
	sw.handleFrame(2, macFrame(hostB, hostA, "z"))
	time.Sleep(50 * time.Millisecond)
	cs.mu.Lock()
	n := len(cs.rx[1])
	cs.mu.Unlock()
	if n != 1 {
		t.Fatalf("port 1 saw %d frames after disable, want 1", n)
	}
}

// TestOffloadBroadcastStillPunts: multicast and broadcast destinations are
// never handled by the L2 machine (discovery and ARP keep their controller
// path).
func TestOffloadBroadcastStillPunts(t *testing.T) {
	sw, cs := offloadHarness(t)
	sw.SetStatefulOffload(true)
	sw.handleFrame(1, macFrame(pkt.LocalMAC(0xAA), pkt.BroadcastMAC, "bcast"))
	time.Sleep(50 * time.Millisecond)
	for p := uint16(1); p <= 3; p++ {
		cs.mu.Lock()
		n := len(cs.rx[p])
		cs.mu.Unlock()
		if n != 0 {
			t.Fatalf("broadcast leaked out port %d via the offload machines", p)
		}
	}
}

// TestOffloadConfigAndBatch: the Config flag wires the layer up at
// construction, and the batch path takes the same offload decisions.
func TestOffloadConfigAndBatch(t *testing.T) {
	cs := &captureSwitch{sw: New(Config{DPID: 1, Name: "cfg", StatefulOffload: true}),
		rx: make(map[uint16][][]byte)}
	if !cs.sw.StatefulOffloadEnabled() {
		t.Fatal("Config.StatefulOffload ignored")
	}
	n := netemu.NewNetwork(nil)
	t.Cleanup(n.Close)
	for p := 1; p <= 2; p++ {
		port := uint16(p)
		a, far := n.NewCable(netemu.CableOpts{
			NameA: fmt.Sprintf("cfg:%d", p), MACA: pkt.LocalMAC(uint64(p))})
		far.SetReceiver(func(frame []byte) {
			cs.mu.Lock()
			cs.rx[port] = append(cs.rx[port], append([]byte(nil), frame...))
			cs.seen++
			cs.mu.Unlock()
		})
		if err := cs.sw.AttachPort(port, a); err != nil {
			t.Fatal(err)
		}
	}
	hostA, hostB := pkt.LocalMAC(0xAA), pkt.LocalMAC(0xBB)
	cs.sw.batchIn(1, [][]byte{macFrame(hostA, hostB, "learn")})
	reply := [][]byte{
		macFrame(hostB, hostA, "r1"), macFrame(hostB, hostA, "r2"),
		macFrame(hostB, hostA, "r3"),
	}
	cs.sw.batchIn(2, reply)
	got := waitRx(t, cs, 1, 3)
	if len(got) != 3 {
		t.Fatalf("got %d frames", len(got))
	}
	// The whole run after the first frame rides the pin machine: the MAC
	// decision is taken once per run, so one MAC hit covers r1..r3.
	if st := cs.sw.OffloadStats(); st.MACHits+st.PinHits != 3 {
		t.Fatalf("offload stats %+v do not cover the 3-frame run", st)
	}
}
