package ofswitch

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// chainPayload is the payload of datagram seq of flow in TestMovedFramesAcrossChain:
// the two numbers, then bytes that depend on both and on their position, so
// that a buffer refilled while someone still owned it cannot pass for the
// datagram it held before.
func chainPayload(flow, seq uint32, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint32(p, flow)
	binary.BigEndian.PutUint32(p[4:], seq)
	for i := 8; i < size; i++ {
		p[i] = byte(flow*131 + seq*31 + uint32(i)*7)
	}
	return p
}

// TestMovedFramesAcrossChain sends numbered datagrams of four flows through
// three switches in a row, each of which rewrites both MACs in place and has
// one port to send to — so every datagram crosses the chain in the buffer the
// sending side filled, patched at every hop — and has a host at the far end
// verify the checksums and check every payload byte, the order within each
// flow and the count. Two flows are sent by a host, one datagram per send;
// two go into the same cable as raw bursts, so bursts of every length and
// composition reach the switches. Under -race a switch that read a frame
// after moving it races with the next hop's rewrite.
func TestMovedFramesAcrossChain(t *testing.T) {
	for _, frameLen := range []int{64, 1514} {
		t.Run(fmt.Sprintf("%dB", frameLen), func(t *testing.T) {
			const flows, perFlow, hops = 4, 1000, 3
			payloadLen := frameLen - pkt.EthernetHeaderLen - pkt.IPv4HeaderLen - pkt.UDPHeaderLen
			n := netemu.NewNetwork(nil)
			t.Cleanup(n.Close)
			// Every ring holds everything the test sends: a drop would read as loss.
			cable := func(i int) (*netemu.Endpoint, *netemu.Endpoint) {
				return n.NewCable(netemu.CableOpts{
					NameA: fmt.Sprintf("c%d:a", i), NameB: fmt.Sprintf("c%d:b", i),
					MACA: pkt.LocalMAC(uint64(0x10 + 2*i)), MACB: pkt.LocalMAC(uint64(0x11 + 2*i)),
					InboxDepth: 2 * flows * perFlow})
			}
			srcEp, next := cable(0)
			var switches []*Switch
			var cables []*netemu.Endpoint
			var dstEp *netemu.Endpoint
			for i := 1; i <= hops; i++ {
				sw := New(Config{DPID: uint64(i), Name: fmt.Sprintf("chain%d", i)})
				out, far := cable(i)
				if err := sw.AttachPort(1, next); err != nil {
					t.Fatal(err)
				}
				if err := sw.AttachPort(2, out); err != nil {
					t.Fatal(err)
				}
				switches, cables = append(switches, sw), append(cables, next, out)
				next, dstEp = far, far
			}
			mkHost := func(name, addr string, ep *netemu.Endpoint) *netemu.Host {
				h, err := netemu.NewHost(netemu.HostConfig{Name: name, Addr: netip.MustParsePrefix(addr)}, ep, nil)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			src, dst := mkHost("src", "10.0.0.1/24", srcEp), mkHost("dst", "10.0.0.2/24", dstEp)
			hopMAC := func(hop int) pkt.MAC { return pkt.LocalMAC(uint64(0xA0 + hop)) }
			for i, sw := range switches {
				for in, out := range map[uint16]uint16{1: 2, 2: 1} { // ARP both ways
					arp := openflow.MatchAll()
					arp.Wildcards &^= openflow.WildcardDlType | openflow.WildcardInPort
					arp.DlType, arp.InPort = uint16(pkt.EtherTypeARP), in
					if err := sw.table.add(tableEntry(arp, 100, out), false); err != nil {
						t.Fatal(err)
					}
				}
				m := openflow.MatchAll()
				m.Wildcards &^= openflow.WildcardDlType
				m.DlType = uint16(pkt.EtherTypeIPv4)
				m.SetNwDstPrefix(netip.MustParsePrefix("10.0.0.2/32"))
				e := tableEntry(m, 200, 0)
				dlDst := hopMAC(i + 1)
				if i == hops-1 {
					dlDst = dst.MAC()
				}
				e.actions = []openflow.Action{
					&openflow.ActionSetDlSrc{Addr: hopMAC(i)},
					&openflow.ActionSetDlDst{Addr: dlDst},
					&openflow.ActionOutput{Port: 2},
				}
				if err := sw.table.add(e, false); err != nil {
					t.Fatal(err)
				}
			}

			var mu sync.Mutex
			due := make([]uint32, flows) // per flow: the sequence number to arrive next
			got := 0
			done := make(chan struct{})
			dst.BindUDP(7001, func(_ netip.Addr, srcPort uint16, p []byte) {
				mu.Lock()
				defer mu.Unlock()
				flow := uint32(srcPort - 20000)
				if flow >= flows || len(p) != payloadLen {
					t.Errorf("datagram from port %d with %d payload bytes", srcPort, len(p))
					return
				}
				seq := binary.BigEndian.Uint32(p[4:])
				if seq != due[flow] {
					t.Errorf("flow %d: datagram %d arrived where %d was due", flow, seq, due[flow])
				}
				due[flow] = seq + 1
				if want := chainPayload(flow, seq, payloadLen); string(p) != string(want) {
					t.Errorf("flow %d datagram %d: payload differs from what was sent", flow, seq)
				}
				if got++; got == flows*perFlow {
					close(done)
				}
			})

			dstMAC, err := src.Resolve(dst.Addr())
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // flows 0 and 1: the host fills one buffer per datagram
				defer wg.Done()
				for seq := uint32(0); seq < perFlow; seq++ {
					for flow := uint32(0); flow < 2; flow++ {
						if err := src.SendUDP(dst.Addr(), uint16(20000+flow), 7001, chainPayload(flow, seq, payloadLen)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			go func() { // flows 2 and 3: raw bursts of random length, in short runs of one flow
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(frameLen)))
				var sent [flows]uint32
				for sent[2]+sent[3] < 2*perFlow {
					var burst [][]byte
					for k := 1 + rng.Intn(netemu.MaxBurst); k > 0 && sent[2]+sent[3] < 2*perFlow; {
						flow := uint32(2 + rng.Intn(2))
						for run := 1 + rng.Intn(8); run > 0 && k > 0 && sent[flow] < perFlow; run, k = run-1, k-1 {
							burst = append(burst, rawUDPFrame(src.MAC(), dstMAC, src.Addr(), dst.Addr(),
								uint16(20000+flow), 7001, chainPayload(flow, sent[flow], payloadLen)))
							sent[flow]++
						}
					}
					if n := srcEp.SendBatch(burst); n != len(burst) {
						t.Errorf("first cable accepted %d of %d frames", n, len(burst))
						return
					}
				}
			}()
			wg.Wait()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("%d of %d datagrams arrived; next due per flow %v", got, flows*perFlow, due)
			}
			if d := dst.RxDiscards(); d != 0 {
				t.Fatalf("receiving host discarded %d frames", d)
			}
			for _, ep := range append(cables, srcEp, dstEp) {
				if st := ep.Stats(); st.Drops != 0 {
					t.Fatalf("%s dropped %d frames", ep.Name(), st.Drops)
				}
			}
			for _, sw := range switches {
				if sw.RuntDrops() != 0 || sw.NoPortDrops() != 0 {
					t.Fatalf("%s: %d runt and %d no-port drops", sw.Name(), sw.RuntDrops(), sw.NoPortDrops())
				}
				for _, fi := range sw.FlowTable() {
					if fi.Priority == 200 && (fi.Packets != flows*perFlow || fi.Bytes != uint64(flows*perFlow*frameLen)) {
						t.Fatalf("%s: forwarding flow counted %d packets and %d bytes, want %d of %d B",
							sw.Name(), fi.Packets, fi.Bytes, flows*perFlow, frameLen)
					}
				}
			}
		})
	}
}

// rawUDPFrame is udpFrame for a byte payload and parsed addresses.
func rawUDPFrame(src, dst pkt.MAC, srcIP, dstIP netip.Addr, sport, dport uint16, payload []byte) []byte {
	u := &pkt.UDP{SrcPort: sport, DstPort: dport, Payload: payload}
	ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP, Src: srcIP, Dst: dstIP, Payload: u.Marshal(srcIP, dstIP)}
	f := &pkt.Frame{Dst: dst, Src: src, Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
	return f.Marshal()
}

// TestUnattachedPortReleasesMovedBuffers: a frame whose one output names a
// port with nothing attached was taken from the ingress cable before the
// switch found that out, so the switch has to give the buffer back itself. A
// leak would show as the pool allocating a fresh buffer for every frame that
// comes in. (AllocsPerRun counts mallocs of the whole process, the delivery
// goroutine included.)
func TestUnattachedPortReleasesMovedBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	sw := New(Config{DPID: 0xDE, Name: "nowhere"})
	n := netemu.NewNetwork(nil)
	t.Cleanup(n.Close)
	a, far := n.NewCable(netemu.CableOpts{NameA: "nowhere:1"})
	if err := sw.AttachPort(1, a); err != nil {
		t.Fatal(err)
	}
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType
	m.DlType = uint16(pkt.EtherTypeIPv4)
	if err := sw.table.add(tableEntry(m, 100, 99), false); err != nil {
		t.Fatal(err)
	}
	burst := make([][]byte, 32)
	for i := range burst {
		burst[i] = benchFrameFor(1, i%4)
	}
	sendBurst := func() {
		want := sw.NoPortDrops() + uint64(len(burst))
		if n := far.SendBatch(burst); n != len(burst) {
			t.Fatalf("cable accepted %d of %d frames", n, len(burst))
		}
		for deadline := time.Now().Add(2 * time.Second); sw.NoPortDrops() < want; {
			if time.Now().After(deadline) {
				t.Fatalf("switch counted %d frames to the unattached port, want %d", sw.NoPortDrops(), want)
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ { // warm the cache and the pool
		sendBurst()
	}
	if avg := testing.AllocsPerRun(200, sendBurst); avg > 0 {
		t.Fatalf("%.1f allocations per burst of %d frames to an unattached port: their buffers are not going back to the pool",
			avg, len(burst))
	}
}
