package ofswitch

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// batchIn hands the switch a burst that did not come off a cable: there are
// no buffers behind the frames to take, so every egress copies.
func (s *Switch) batchIn(port uint16, frames [][]byte) {
	s.handleBatch(&s.port(port).stage, port, &netemu.Burst{Frames: frames})
}

// captureSwitch builds a switch whose far-end endpoints record every frame
// the switch emits, per port, in arrival order, and can send bursts into it.
type captureSwitch struct {
	sw      *Switch
	far     map[uint16]*netemu.Endpoint
	handled chan int // frames of each burst the switch has finished with
	mu      sync.Mutex
	rx      map[uint16][][]byte
	seen    int
}

func newCaptureSwitch(t *testing.T, ports int) *captureSwitch {
	t.Helper()
	cs := &captureSwitch{sw: New(Config{DPID: 0xCA, Name: "cap"}),
		far: make(map[uint16]*netemu.Endpoint), handled: make(chan int, 1), rx: make(map[uint16][][]byte)}
	n := netemu.NewNetwork(nil)
	t.Cleanup(n.Close)
	for p := 1; p <= ports; p++ {
		port := uint16(p)
		a, far := n.NewCable(netemu.CableOpts{
			NameA: fmt.Sprintf("cap:%d", p), MACA: pkt.LocalMAC(uint64(p)),
			InboxDepth: 4096}) // everything a test emits fits: a drop would read as a mismatch
		far.SetReceiver(func(frame []byte) {
			cs.mu.Lock()
			cs.rx[port] = append(cs.rx[port], append([]byte(nil), frame...))
			cs.seen++
			cs.mu.Unlock()
		})
		if err := cs.sw.AttachPort(port, a); err != nil {
			t.Fatal(err)
		}
		// What AttachPort installed, plus word to cableIn that the switch is
		// done with the burst.
		in := cs.sw.port(port)
		a.SetBurstReceiver(func(b *netemu.Burst) {
			n := len(b.Frames)
			cs.sw.handleBatch(&in.stage, port, b)
			cs.handled <- n
		})
		cs.far[port] = far
	}
	return cs
}

// cableIn sends frames (at most MaxBurst, so that they arrive as one burst)
// into port over its cable and returns when the switch has handled them: the
// burst comes with the cable's buffers behind it, which the switch may take.
func (cs *captureSwitch) cableIn(t *testing.T, port uint16, frames [][]byte) {
	t.Helper()
	if n := cs.far[port].SendBatch(frames); n != len(frames) {
		t.Fatalf("cable into port %d accepted %d of %d frames", port, n, len(frames))
	}
	for n := len(frames); n > 0; {
		n -= <-cs.handled
	}
}

func (cs *captureSwitch) total() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.seen
}

// installPropertyFlows gives the table one flow per rewrite shape: in-place
// L2 rewrite, plain output, flood, and a full decode-and-remarshal L3
// rewrite. Destinations outside every prefix punt.
func installPropertyFlows(t *testing.T, sw *Switch) {
	t.Helper()
	add := func(dst string, prio uint16, actions ...openflow.Action) {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = uint16(pkt.EtherTypeIPv4)
		m.SetNwDstPrefix(netip.MustParsePrefix(dst))
		e := tableEntry(m, prio, 0)
		e.actions = actions
		if err := sw.table.add(e, false); err != nil {
			t.Fatal(err)
		}
	}
	add("10.0.0.0/8", 100,
		&openflow.ActionSetDlSrc{Addr: pkt.LocalMAC(0x51)},
		&openflow.ActionSetDlDst{Addr: pkt.LocalMAC(0xD1)},
		&openflow.ActionOutput{Port: 2})
	add("172.16.0.0/12", 90, &openflow.ActionOutput{Port: 3})
	add("192.168.0.0/16", 80, &openflow.ActionOutput{Port: openflow.PortFlood})
	add("11.0.0.0/8", 70,
		&openflow.ActionSetNwDst{Addr: [4]byte{99, 9, 9, 9}},
		&openflow.ActionOutput{Port: 4})
}

// propertyFrame picks from a small universe of microflows (so randomized
// bursts contain same-key runs) with a randomized payload (so frames within
// a run still differ byte-for-byte).
func propertyFrame(rng *rand.Rand) (uint16, []byte) {
	dsts := []string{
		"10.1.2.3", "10.7.7.7", // L2-rewrite flow
		"172.16.5.5", "172.17.0.1", // plain output flow
		"192.168.9.1",  // flood flow
		"11.0.0.1",     // full-rewrite flow
		"203.0.113.77", // table miss → punt
	}
	inPort := uint16(1 + rng.Intn(4))
	dst := dsts[rng.Intn(len(dsts))]
	srcMAC := pkt.LocalMAC(uint64(0xA0 + rng.Intn(3)))
	frame := udpFrame(srcMAC, pkt.LocalMAC(0xD1),
		fmt.Sprintf("10.%d.0.1", inPort), dst,
		uint16(1000+rng.Intn(4)), 5004,
		fmt.Sprintf("payload-%d", rng.Intn(1<<20)))
	return inPort, frame
}

// injection is one input of an equivalence run: a frame arriving on a port,
// or (packetOut) one the controller sends through the table with an
// OFPP_TABLE packet-out.
type injection struct {
	port      uint16
	frame     []byte
	packetOut bool
}

// checkBatchMatchesSingle is the equivalence property. It feeds seq to two
// identical switches — one frame at a time, each a burst of one with no
// buffer behind it so that every egress copies, and chunked into bursts of
// random length that reach handleBatch over the ports' cables, so that frames
// with one port to go to leave in the buffer they came in — and requires
// every egress port to have seen byte-identical frames in the same order,
// with nothing lost in the cables on the way.
func checkBatchMatchesSingle(t *testing.T, rng *rand.Rand, ports int, install func(*testing.T, *Switch), seq []injection) (single, batch *captureSwitch) {
	t.Helper()
	single = newCaptureSwitch(t, ports)
	batch = newCaptureSwitch(t, ports)
	install(t, single.sw)
	install(t, batch.sw)
	packetOut := func(sw *Switch, in injection) {
		sw.handlePacketOut(&openflow.PacketOut{
			BufferID: openflow.NoBuffer, InPort: in.port,
			Data:    append([]byte(nil), in.frame...),
			Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortTable}},
		})
	}

	for _, in := range seq {
		if in.packetOut {
			packetOut(single.sw, in)
		} else {
			single.sw.batchIn(in.port, [][]byte{append([]byte(nil), in.frame...)})
		}
	}
	// Consecutive same-port frames chunked into bursts of randomized size
	// (1..MaxBurst).
	for i := 0; i < len(seq); {
		if seq[i].packetOut {
			packetOut(batch.sw, seq[i])
			i++
			continue
		}
		j := i + 1
		limit := 1 + rng.Intn(netemu.MaxBurst)
		for j < len(seq) && !seq[j].packetOut && seq[j].port == seq[i].port && j-i < limit {
			j++
		}
		burst := make([][]byte, 0, j-i)
		for _, in := range seq[i:j] {
			burst = append(burst, in.frame)
		}
		batch.cableIn(t, seq[i].port, burst)
		i = j
	}

	// Emission is synchronous into the cable inboxes; wait for the
	// delivery goroutines to drain them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, b := single.total(), batch.total()
		if a == b {
			time.Sleep(20 * time.Millisecond)
			if single.total() == a && batch.total() == a {
				break
			}
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("capture totals never converged: single=%d batch=%d", a, b)
		}
		time.Sleep(time.Millisecond)
	}

	single.mu.Lock()
	batch.mu.Lock()
	defer single.mu.Unlock()
	defer batch.mu.Unlock()
	for p := uint16(1); p <= uint16(ports); p++ {
		for _, cs := range []*captureSwitch{single, batch} {
			if out, in := cs.sw.port(p).ep.Stats(), cs.far[p].Stats(); out.Drops != 0 || in.Drops != 0 {
				t.Fatalf("port %d: cable dropped %d frames out of the switch and %d into it, the capture is incomplete",
					p, out.Drops, in.Drops)
			}
		}
		sf, bf := single.rx[p], batch.rx[p]
		if len(sf) != len(bf) {
			t.Fatalf("port %d: bursts of one emitted %d frames, longer bursts %d", p, len(sf), len(bf))
		}
		for i := range sf {
			if !bytes.Equal(sf[i], bf[i]) {
				t.Fatalf("port %d frame %d differs:\nbursts of one: %x\nlonger bursts: %x", p, i, sf[i], bf[i])
			}
		}
	}
	return single, batch
}

// TestBatchPathMatchesSingleFramePath runs the equivalence property over
// randomized bursts spanning every rewrite shape, flood and punt: bursts of
// any length forward as bursts of one do.
func TestBatchPathMatchesSingleFramePath(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			seq := make([]injection, 400)
			for i := range seq {
				port, f := propertyFrame(rng)
				seq[i] = injection{port: port, frame: f}
			}
			checkBatchMatchesSingle(t, rng, 4, installPropertyFlows, seq)
		})
	}
}

// Addresses of the egress flows below.
var (
	egressDlDst  = pkt.LocalMAC(0xD1) // what every test frame is addressed to
	egressViaMAC = pkt.LocalMAC(0xE1) // dl_dst after the flow that outputs to OFPP_TABLE
	egressViaSrc = pkt.LocalMAC(0xE2) // dl_src after the flow the re-injected frame matches
)

// installEgressFlows gives an 8-port switch flows whose outputs stress the
// per-port staging of a burst: one plain flow per port (a burst reaches more
// egress ports than the staging holds), two ECMP groups, a flood, a flow
// that outputs twice to one port (a stage fills mid-burst), a flow that
// outputs, then re-injects the rewritten frame through the table to a second
// flow that rewrites it again, a flow to a port nothing is attached to, and
// two to reserved ports the datapath does not implement.
func installEgressFlows(t *testing.T, sw *Switch) {
	t.Helper()
	add := func(m openflow.Match, dst string, prio uint16, actions ...openflow.Action) {
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = uint16(pkt.EtherTypeIPv4)
		m.SetNwDstPrefix(netip.MustParsePrefix(dst))
		e := tableEntry(m, prio, 0)
		e.actions = actions
		if err := sw.table.add(e, false); err != nil {
			t.Fatal(err)
		}
	}
	out := func(p uint16) openflow.Action { return &openflow.ActionOutput{Port: p} }
	for p := uint16(2); p <= 8; p++ {
		add(openflow.MatchAll(), fmt.Sprintf("20.%d.0.0/16", p), 100, out(p))
	}
	var wide, narrow openflow.ActionMultipath
	for p := uint16(5); p <= 8; p++ {
		wide.Buckets = append(wide.Buckets, openflow.MultipathBucket{
			DlSrc: pkt.LocalMAC(0x50 + uint64(p)), DlDst: pkt.LocalMAC(0xD0 + uint64(p)), Port: p})
	}
	for p := uint16(2); p <= 3; p++ {
		narrow.Buckets = append(narrow.Buckets, openflow.MultipathBucket{
			DlSrc: pkt.LocalMAC(0x60 + uint64(p)), DlDst: pkt.LocalMAC(0xC0 + uint64(p)), Port: p})
	}
	add(openflow.MatchAll(), "10.0.0.0/8", 90, &wide)
	add(openflow.MatchAll(), "11.0.0.0/8", 90, &narrow)
	add(openflow.MatchAll(), "192.168.0.0/16", 80, out(openflow.PortFlood))
	add(openflow.MatchAll(), "30.0.0.0/8", 70, out(3), out(3))
	// The frame leaves on port 6 addressed to egressViaMAC, then goes through
	// the table again, where it no longer matches this flow (its dl_dst has
	// changed) but the next one, which rewrites it in place and sends it to
	// port 6 too.
	first := openflow.MatchAll()
	first.Wildcards &^= openflow.WildcardDlDst
	first.DlDst = egressDlDst
	add(first, "12.0.0.0/8", 200,
		&openflow.ActionSetDlDst{Addr: egressViaMAC}, out(6), out(openflow.PortTable))
	add(openflow.MatchAll(), "12.0.0.0/8", 60,
		&openflow.ActionSetDlSrc{Addr: egressViaSrc}, out(6))
	add(openflow.MatchAll(), "40.0.0.0/8", 50, out(99))
	add(openflow.MatchAll(), "50.0.0.0/8", 50, out(openflow.PortNormal))
	add(openflow.MatchAll(), "51.0.0.0/8", 50, out(4), out(openflow.PortLocal))
}

// egressFrame draws a frame for installEgressFlows' table on one of 64
// microflows per destination, so ECMP groups spread and bursts hold short
// runs.
func egressFrame(rng *rand.Rand, dst string) []byte {
	return udpFrame(pkt.LocalMAC(uint64(0xA0+rng.Intn(3))), egressDlDst,
		"10.250.0.1", dst, uint16(1000+rng.Intn(64)), 5004,
		fmt.Sprintf("payload-%d", rng.Intn(1<<20)))
}

// TestBurstEgressMatchesSingleFramePath holds the per-port staging of burst
// egress to the equivalence property: what each port sends, and in which
// order, is what it sends when every frame is a burst of one.
func TestBurstEgressMatchesSingleFramePath(t *testing.T) {
	dsts := []string{
		"20.2.0.1", "20.3.0.1", "20.4.0.1", "20.5.0.1", "20.6.0.1", "20.7.0.1", "20.8.0.1",
		"10.1.2.3", "10.7.7.7", "11.0.0.1", // ECMP over ports 5-8 and 2-3
		"192.168.9.1",  // flood
		"30.0.0.1",     // two outputs to port 3
		"12.0.0.1",     // output, then OFPP_TABLE
		"40.0.0.1",     // unattached port
		"50.0.0.1",     // OFPP_NORMAL: nothing goes out
		"51.0.0.1",     // port 4, and OFPP_LOCAL
		"203.0.113.77", // table miss → punt
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var seq []injection
			random := func(n int) {
				for i := 0; i < n; i++ {
					in := injection{port: 1, frame: egressFrame(rng, dsts[rng.Intn(len(dsts))])}
					if rng.Intn(20) == 0 {
						in.frame = in.frame[:rng.Intn(pkt.EthernetHeaderLen)] // a runt: no key to extract
					}
					if rng.Intn(16) == 0 {
						in.port = uint16(2 + rng.Intn(3)) // breaks the burst
					}
					in.packetOut = rng.Intn(40) == 0
					seq = append(seq, in)
				}
			}
			// run is n frames of one microflow back to back: with n = MaxBurst
			// a burst can consist of nothing else.
			run := func(dst string, n int) {
				f := egressFrame(rng, dst)
				for i := 0; i < n; i++ {
					seq = append(seq, injection{port: 1, frame: f})
				}
			}
			random(300)
			run("20.3.0.1", netemu.MaxBurst) // fills port 3's stage exactly
			random(20)
			run("30.0.0.1", netemu.MaxBurst) // fills it twice over
			random(300)
			single, batch := checkBatchMatchesSingle(t, rng, 8, installEgressFlows, seq)

			for _, c := range []struct {
				what          string
				single, batch uint64
			}{
				{"frames to the unattached port", single.sw.NoPortDrops(), batch.sw.NoPortDrops()},
				{"runt frames", single.sw.RuntDrops(), batch.sw.RuntDrops()},
				{"outputs to unimplemented reserved ports", single.sw.UnsupportedOutputDrops(), batch.sw.UnsupportedOutputDrops()},
			} {
				if c.single == 0 || c.single != c.batch {
					t.Fatalf("%s: bursts of one counted %d, longer bursts %d", c.what, c.single, c.batch)
				}
			}
			// The OFPP_TABLE flow is the case a late flush would get wrong on
			// both sides alike: port 6 must see each such frame twice, as
			// rewritten by the first flow and then as rewritten again by the
			// second.
			for _, cs := range []*captureSwitch{single, batch} {
				once, twice := 0, 0
				cs.mu.Lock()
				for _, f := range cs.rx[6] {
					if bytes.Equal(f[0:6], egressViaMAC[:]) {
						if bytes.Equal(f[6:12], egressViaSrc[:]) {
							twice++
						} else {
							once++
						}
					}
				}
				cs.mu.Unlock()
				if once == 0 || once != twice {
					t.Fatalf("port 6 saw %d frames rewritten once and %d rewritten twice", once, twice)
				}
			}
		})
	}
}

// TestBatchBurstHammer drives all ports of one switch concurrently through
// real cables with SendBatch while flow-mods churn the table and packet-outs
// re-enter it — the -race exercise for the dataplane, run detection, shard
// invalidation and each goroutine keeping to its own egress staging.
func TestBatchBurstHammer(t *testing.T) {
	const ports = 4
	sw := New(Config{DPID: 0xFF, Name: "hammer"})
	n := netemu.NewNetwork(nil)
	t.Cleanup(n.Close)
	far := make([]*netemu.Endpoint, ports)
	for p := 0; p < ports; p++ {
		a, b := n.NewCable(netemu.CableOpts{
			NameA: fmt.Sprintf("hammer:%d", p+1), MACA: pkt.LocalMAC(uint64(p + 1))})
		if err := sw.AttachPort(uint16(p+1), a); err != nil {
			t.Fatal(err)
		}
		far[p] = b
	}
	installPropertyFlows(t, sw)

	var wg sync.WaitGroup
	for p := 0; p < ports; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 50; i++ {
				burst := make([][]byte, 16)
				for j := range burst {
					_, f := propertyFrame(rng)
					burst[j] = f
				}
				far[p].SendBatch(burst)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m := openflow.MatchAll()
			m.Wildcards &^= openflow.WildcardDlType
			m.DlType = uint16(pkt.EtherTypeIPv4)
			m.SetNwDstPrefix(netip.MustParsePrefix("10.0.0.0/8"))
			e := tableEntry(m, uint16(200+i%3), 2)
			if err := sw.table.add(e, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // the control loop: packet-outs through the table
		defer wg.Done()
		rng := rand.New(rand.NewSource(ports))
		for i := 0; i < 200; i++ {
			port, f := propertyFrame(rng)
			sw.handlePacketOut(&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: port, Data: f,
				Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortTable}}})
		}
	}()
	wg.Wait()
	// Drain: all sent frames must eventually be accounted for (received or
	// dropped); the hammer's assertion is the race detector.
	time.Sleep(100 * time.Millisecond)
}

// TestSwitchBatchAllocBudget extends the 0 allocs/op gate to a full burst:
// a warm same-flow burst must classify, run-detect, cache-hit, rewrite in
// place and emit without touching the heap, whether the table holds one
// entry or 128.
func TestSwitchBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		// Race instrumentation defeats the escape analysis that keeps the
		// per-burst key array on the stack; the gate runs without -race.
		t.Skip("alloc budget not meaningful under -race")
	}
	for _, flows := range []int{1, 16, 128} {
		sw, snk := benchSwitch(t, 2, flows)
		burst := make([][]byte, netemu.MaxBurst)
		for i := range burst {
			burst[i] = benchFrameFor(1, 0)
		}
		for i := 0; i < 64; i++ { // warm cache and pool
			sw.batchIn(1, burst)
			snk.drain()
		}
		avg := testing.AllocsPerRun(500, func() {
			sw.batchIn(1, burst)
			snk.drain()
		})
		if avg > 0 {
			t.Fatalf("batch forward over %d flows allocates %.2f allocs/op, budget is 0", flows, avg)
		}
	}
}
