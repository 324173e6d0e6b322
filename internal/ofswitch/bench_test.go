package ofswitch

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"

	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// benchSwitch builds a switch with `ports` data ports (peer endpoints are
// sinks with no receiver) and a table of `flows` entries shaped like the
// RF-server's installs: dst-prefix matches with MAC-rewrite + output
// actions. The entry matching benchFrame's microflow is the lowest-priority
// one, so the tier-2 classifier pays the full O(flows) scan for it — the
// cost profile of a routed switch whose busiest flow sits under the host
// (/32) routes.
func benchSwitch(tb testing.TB, ports, flows int) *Switch {
	tb.Helper()
	sw := New(Config{DPID: 0xBE, Name: "bench"})
	n := netemu.NewNetwork(nil)
	if t, ok := tb.(interface{ Cleanup(func()) }); ok {
		t.Cleanup(n.Close)
	}
	for p := 1; p <= ports; p++ {
		a, _ := n.NewCable(netemu.CableOpts{
			NameA: fmt.Sprintf("bench:%d", p), MACA: pkt.LocalMAC(uint64(p))})
		if err := sw.AttachPort(uint16(p), a); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < flows-1; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = uint16(pkt.EtherTypeIPv4)
		m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 0}), 24))
		if err := sw.table.add(tableEntry(m, uint16(20000-i), 2), false); err != nil {
			tb.Fatal(err)
		}
	}
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType
	m.DlType = uint16(pkt.EtherTypeIPv4)
	m.SetNwDstPrefix(netip.MustParsePrefix("10.0.0.0/8"))
	e := tableEntry(m, 1, 2)
	e.actions = []openflow.Action{
		&openflow.ActionSetDlSrc{Addr: pkt.LocalMAC(0x51)},
		&openflow.ActionSetDlDst{Addr: pkt.LocalMAC(0xD1)},
		&openflow.ActionOutput{Port: 2},
	}
	if err := sw.table.add(e, false); err != nil {
		tb.Fatal(err)
	}
	return sw
}

// benchFrameFor returns a UDP frame whose microflow is unique per (port, i).
func benchFrameFor(port uint16, i int) []byte {
	return udpFrame(pkt.LocalMAC(uint64(0xA0+port)), pkt.LocalMAC(0xD1),
		fmt.Sprintf("10.%d.0.1", port), fmt.Sprintf("10.200.%d.9", i%256),
		uint16(1000+i%64), 5004, "benchpayload-benchpayload")
}

// BenchmarkSwitchForwardCached measures steady-state single-flow forwarding
// through the two-tier pipeline: exact-match cache hit, lock-free counters,
// in-place MAC rewrite, pooled emission. The contract is 0 allocs/op (see
// TestSwitchForwardAllocBudget) and ns/op far below the tier-2-only path.
func BenchmarkSwitchForwardCached(b *testing.B) {
	for _, flows := range []int{1, 128, 256} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			sw := benchSwitch(b, 2, flows)
			frame := benchFrameFor(1, 0)
			for i := 0; i < 2048; i++ { // warm cache, pool and inbox
				sw.handleFrame(1, frame)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.handleFrame(1, frame)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkSwitchForwardTier2Only is the before picture: the same frames
// with the microflow cache disabled, so every packet pays the read-locked
// priority scan. The flows-128 variant is the honest comparison — cache
// hit cost is O(1) while the classifier is O(flows).
func BenchmarkSwitchForwardTier2Only(b *testing.B) {
	for _, flows := range []int{1, 128, 256} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			sw := benchSwitch(b, 2, flows)
			sw.table.disableCache = true
			frame := benchFrameFor(1, 0)
			for i := 0; i < 2048; i++ {
				sw.handleFrame(1, frame)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.handleFrame(1, frame)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkSwitchForwardParallel hammers one switch from all ports at once
// — the §3 demo shape, where every port of a core switch carries a video
// stream. With per-entry atomic counters the ports scale instead of
// serializing on the old table mutex; pkts/s is the aggregate rate.
func BenchmarkSwitchForwardParallel(b *testing.B) {
	const ports = 8
	for _, flowsPerPort := range []int{1, 16} {
		b.Run(fmt.Sprintf("ports=%d,flows=%d", ports, flowsPerPort), func(b *testing.B) {
			sw := benchSwitch(b, ports, 64)
			frames := make([][][]byte, ports)
			for p := 0; p < ports; p++ {
				frames[p] = make([][]byte, flowsPerPort)
				for i := 0; i < flowsPerPort; i++ {
					frames[p][i] = benchFrameFor(uint16(p+1), i)
					for j := 0; j < 64; j++ {
						sw.handleFrame(uint16(p+1), frames[p][i])
					}
				}
			}
			var next atomic.Uint32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Per-goroutine frame copies: handleFrame rewrites MACs in
				// place, and with GOMAXPROCS > ports two goroutines share a
				// port.
				p := int(next.Add(1)-1) % ports
				mine := make([][]byte, flowsPerPort)
				for i := range mine {
					mine[i] = append([]byte(nil), frames[p][i]...)
				}
				i := 0
				for pb.Next() {
					sw.handleFrame(uint16(p+1), mine[i%flowsPerPort])
					i++
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkSwitchForwardBatch measures the burst dataplane: a MaxBurst-long
// same-flow burst costs one cache probe, one batched counter update and one
// rewrite plan, against the per-frame costs of the single path.
func BenchmarkSwitchForwardBatch(b *testing.B) {
	for _, flows := range []int{1, 128} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			sw := benchSwitch(b, 2, flows)
			burst := make([][]byte, netemu.MaxBurst)
			for i := range burst {
				burst[i] = benchFrameFor(1, 0)
			}
			for i := 0; i < 64; i++ { // warm cache, pool and inbox
				sw.batchIn(1, burst)
			}
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for n < b.N {
				sw.batchIn(1, burst)
				n += len(burst)
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkSwitchForwardOffload measures the stateful-offload fast path: a
// pinned microflow forwards without consulting the flow table or touching
// its counters.
func BenchmarkSwitchForwardOffload(b *testing.B) {
	sw := benchSwitch(b, 2, 64)
	sw.SetStatefulOffload(true)
	burst := make([][]byte, netemu.MaxBurst)
	for i := range burst {
		// 172.16/12 entries are plain single-output flows → pinnable.
		burst[i] = udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xD1),
			"10.1.0.1", "172.16.0.9", 1000, 5004, "benchpayload-benchpayload")
	}
	for i := 0; i < 64; i++ { // warm the pin machine
		sw.batchIn(1, burst)
	}
	if st := sw.OffloadStats(); st.PinHits == 0 {
		b.Fatalf("warmup never hit the pin machine: %+v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		sw.batchIn(1, burst)
		n += len(burst)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "pkts/s")
}

// TestSwitchForwardAllocBudget is the alloc gate for the steady-state
// forwarding path: classify, cached lookup, counter update, in-place
// rewrite, pooled emit — zero heap allocations per packet.
func TestSwitchForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	sw := benchSwitch(t, 2, 16)
	frame := benchFrameFor(1, 0)
	for i := 0; i < 4096; i++ { // warm cache, buffer pool and peer inbox
		sw.handleFrame(1, frame)
	}
	avg := testing.AllocsPerRun(1000, func() {
		sw.handleFrame(1, frame)
	})
	if avg > 0 {
		t.Fatalf("steady-state forward allocates %.2f allocs/op, budget is 0", avg)
	}
}

// TestSwitchForwardAllocBudgetECMP is the same zero-alloc gate with an
// equal-cost multipath flow carrying the traffic: bucket selection happens
// once at cache fill, so the steady-state path must stay allocation-free
// with ECMP enabled.
func TestSwitchForwardAllocBudgetECMP(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	sw := benchSwitch(t, 3, 16)
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType
	m.DlType = uint16(pkt.EtherTypeIPv4)
	m.SetNwDstPrefix(netip.MustParsePrefix("10.0.0.0/8"))
	mp := &openflow.ActionMultipath{Buckets: []openflow.MultipathBucket{
		{DlSrc: pkt.LocalMAC(0x51), DlDst: pkt.LocalMAC(0xD1), Port: 2},
		{DlSrc: pkt.LocalMAC(0x52), DlDst: pkt.LocalMAC(0xD2), Port: 3},
	}}
	if n := sw.table.modify(&m, 1, []openflow.Action{mp}, true); n != 1 {
		t.Fatalf("modify rewired %d flows, want 1", n)
	}
	frame := benchFrameFor(1, 0)
	for i := 0; i < 4096; i++ { // warm cache, buffer pool and peer inbox
		sw.handleFrame(1, frame)
	}
	avg := testing.AllocsPerRun(1000, func() {
		sw.handleFrame(1, frame)
	})
	if avg > 0 {
		t.Fatalf("ECMP steady-state forward allocates %.2f allocs/op, budget is 0", avg)
	}
}
