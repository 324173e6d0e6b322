package ofswitch

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// benchSwitch builds a switch with `ports` data ports, whose peer endpoints
// are sinks, and a table of `flows` entries shaped like the RF-server's
// installs: dst-prefix matches with MAC-rewrite + output actions. The entry
// matching benchFrame's microflow is the lowest-priority one, so the tier-2
// classifier pays the full O(flows) scan for it — the cost profile of a
// routed switch whose busiest flow sits under the host (/32) routes.
func benchSwitch(tb testing.TB, ports, flows int) (*Switch, *sinks) {
	tb.Helper()
	sw := New(Config{DPID: 0xBE, Name: "bench"})
	n := netemu.NewNetwork(nil)
	if t, ok := tb.(interface{ Cleanup(func()) }); ok {
		t.Cleanup(n.Close)
	}
	snk := &sinks{}
	for p := 1; p <= ports; p++ {
		a, b := n.NewCable(netemu.CableOpts{
			NameA: fmt.Sprintf("bench:%d", p), MACA: pkt.LocalMAC(uint64(p))})
		if err := sw.AttachPort(uint16(p), a); err != nil {
			tb.Fatal(err)
		}
		b.SetBurstReceiver(snk.recv)
		snk.tx = append(snk.tx, a)
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
	return sw, snk
}

// sinks are the far ends of benchSwitch's cables. A sink releases each
// delivered frame's buffer to the pool before it counts the frame, so once
// drain returns, every buffer the switch sent is back in the pool. An
// allocation gate that drains after each burst holds at most one burst of
// buffers in flight. Otherwise a sink goroutine that a loaded machine runs
// late parks up to an inbox's worth of buffers, and the switch's next sends
// allocate new ones.
type sinks struct {
	tx   []*netemu.Endpoint // the switch's ends of the cables
	seen atomic.Uint64
}

func (s *sinks) recv(b *netemu.Burst) {
	for i := range b.Frames {
		if fb := b.Take(i); fb != nil {
			fb.Release()
		}
	}
	s.seen.Add(uint64(len(b.Frames)))
}

// drain waits until the sinks have recycled every frame the switch sent.
func (s *sinks) drain() {
	for {
		var sent uint64
		for _, ep := range s.tx {
			sent += ep.Stats().TxPackets
		}
		if s.seen.Load() >= sent {
			return
		}
		runtime.Gosched()
	}
}

// benchFrameFor returns a UDP frame whose microflow is unique per (port, i).
func benchFrameFor(port uint16, i int) []byte {
	return udpFrame(pkt.LocalMAC(uint64(0xA0+port)), pkt.LocalMAC(0xD1),
		fmt.Sprintf("10.%d.0.1", port), fmt.Sprintf("10.200.%d.9", i%256),
		uint16(1000+i%64), 5004, "benchpayload-benchpayload")
}

// BenchmarkSwitchForwardBatch measures the dataplane on full bursts: a
// MaxBurst-long same-flow burst costs one cache probe and one counter flush;
// its rewrite plan was made when the cache line was filled. The per-frame cost of a hop in a running
// network, where most bursts are short, is what bench/'s ofswitch.hop_ns_*
// rigs price.
func BenchmarkSwitchForwardBatch(b *testing.B) {
	for _, flows := range []int{1, 128} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			sw, _ := benchSwitch(b, 2, flows)
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

// TestSwitchForwardAllocBudget is the alloc gate for the steady-state
// forwarding path on a burst of one: classify, cached lookup, counter update,
// in-place rewrite, pooled emit — zero heap allocations per packet.
func TestSwitchForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	sw, snk := benchSwitch(t, 2, 16)
	burst := [][]byte{benchFrameFor(1, 0)}
	for i := 0; i < 4096; i++ { // warm cache and buffer pool
		sw.batchIn(1, burst)
		snk.drain()
	}
	avg := testing.AllocsPerRun(1000, func() {
		sw.batchIn(1, burst)
		snk.drain()
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
	sw, snk := benchSwitch(t, 3, 16)
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
	burst := [][]byte{benchFrameFor(1, 0)}
	for i := 0; i < 4096; i++ { // warm cache and buffer pool
		sw.batchIn(1, burst)
		snk.drain()
	}
	avg := testing.AllocsPerRun(1000, func() {
		sw.batchIn(1, burst)
		snk.drain()
	})
	if avg > 0 {
		t.Fatalf("ECMP steady-state forward allocates %.2f allocs/op, budget is 0", avg)
	}
}

// rfShapedFlowMods returns n FLOW_MOD adds of the shape rf installs (match
// on IPv4 destination, and source for a pin; rewrite both MACs; output),
// spread over rf's priority bands like churn-4k's rules: /24 routes, /30
// links, (src, dst) pins and /32 hosts, in a shuffled order.
func rfShapedFlowMods(n int) []*openflow.FlowMod {
	r := rand.New(rand.NewSource(1))
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = uint16(pkt.EtherTypeIPv4)
		hi, lo := byte(i/4>>8), byte(i/4)
		var prio uint16
		switch i % 4 {
		case 0:
			prio = 124
			m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 200 + hi, lo, 0}), 24))
		case 1:
			prio = 130
			m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16 + hi, lo, 4 * byte(r.Intn(64))}), 30))
		case 2:
			prio = 400
			m.SetNwSrcPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 210 + hi, lo, 0}), 24))
			m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 230 + hi, lo, 0}), 24))
		case 3:
			prio = 500
			m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 250, hi, lo}), 32))
		}
		fms[i] = &openflow.FlowMod{
			Match: m, Command: openflow.FlowModAdd, Priority: prio,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			Actions: []openflow.Action{
				&openflow.ActionSetDlSrc{Addr: pkt.LocalMAC(0xc0002)},
				&openflow.ActionSetDlDst{Addr: pkt.LocalMAC(uint64(0xe0)<<24 | uint64(i))},
				&openflow.ActionOutput{Port: 2},
			},
		}
	}
	r.Shuffle(n, func(i, j int) { fms[i], fms[j] = fms[j], fms[i] })
	return fms
}

// readFlowMods is how many rf-shaped flow-mods (112 bytes each) one
// transport read brings the switch's session during an install: a Decoder
// read takes 512 B to 1 KiB, so 4 to 9 of them.
const readFlowMods = 8

// BenchmarkInstall4096 prices the switch's side of a full install: 4096
// rf-shaped FLOW_MOD adds through handleFlowMod into a fresh table, the work
// the session goroutine does per rule once the message is decoded, with the
// clock stamp the session takes once per transport read taken once per
// readFlowMods adds. The fresh table is made with the timer stopped.
func BenchmarkInstall4096(b *testing.B) {
	fms := rfShapedFlowMods(4096)
	sw := New(Config{DPID: 0xBE, Name: "bench"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sw.table = newFlowTable()
		b.StartTimer()
		var now time.Time
		for j, fm := range fms {
			if j%readFlowMods == 0 {
				now = sw.clk.Now()
			}
			sw.handleFlowMod(fm, now)
		}
	}
	if n := sw.table.len(); n != len(fms) {
		b.Fatalf("table holds %d flows, want %d", n, len(fms))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fms)), "ns/flowmod")
}
