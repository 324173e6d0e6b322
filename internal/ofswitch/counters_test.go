package ofswitch

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// TestHitCountsExactWhenBurstReturns drives bursts through handleBatch that
// mix same-key runs, alternating flows, a monitored microflow, misses and
// runts, and checks after each burst returns that FLOW_STATS, table stats,
// the cache-hit count and the monitor counters equal a reference count. The
// egress receiver checks that every frame it gets was already counted on its
// flow. On a fake clock, the flow hit in every burst never idles out and the
// flow hit only in the first one does.
func TestHitCountsExactWhenBurstReturns(t *testing.T) {
	clk := clock.NewFake()
	h := newHarness(t, clk)
	sw := h.sw

	// Flow 1 (idle 2 s) is hit in every burst, flow 2 (idle 2 s) only in the
	// first, flow 3 carries the monitored microflow.
	flowDst := map[uint64]string{1: "10.1.0.0/16", 2: "10.2.0.0/16", 3: "10.3.0.0/16"}
	for cookie, dst := range flowDst {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = uint16(pkt.EtherTypeIPv4)
		m.SetNwDstPrefix(netip.MustParsePrefix(dst))
		fm := &openflow.FlowMod{Match: m, Cookie: cookie, Command: openflow.FlowModAdd,
			Priority: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			Flags:   openflow.FlowModFlagSendFlowRem,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
		if cookie == 1 {
			fm.Actions = []openflow.Action{&openflow.ActionSetDlDst{Addr: pkt.LocalMAC(0xD1)},
				&openflow.ActionOutput{Port: 2}}
		}
		if cookie != 3 {
			fm.IdleTimeout = 2
		}
		h.send(fm)
	}
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)
	sw.table.setMonitors([]openflow.MonitorRule{{ID: 9,
		Src: [4]byte{10, 0, 0, 0}, SrcBits: 8, Dst: [4]byte{10, 3, 0, 0}, DstBits: 16}})

	// The egress receiver: every frame must be counted on its flow before it
	// arrives.
	var mu sync.Mutex
	rx := map[uint64]uint64{}
	var early []string
	h.h2.SetReceiver(func(frame []byte) {
		cookie := uint64(frame[31]) // second octet of nw_dst names the flow
		var counted uint64
		for _, fi := range sw.FlowTable() {
			if fi.Cookie == cookie {
				counted = fi.Packets
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if rx[cookie]++; counted < rx[cookie] && len(early) < 5 {
			early = append(early, fmt.Sprintf("flow %d: frame %d arrived with %d counted", cookie, rx[cookie], counted))
		}
	})

	type count struct{ packets, bytes uint64 }
	want := map[uint64]*count{1: {}, 2: {}, 3: {}}
	var lookups, matched, hits, forwarded uint64
	var mon count
	cached := map[openflow.Match]bool{}
	frame := func(flow, sport, size int) []byte {
		dst := fmt.Sprintf("10.%d.0.9", flow)
		if flow == 0 {
			dst = "203.0.113.9" // no flow: a miss
		}
		src := "10.0.0.1"
		if flow == 1 {
			src = "192.0.2.1" // outside the monitor rule's source prefix
		}
		return udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xEE), src, dst,
			uint16(sport), 5004, fmt.Sprintf("%0*d", size, 0))
	}
	runt := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	flows := sw.NumFlows()
	for round := 0; round < 6; round++ {
		burst := [][]byte{
			frame(1, 1, 10), frame(1, 1, 20), frame(1, 1, 30), frame(1, 1, 40), // same-key run
			frame(0, 1, 5), runt,
			frame(1, 2, 11), frame(3, 1, 12), frame(1, 2, 13), frame(3, 1, 14), // alternating flows
			frame(3, 1, 15), frame(1, 3, 16), frame(0, 2, 7), runt, frame(1, 3, 17),
		}
		if round == 0 {
			burst = append(burst, frame(2, 1, 30), frame(2, 1, 31))
		}
		// The reference: runs of equal keys, as handleBatch splits them; a
		// run hits when an earlier run filled its cache line.
		for i := 0; i < len(burst); {
			k, err := openflow.ExtractKey(1, burst[i])
			if err != nil {
				i++
				continue
			}
			j := i + 1
			for j < len(burst) {
				if kj, err := openflow.ExtractKey(1, burst[j]); err != nil || kj != k {
					break
				}
				j++
			}
			flow := uint64(burst[i][31])
			for _, f := range burst[i:j] {
				lookups++
				if burst[i][30] == 203 {
					continue
				}
				matched++
				forwarded++
				want[flow].packets++
				want[flow].bytes += uint64(len(f))
				if flow == 3 {
					mon.packets++
					mon.bytes += uint64(len(f))
				}
				if cached[k] {
					hits++
				}
			}
			if burst[i][30] != 203 {
				cached[k] = true
			}
			i = j
		}
		sw.batchIn(1, burst)

		// Everything is counted once handleBatch returns.
		h.send(&openflow.StatsRequest{StatsType: openflow.StatsFlow,
			Flow: &openflow.FlowStatsRequest{Match: openflow.MatchAll(), TableID: 0xff, OutPort: openflow.PortNone}})
		got := map[uint64]count{}
		for _, fs := range h.expect(openflow.TypeStatsReply).(*openflow.StatsReply).Flows {
			got[fs.Cookie] = count{fs.PacketCount, fs.ByteCount}
		}
		for cookie, w := range want {
			if g, ok := got[cookie]; (ok || cookie != 2 || round < 2) && g != *w {
				t.Fatalf("round %d: FLOW_STATS of flow %d = %+v, want %+v", round, cookie, g, *w)
			}
		}
		h.send(&openflow.StatsRequest{StatsType: openflow.StatsTable})
		ts := h.expect(openflow.TypeStatsReply).(*openflow.StatsReply).Tables[0]
		if ts.LookupCount != lookups || ts.MatchedCount != matched {
			t.Fatalf("round %d: table stats lookups %d matched %d, want %d and %d",
				round, ts.LookupCount, ts.MatchedCount, lookups, matched)
		}
		if got := sw.table.cacheHitCount(); got != hits {
			t.Fatalf("round %d: cacheHitCount %d, want %d", round, got, hits)
		}
		if mc := sw.MonitorCounters(); mc[0].Packets != mon.packets || mc[0].Bytes != mon.bytes {
			t.Fatalf("round %d: monitor counted %d pkts / %d B, want %d / %d",
				round, mc[0].Packets, mc[0].Bytes, mon.packets, mon.bytes)
		}

		// One protocol second passes; the expiry loop runs once and re-arms.
		waitArmed(t, clk)
		clk.Advance(time.Second)
		waitArmed(t, clk)
		if n := sw.NumFlows(); n != flows {
			// Flow 2, last hit in the first burst, idles out two seconds
			// later; flow 1, hit in every burst, never does.
			fr := h.expect(openflow.TypeFlowRemoved).(*openflow.FlowRemoved)
			if round != 1 || n != 2 || fr.Cookie != 2 || fr.Reason != openflow.FlowRemovedIdleTimeout ||
				fr.PacketCount != want[2].packets {
				t.Fatalf("round %d: %d flows left; flow-removed %+v, want flow 2 idled out after round 1 with %d packets",
					round, n, fr, want[2].packets)
			}
			flows = n
			clear(cached) // a removal invalidates every cache line
		}
	}
	if flows != 2 {
		t.Fatalf("%d flows left, want flows 1 and 3", flows)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := rx[1] + rx[2] + rx[3]
		mu.Unlock()
		if n == forwarded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("egress received %d of %d frames", n, forwarded)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(early) > 0 {
		t.Fatalf("frames delivered before they were counted: %v", early)
	}
}

// waitArmed waits until the switch's expiry loop has armed its timer on clk,
// which it does after each expiry pass.
func waitArmed(t *testing.T, clk *clock.Fake) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("expiry loop holds %d timers, want 1", clk.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}
