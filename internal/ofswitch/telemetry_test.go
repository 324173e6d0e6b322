package ofswitch

import (
	"fmt"
	"testing"
	"time"

	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

func monRule10(id uint32) openflow.MonitorRule {
	// Covers the benchSwitch traffic shape: src 10.x.0.1 → dst 10.200.x.x.
	return openflow.MonitorRule{ID: id,
		Src: [4]byte{10, 0, 0, 0}, SrcBits: 8,
		Dst: [4]byte{10, 200, 0, 0}, DstBits: 16}
}

// TestTelemetryMonitorCharging: a monitored microflow charges its rule's
// counters on both the classify fill and the cache-hit path; unmonitored
// traffic does not.
func TestTelemetryMonitorCharging(t *testing.T) {
	sw, _ := benchSwitch(t, 2, 16)
	sw.table.setMonitors([]openflow.MonitorRule{monRule10(7)})
	frame := benchFrameFor(1, 0)
	for i := 0; i < 10; i++ {
		sw.batchIn(1, [][]byte{frame})
	}
	mc := sw.MonitorCounters()
	if len(mc) != 1 || mc[0].Rule.ID != 7 {
		t.Fatalf("MonitorCounters = %+v", mc)
	}
	if mc[0].Packets != 10 || mc[0].Bytes != uint64(10*len(frame)) {
		t.Fatalf("monitored flow counted %d pkts / %d bytes, want 10 / %d",
			mc[0].Packets, mc[0].Bytes, 10*len(frame))
	}
	// A flow outside the monitored prefixes leaves the counters alone.
	other := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xD1),
		"10.1.0.1", "172.16.3.9", 1000, 5004, "x")
	for i := 0; i < 5; i++ {
		sw.batchIn(1, [][]byte{other})
	}
	if got := sw.MonitorCounters()[0].Packets; got != 10 {
		t.Fatalf("unmonitored traffic charged the rule: %d pkts", got)
	}
}

// TestTelemetryCounterCarryAcrossMod: re-installing an identical rule keeps
// its counters (level-triggered TELEMETRY_MODs are no-ops); a changed rule
// starts over.
func TestTelemetryCounterCarryAcrossMod(t *testing.T) {
	sw, _ := benchSwitch(t, 2, 16)
	sw.table.setMonitors([]openflow.MonitorRule{monRule10(7)})
	frame := benchFrameFor(1, 0)
	for i := 0; i < 4; i++ {
		sw.batchIn(1, [][]byte{frame})
	}
	// Same rule plus a new one: rule 7's count survives.
	sw.table.setMonitors([]openflow.MonitorRule{monRule10(7),
		{ID: 8, Src: [4]byte{172, 16, 0, 0}, SrcBits: 12, Dst: [4]byte{10, 0, 0, 0}, DstBits: 8}})
	if got := sw.MonitorCounters()[0].Packets; got != 4 {
		t.Fatalf("identical rule lost its counters: %d pkts, want 4", got)
	}
	// Changed prefix under the same ID: counters reset.
	r := monRule10(7)
	r.DstBits = 24
	sw.table.setMonitors([]openflow.MonitorRule{r})
	if got := sw.MonitorCounters()[0].Packets; got != 0 {
		t.Fatalf("changed rule kept stale counters: %d pkts, want 0", got)
	}
}

// TestTelemetryExportProtocol drives the full wire protocol through the
// controller harness: TELEMETRY_MOD installs a rule, the first export is a
// FULL baseline, the ack advances it, and subsequent traffic arrives as a
// delta whose sum matches the switch's absolute counters.
func TestTelemetryExportProtocol(t *testing.T) {
	h := newHarness(t, nil)
	sw := h.sw

	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType
	m.DlType = uint16(pkt.EtherTypeIPv4)
	fm := &openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: 1,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	h.send(fm)
	mod := &openflow.TelemetryMod{Epoch: 5, IntervalMS: 25,
		Rules: []openflow.MonitorRule{{ID: 3,
			Src: [4]byte{10, 1, 0, 0}, SrcBits: 24,
			Dst: [4]byte{10, 2, 0, 0}, DstBits: 24}}}
	mod.SetXID(1)
	h.send(mod)
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)

	// Baseline: the unsynced rule exports FULL (counters may still be 0).
	ex := h.expect(openflow.TypeTelemetryExport).(*openflow.TelemetryExport)
	if ex.Epoch != 5 || !ex.Full() || len(ex.Entries) != 1 || ex.Entries[0].ID != 3 {
		t.Fatalf("first export = %+v, want FULL for rule 3 in epoch 5", ex)
	}
	h.send(&openflow.TelemetryAck{Epoch: 5, Seq: ex.Seq})

	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2),
		"10.1.0.5", "10.2.0.9", 4000, 5004, "telemetry-payload")
	const pkts = 8
	for i := 0; i < pkts; i++ {
		h.h1.Send(frame)
	}

	// Deltas must account for exactly the monitored traffic; ack each export
	// and accumulate until the totals match.
	var gotPkts, gotBytes uint64
	deadline := time.After(5 * time.Second)
	for gotPkts < pkts {
		select {
		case msg, ok := <-h.msgs:
			if !ok {
				t.Fatal("connection closed")
			}
			ex, isEx := msg.(*openflow.TelemetryExport)
			if !isEx {
				continue
			}
			for _, e := range ex.Entries {
				if e.ID != 3 {
					t.Fatalf("export for unknown rule: %+v", e)
				}
				if ex.Full() {
					gotPkts, gotBytes = e.Packets, e.Bytes
				} else {
					gotPkts += e.Packets
					gotBytes += e.Bytes
				}
			}
			h.send(&openflow.TelemetryAck{Epoch: ex.Epoch, Seq: ex.Seq})
		case <-deadline:
			t.Fatalf("telemetry stream stuck at %d/%d packets", gotPkts, pkts)
		}
	}
	if gotPkts != pkts || gotBytes != uint64(pkts*len(frame)) {
		t.Fatalf("aggregated %d pkts / %d bytes, want %d / %d",
			gotPkts, gotBytes, pkts, pkts*len(frame))
	}
	if mc := sw.MonitorCounters(); mc[0].Packets != pkts {
		t.Fatalf("switch absolute = %d pkts, want %d", mc[0].Packets, pkts)
	}
}

// TestTelemetryEpochChangeRebaselines: a TELEMETRY_MOD with a new epoch —
// controller failover — forces FULL re-baselining so the new aggregator
// never receives deltas against a baseline it does not have.
func TestTelemetryEpochChangeRebaselines(t *testing.T) {
	h := newHarness(t, nil)
	rules := []openflow.MonitorRule{{ID: 3,
		Src: [4]byte{10, 1, 0, 0}, SrcBits: 24, Dst: [4]byte{10, 2, 0, 0}, DstBits: 24}}
	h.send(&openflow.TelemetryMod{Epoch: 1, IntervalMS: 25, Rules: rules})
	ex := h.expect(openflow.TypeTelemetryExport).(*openflow.TelemetryExport)
	if ex.Epoch != 1 || !ex.Full() {
		t.Fatalf("first export = %+v", ex)
	}
	h.send(&openflow.TelemetryAck{Epoch: 1, Seq: ex.Seq})
	// Failover: same rules, new epoch.
	h.send(&openflow.TelemetryMod{Epoch: 2, IntervalMS: 25, Rules: rules})
	deadline := time.After(5 * time.Second)
	for {
		select {
		case msg, ok := <-h.msgs:
			if !ok {
				t.Fatal("connection closed")
			}
			ex, isEx := msg.(*openflow.TelemetryExport)
			if !isEx || ex.Epoch != 2 {
				continue
			}
			if !ex.Full() {
				t.Fatalf("first epoch-2 export not FULL: %+v", ex)
			}
			return
		case <-deadline:
			t.Fatal("no epoch-2 export")
		}
	}
}

// TestSwitchTelemetryForwardAllocBudget10k is the acceptance gate: with
// telemetry monitoring the traffic and 10k+ distinct active microflows
// churning the cache, steady-state forwarding still does not allocate.
func TestSwitchTelemetryForwardAllocBudget10k(t *testing.T) {
	if raceEnabled {
		// sync.Pool drops a quarter of its Puts under the race detector, so
		// the frame pool allocates ~0.5/op there and the verdict hangs on how
		// full the peer inbox happens to be when AllocsPerRun starts.
		t.Skip("alloc budget not meaningful under -race")
	}
	sw, snk := benchSwitch(t, 2, 16)
	sw.table.setMonitors([]openflow.MonitorRule{monRule10(1)})

	// 10240 distinct monitored microflows, delivered in bursts.
	const flows = 10240
	burst := make([][]byte, 0, netemu.MaxBurst)
	var charged uint64
	for i := 0; i < flows; i++ {
		f := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xD1),
			"10.1.0.1", fmt.Sprintf("10.200.%d.%d", (i/256)%256, i%256),
			5004, 5004, "benchpayload-benchpayload")
		burst = append(burst, f)
		charged++
		if len(burst) == netemu.MaxBurst {
			sw.batchIn(1, burst)
			burst = burst[:0]
		}
	}
	sw.batchIn(1, burst)
	if got := sw.MonitorCounters()[0].Packets; got != charged {
		t.Fatalf("monitor rule counted %d of %d packets", got, charged)
	}

	// The single-flow steady state on top of that working set: re-warm one
	// microflow's cache line, then hold the 0 allocs/op budget.
	one := [][]byte{benchFrameFor(1, 0)}
	for i := 0; i < 4096; i++ {
		sw.batchIn(1, one)
		snk.drain()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		sw.batchIn(1, one)
		snk.drain()
	}); avg > 0 {
		t.Fatalf("monitored forward allocates %.2f allocs/op, budget is 0", avg)
	}
}

// TestSwitchTelemetryBatchAllocBudget extends the full-burst 0 allocs/op
// gate to monitored traffic.
func TestSwitchTelemetryBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	sw, snk := benchSwitch(t, 2, 16)
	sw.table.setMonitors([]openflow.MonitorRule{monRule10(1)})
	burst := make([][]byte, netemu.MaxBurst)
	for i := range burst {
		burst[i] = benchFrameFor(1, 0)
	}
	for i := 0; i < 64; i++ { // warm cache and pool
		sw.batchIn(1, burst)
		snk.drain()
	}
	if avg := testing.AllocsPerRun(500, func() {
		sw.batchIn(1, burst)
		snk.drain()
	}); avg > 0 {
		t.Fatalf("monitored batch forward allocates %.2f allocs/op, budget is 0", avg)
	}
	if got := sw.MonitorCounters()[0].Packets; got == 0 {
		t.Fatal("monitor rule never charged on a full burst")
	}
}

// BenchmarkSwitchForwardTelemetry forwards bursts of one frame whose flow is
// monitored; the telemetry tax on the hot path is two atomic adds per burst
// of cache hits.
func BenchmarkSwitchForwardTelemetry(b *testing.B) {
	sw, _ := benchSwitch(b, 2, 128)
	sw.table.setMonitors([]openflow.MonitorRule{monRule10(1)})
	one := [][]byte{benchFrameFor(1, 0)}
	for i := 0; i < 2048; i++ {
		sw.batchIn(1, one)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.batchIn(1, one)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}
