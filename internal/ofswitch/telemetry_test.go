package ofswitch

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"routeflow/internal/clock"
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

// TestTelemetryExportProtocol drives the wire protocol through the
// controller harness: TELEMETRY_MOD installs a rule, the first export
// carries its level, and the exports that follow the traffic carry absolute
// counters that never fall and end at the switch's own.
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

	// The switch has applied the flow-mod once it exports: the control loop
	// runs messages in order.
	ex := h.expect(openflow.TypeTelemetryExport).(*openflow.TelemetryExport)
	if ex.Epoch != 5 || len(ex.Entries) != 1 || ex.Entries[0].ID != 3 {
		t.Fatalf("first export = %+v, want rule 3 in epoch 5", ex)
	}
	last := ex.Entries[0]

	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2),
		"10.1.0.5", "10.2.0.9", 4000, 5004, "telemetry-payload")
	const pkts = 8
	for i := 0; i < pkts; i++ {
		h.h1.Send(frame)
	}

	deadline := time.After(5 * time.Second)
	for last.Packets < pkts {
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
				if e.Packets < last.Packets || e.Bytes < last.Bytes {
					t.Fatalf("absolute counters fell from %+v to %+v", last, e)
				}
				last = e
			}
		case <-deadline:
			t.Fatalf("telemetry stream stuck at %d/%d packets", last.Packets, pkts)
		}
	}
	if last.Packets != pkts || last.Bytes != uint64(pkts*len(frame)) {
		t.Fatalf("exported %d pkts / %d bytes, want %d / %d",
			last.Packets, last.Bytes, pkts, pkts*len(frame))
	}
	if mc := sw.MonitorCounters(); mc[0].Packets != pkts {
		t.Fatalf("switch absolute = %d pkts, want %d", mc[0].Packets, pkts)
	}
}

// telRig runs control sessions of a switch that was never started, over
// net.Pipe, so the test runs the export tick itself: no export loop or timer
// runs. The test reads the controller end only when it calls next, so the
// switch's writer blocks and its send queue fills while the test does not.
type telRig struct {
	t    *testing.T
	sw   *Switch
	ctl  net.Conn
	dec  *openflow.Decoder
	done chan struct{} // closed when the session ends
}

func newTelRig(t *testing.T) *telRig {
	r := &telRig{t: t, sw: New(Config{DPID: 0x2a, Clock: clock.NewFake()})}
	r.connect()
	t.Cleanup(func() { r.ctl.Close(); <-r.done })
	return r
}

// connect starts a session and reads the switch's HELLO.
func (r *telRig) connect() {
	swEnd, ctlEnd := net.Pipe()
	r.ctl, r.dec, r.done = ctlEnd, openflow.NewDecoder(ctlEnd), make(chan struct{})
	go func(done chan struct{}) {
		r.sw.runSession(swEnd)
		close(done)
	}(r.done)
	if m := r.next(); m.MsgType() != openflow.TypeHello {
		r.t.Fatalf("session opened with %v", m.MsgType())
	}
}

// disconnect cuts the session from the controller's end and waits for the
// switch to see it end.
func (r *telRig) disconnect() {
	r.ctl.Close()
	<-r.done
}

func (r *telRig) next() openflow.Message {
	r.t.Helper()
	r.ctl.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := r.dec.Next()
	if err != nil {
		r.t.Fatalf("controller read: %v", err)
	}
	m, err := openflow.Unmarshal(frame)
	if err != nil {
		r.t.Fatal(err)
	}
	return m
}

// program sends a TELEMETRY_MOD and waits until the switch has applied it.
func (r *telRig) program(epoch uint64, rules ...openflow.MonitorRule) {
	r.t.Helper()
	for _, m := range []openflow.Message{&openflow.TelemetryMod{Epoch: epoch, Rules: rules}, &openflow.BarrierRequest{}} {
		if _, err := r.ctl.Write(m.AppendTo(nil)); err != nil {
			r.t.Fatal(err)
		}
	}
	for r.next().MsgType() != openflow.TypeBarrierReply {
	}
}

// tick runs one export tick and returns what it queued: the exports the
// switch sends before an echo queued right after the tick.
func (r *telRig) tick() []*openflow.TelemetryExport {
	r.t.Helper()
	r.sw.telemetryTick()
	marker := &openflow.EchoRequest{}
	marker.SetXID(0xfeed)
	if err := r.sw.send(marker); err != nil {
		r.t.Fatal(err)
	}
	var out []*openflow.TelemetryExport
	for {
		switch m := r.next().(type) {
		case *openflow.TelemetryExport:
			out = append(out, m)
		case *openflow.EchoRequest:
			if m.XID() == 0xfeed {
				return out
			}
		}
	}
}

// charge adds n packets of 100 bytes to rule id's counters.
func (r *telRig) charge(id uint32, n uint64) {
	for _, mr := range r.sw.table.mon.Load().rules {
		if mr.spec.ID == id {
			mr.ctr.add(n, 100*n)
			return
		}
	}
	r.t.Fatalf("no monitor rule %d", id)
}

// telRules returns n disjoint monitor rules with IDs 1..n.
func telRules(n int) []openflow.MonitorRule {
	out := make([]openflow.MonitorRule, n)
	for i := range out {
		out[i] = openflow.MonitorRule{ID: uint32(i + 1),
			Src: [4]byte{10, byte(i + 1), 0, 0}, SrcBits: 16, Dst: [4]byte{10, 200, 0, 0}, DstBits: 16}
	}
	return out
}

// entriesOf flattens exports to "id:packets/bytes" in export order, and
// checks each export's epoch.
func entriesOf(t *testing.T, exs []*openflow.TelemetryExport, epoch uint64) []string {
	t.Helper()
	var out []string
	for _, ex := range exs {
		if ex.Epoch != epoch {
			t.Fatalf("export in epoch %d, want %d", ex.Epoch, epoch)
		}
		for _, e := range ex.Entries {
			out = append(out, fmt.Sprintf("%d:%d/%d", e.ID, e.Packets, e.Bytes))
		}
	}
	return out
}

func wantEntries(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: exported %v, want %v", what, got, want)
	}
}

// TestTelemetryIdleRulesExportOnce: every rule is exported once with its
// absolute level; after that only a rule whose counters moved is exported,
// with its new absolute, and a rule whose prefixes changed under the same
// ID counts as new.
func TestTelemetryIdleRulesExportOnce(t *testing.T) {
	r := newTelRig(t)
	rules := telRules(3)
	r.program(1, rules...)
	r.charge(2, 4)
	wantEntries(t, "first tick", entriesOf(t, r.tick(), 1), "1:0/0", "2:4/400", "3:0/0")
	wantEntries(t, "idle tick", entriesOf(t, r.tick(), 1))
	r.charge(2, 1)
	wantEntries(t, "after traffic", entriesOf(t, r.tick(), 1), "2:5/500")
	wantEntries(t, "idle again", entriesOf(t, r.tick(), 1))

	rules[2].DstBits = 24
	r.program(1, rules...)
	wantEntries(t, "rule 3 re-specified", entriesOf(t, r.tick(), 1), "3:0/0")
	wantEntries(t, "idle after the change", entriesOf(t, r.tick(), 1))
}

// TestTelemetryEpochChangeRebaselines: a TELEMETRY_MOD with a new epoch —
// controller failover — makes the switch re-export every rule once, at its
// level, so the new aggregator sees every rule without any traffic.
func TestTelemetryEpochChangeRebaselines(t *testing.T) {
	r := newTelRig(t)
	r.program(1, telRules(2)...)
	r.charge(1, 3)
	wantEntries(t, "epoch 1", entriesOf(t, r.tick(), 1), "1:3/300", "2:0/0")
	wantEntries(t, "epoch 1 idle", entriesOf(t, r.tick(), 1))
	r.program(2, telRules(2)...)
	wantEntries(t, "epoch 2", entriesOf(t, r.tick(), 2), "1:3/300", "2:0/0")
	wantEntries(t, "epoch 2 idle", entriesOf(t, r.tick(), 2))
}

// TestTelemetrySessionLossReexportsOnce: exports queued on a session that
// died may be lost, so the next session re-exports every rule once.
func TestTelemetrySessionLossReexportsOnce(t *testing.T) {
	r := newTelRig(t)
	r.program(1, telRules(2)...)
	r.charge(2, 7)
	wantEntries(t, "first session", entriesOf(t, r.tick(), 1), "1:0/0", "2:7/700")
	wantEntries(t, "first session idle", entriesOf(t, r.tick(), 1))
	r.disconnect()
	r.connect()
	wantEntries(t, "second session", entriesOf(t, r.tick(), 1), "1:0/0", "2:7/700")
	wantEntries(t, "second session idle", entriesOf(t, r.tick(), 1))
}

// TestTelemetryRefusedExportIsRetried: an export the full control queue
// refuses records nothing, so the next tick exports the same rules.
func TestTelemetryRefusedExportIsRetried(t *testing.T) {
	r := newTelRig(t)
	r.program(1, telRules(2)...)
	r.charge(1, 2)
	// Hold the switch's writer inside a Write: read one byte of a queued
	// echo and leave the rest, so the pipe keeps the writer there while the
	// queue fills behind it. The decoder gets the byte back.
	if err := r.sw.send(&openflow.EchoRequest{}); err != nil {
		t.Fatal(err)
	}
	var first [1]byte
	r.ctl.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(r.ctl, first[:]); err != nil {
		t.Fatal(err)
	}
	r.dec = openflow.NewDecoder(io.MultiReader(bytes.NewReader(first[:]), r.ctl))
	queued := 1
	for r.sw.send(&openflow.EchoRequest{}) == nil {
		queued++
	}
	if queued != openflow.SendQueueDepth+1 {
		t.Fatalf("queue took %d echoes, want the writer's one and %d queued", queued, openflow.SendQueueDepth)
	}
	drops := r.sw.ControlQueueDrops()
	r.sw.telemetryTick()
	if r.sw.ControlQueueDrops() != drops+1 {
		t.Fatalf("tick on a full queue: drops %d → %d, want one refused export", drops, r.sw.ControlQueueDrops())
	}
	for i := 0; i < queued; i++ {
		if m := r.next(); m.MsgType() != openflow.TypeEchoRequest {
			t.Fatalf("queued echo %d came out as %v", i, m.MsgType())
		}
	}
	r.charge(1, 1)
	wantEntries(t, "after the refusal", entriesOf(t, r.tick(), 1), "1:3/300", "2:0/0")
	wantEntries(t, "idle", entriesOf(t, r.tick(), 1))
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
