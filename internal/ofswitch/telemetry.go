package ofswitch

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/openflow"
)

// Telemetry on the switch: the controller installs monitor rules with
// TELEMETRY_MOD (each rule a src/dst IPv4 prefix pair with a flow ID), the
// dataplane charges one dedicated counter pair per rule, and an exporter
// loop streams counter deltas back as TELEMETRY_EXPORT batches.
//
// Charging rides the two-tier pipeline: a microflow's monitor counter is
// resolved once, at cache fill (classify holds the read lock anyway; the
// rules of one switch are disjoint, so a linear scan finds the at-most-one
// match), cached in the published mfEntry, and thereafter charged through
// the burst's hitTally, two atomic adds per burst and flow on the cache-hit
// path — the forwarding path stays lock-free and allocation-free no matter
// how many flows are monitored.
//
// The export protocol is stop-and-wait per rule with a full-resync escape
// hatch: a rule's delta is in flight until the controller acknowledges the
// export's (epoch, seq), at which point the switch folds the delta into its
// acknowledged baseline. A rule whose export goes unacknowledged (lost ack,
// controller stall) times out back to the unsynced state and re-baselines
// with an absolute FULL export, which the controller merges by maximum —
// deltas are therefore applied at most once, and any loss is repaired by an
// idempotent absolute, never by re-adding. Session death and epoch change
// (controller failover) unsync every rule the same way.

// DefaultTelemetryInterval is the export cadence before the controller sets
// one (protocol time).
const DefaultTelemetryInterval = 500 * time.Millisecond

// telAckTimeoutTicks is how many export intervals an unacknowledged export
// may stay in flight before its rules fall back to a FULL re-baseline.
const telAckTimeoutTicks = 3

// telMaxEntriesPerExport chunks one tick's entries across messages so a
// frame stays far below the 64 KiB OpenFlow ceiling (worst-case entry is 25
// varint bytes).
const telMaxEntriesPerExport = 2048

// telCounter is one monitor rule's packet/byte counter pair.
type telCounter struct {
	packets atomic.Uint64
	bytes   atomic.Uint64
}

func (c *telCounter) add(n, nBytes uint64) {
	c.packets.Add(n)
	c.bytes.Add(nBytes)
}

// monRule is one compiled monitor rule: the wire spec plus pre-masked
// prefixes for the classify-time compare.
type monRule struct {
	spec         openflow.MonitorRule
	src, srcMask uint32
	dst, dstMask uint32
	ctr          *telCounter
}

// monitorSet is an immutable compiled rule set; replacement swaps the whole
// set under the table write lock and invalidates the microflow cache so
// stale counter pointers die with their cache lines.
type monitorSet struct {
	rules []monRule
}

func prefixMask(bits uint8) uint32 {
	if bits == 0 {
		return 0
	}
	if bits >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - bits)
}

func compileMonRule(spec openflow.MonitorRule, ctr *telCounter) monRule {
	sm, dm := prefixMask(spec.SrcBits), prefixMask(spec.DstBits)
	return monRule{
		spec: spec,
		src:  binary.BigEndian.Uint32(spec.Src[:]) & sm, srcMask: sm,
		dst: binary.BigEndian.Uint32(spec.Dst[:]) & dm, dstMask: dm,
		ctr: ctr,
	}
}

// match resolves key to its monitor counter, or nil. Runs on the classify
// slow path only; installed rules are disjoint so the first hit is the hit.
func (ms *monitorSet) match(key *openflow.Match) *telCounter {
	if key.DlType != 0x0800 {
		return nil
	}
	src := binary.BigEndian.Uint32(key.NwSrc[:])
	dst := binary.BigEndian.Uint32(key.NwDst[:])
	for i := range ms.rules {
		r := &ms.rules[i]
		if src&r.srcMask == r.src && dst&r.dstMask == r.dst {
			return r.ctr
		}
	}
	return nil
}

// setMonitors replaces the table's monitor rule set. Counters carry over
// for rules whose (ID, prefixes) survive the replacement — a level-triggered
// re-send of the same rules is a no-op — and start at zero for new rules.
func (t *flowTable) setMonitors(rules []openflow.MonitorRule) {
	old := t.mon.Load()
	var set *monitorSet
	if len(rules) > 0 {
		set = &monitorSet{rules: make([]monRule, 0, len(rules))}
		for _, spec := range rules {
			var ctr *telCounter
			if old != nil {
				for i := range old.rules {
					if old.rules[i].spec == spec {
						ctr = old.rules[i].ctr
						break
					}
				}
			}
			if ctr == nil {
				ctr = &telCounter{}
			}
			set.rules = append(set.rules, compileMonRule(spec, ctr))
		}
	}
	if set == nil && old == nil {
		return
	}
	t.mu.Lock()
	t.mon.Store(set)
	t.invalidateLocked()
	t.mu.Unlock()
}

// MonitorCounterInfo is a read-only snapshot of one monitor rule's absolute
// counters, for tests and invariant checks.
type MonitorCounterInfo struct {
	Rule    openflow.MonitorRule
	Packets uint64
	Bytes   uint64
}

// monitorCounters snapshots the live rule set's absolute counters.
func (t *flowTable) monitorCounters() []MonitorCounterInfo {
	ms := t.mon.Load()
	if ms == nil {
		return nil
	}
	out := make([]MonitorCounterInfo, len(ms.rules))
	for i := range ms.rules {
		r := &ms.rules[i]
		out[i] = MonitorCounterInfo{Rule: r.spec,
			Packets: r.ctr.packets.Load(), Bytes: r.ctr.bytes.Load()}
	}
	return out
}

// MonitorCounters returns the switch's installed monitor rules with their
// absolute counters (what the telemetry stream's acknowledged view
// converges to).
func (s *Switch) MonitorCounters() []MonitorCounterInfo {
	return s.table.monitorCounters()
}

// telRuleState is the exporter's per-rule bookkeeping.
type telRuleState struct {
	spec        openflow.MonitorRule
	basePackets uint64 // counters the controller has acknowledged
	baseBytes   uint64
	synced      bool // false → next export carries absolutes (FULL)
	inflight    bool // an unacknowledged export covers this rule
}

// telPending is one unacknowledged export chunk: the absolute counter
// snapshot it reported, advanced into the baselines when its ack arrives.
type telPending struct {
	sentAt time.Time
	snaps  []telSnap
}

type telSnap struct {
	id             uint32
	packets, bytes uint64
}

// telState is the switch's exporter state, touched by the control loop
// (TELEMETRY_MOD/ACK) and the export tick.
type telState struct {
	mu       sync.Mutex
	epoch    uint64
	interval time.Duration
	seq      uint32
	rules    map[uint32]*telRuleState
	pending  map[uint32]*telPending // seq → chunk
	// poke wakes the export loop out of its armed timer: a program push must
	// take effect (first FULL, new interval) now, not after the stale timer
	// — which may be the 500ms default while the new cadence is 20ms.
	poke chan struct{}
}

// wake nudges the export loop (non-blocking; a pending nudge coalesces).
func (ts *telState) wake() {
	select {
	case ts.poke <- struct{}{}:
	default:
	}
}

// programmed reports whether any monitor rule is installed.
func (ts *telState) programmed() bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.rules) > 0
}

func (ts *telState) currentInterval() time.Duration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.interval <= 0 {
		return DefaultTelemetryInterval
	}
	return ts.interval
}

// unsyncLocked drops every rule back to the FULL re-baseline state; called
// on session loss and ack timeout.
func (ts *telState) unsyncLocked() {
	for _, r := range ts.rules {
		r.synced = false
		r.inflight = false
	}
	ts.pending = nil
}

// telSessionDown marks the control session lost: everything in flight is
// forgotten and the next connected tick re-baselines with FULL exports.
func (s *Switch) telSessionDown() {
	s.tel.mu.Lock()
	s.tel.unsyncLocked()
	s.tel.mu.Unlock()
}

// handleTelemetryMod applies a full monitor rule-set replacement.
func (s *Switch) handleTelemetryMod(m *openflow.TelemetryMod) {
	s.table.setMonitors(m.Rules)
	ts := &s.tel
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if m.IntervalMS > 0 {
		ts.interval = time.Duration(m.IntervalMS) * time.Millisecond
	}
	if m.Epoch != ts.epoch {
		// A new controller instance owns the stream: restart the protocol so
		// its aggregator is re-baselined by absolutes, never fed deltas it
		// has no baseline for.
		ts.epoch = m.Epoch
		ts.seq = 0
		ts.rules = nil
		ts.pending = nil
	}
	prev := ts.rules
	ts.rules = make(map[uint32]*telRuleState, len(m.Rules))
	for _, spec := range m.Rules {
		if old, ok := prev[spec.ID]; ok && old.spec == spec {
			ts.rules[spec.ID] = old // identical rule: stream state survives
			continue
		}
		ts.rules[spec.ID] = &telRuleState{spec: spec}
	}
	// Pending chunks may reference dropped rules; their acks just no-op.
	ts.wake()
}

// handleTelemetryAck folds an acknowledged export into the baselines.
func (s *Switch) handleTelemetryAck(m *openflow.TelemetryAck) {
	ts := &s.tel
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if m.Epoch != ts.epoch {
		return
	}
	p := ts.pending[m.Seq]
	if p == nil {
		return
	}
	delete(ts.pending, m.Seq)
	for _, snap := range p.snaps {
		r := ts.rules[snap.id]
		if r == nil {
			continue
		}
		r.basePackets, r.baseBytes = snap.packets, snap.bytes
		r.synced = true
		r.inflight = false
	}
}

// telemetryLoop drives the export cadence until Stop. With no monitor rules
// installed it sleeps until a program arrives.
func (s *Switch) telemetryLoop() {
	defer s.wg.Done()
	for {
		var t clock.Timer
		var fire <-chan time.Time
		if s.tel.programmed() {
			t = s.clk.NewTimer(s.tel.currentInterval())
			fire = t.C()
		}
		select {
		case <-s.stop:
			stopTimer(t)
			return
		case <-s.tel.poke:
			// A fresh program: export its first FULLs immediately and re-arm
			// with its interval.
			stopTimer(t)
			s.telemetryTick()
		case <-fire:
			s.telemetryTick()
		}
	}
}

// stopTimer stops t unless it is nil.
func stopTimer(t clock.Timer) {
	if t != nil {
		t.Stop()
	}
}

// telemetryTick builds and sends this interval's exports: FULL absolutes
// for unsynced rules, deltas for synced ones, nothing for idle ones.
func (s *Switch) telemetryTick() {
	abs := s.table.monitorCounters()
	ts := &s.tel
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.rules) == 0 {
		return
	}
	now := s.clk.Now()
	timeout := time.Duration(telAckTimeoutTicks) * ts.currentIntervalLocked()
	for seq, p := range ts.pending {
		if now.Sub(p.sentAt) >= timeout {
			delete(ts.pending, seq)
			for _, snap := range p.snaps {
				if r := ts.rules[snap.id]; r != nil {
					r.synced = false
					r.inflight = false
				}
			}
		}
	}
	var full, delta []openflow.TelemetryEntry
	var fullSnaps, deltaSnaps []telSnap
	for _, mc := range abs {
		r := ts.rules[mc.Rule.ID]
		if r == nil || r.inflight {
			continue
		}
		snap := telSnap{id: mc.Rule.ID, packets: mc.Packets, bytes: mc.Bytes}
		if !r.synced {
			full = append(full, openflow.TelemetryEntry{ID: mc.Rule.ID,
				Packets: mc.Packets, Bytes: mc.Bytes})
			fullSnaps = append(fullSnaps, snap)
		} else if mc.Packets != r.basePackets || mc.Bytes != r.baseBytes {
			delta = append(delta, openflow.TelemetryEntry{ID: mc.Rule.ID,
				Packets: mc.Packets - r.basePackets, Bytes: mc.Bytes - r.baseBytes})
			deltaSnaps = append(deltaSnaps, snap)
		}
	}
	s.sendExportsLocked(now, openflow.TelemetryFull, full, fullSnaps)
	s.sendExportsLocked(now, 0, delta, deltaSnaps)
}

func (ts *telState) currentIntervalLocked() time.Duration {
	if ts.interval <= 0 {
		return DefaultTelemetryInterval
	}
	return ts.interval
}

// sendExportsLocked chunks entries into export messages; each successfully
// queued chunk becomes a pending record and marks its rules in flight.
func (s *Switch) sendExportsLocked(now time.Time, flags uint8, entries []openflow.TelemetryEntry, snaps []telSnap) {
	ts := &s.tel
	for len(entries) > 0 {
		n := len(entries)
		if n > telMaxEntriesPerExport {
			n = telMaxEntriesPerExport
		}
		ts.seq++
		ex := &openflow.TelemetryExport{Epoch: ts.epoch, Seq: ts.seq,
			Flags: flags, Entries: entries[:n]}
		if s.send(ex) != nil {
			ts.seq--
			return // not connected or queue full; retried whole next tick
		}
		if ts.pending == nil {
			ts.pending = make(map[uint32]*telPending)
		}
		ts.pending[ts.seq] = &telPending{sentAt: now, snaps: snaps[:n]}
		for _, snap := range snaps[:n] {
			if r := ts.rules[snap.id]; r != nil {
				r.inflight = true
			}
		}
		entries, snaps = entries[n:], snaps[n:]
	}
}
