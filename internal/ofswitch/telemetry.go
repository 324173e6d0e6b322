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
// loop streams the rules' absolute counters back as TELEMETRY_EXPORT
// batches.
//
// Charging rides the two-tier pipeline: a microflow's monitor counter is
// resolved once, at cache fill (classify holds the read lock anyway; the
// rules of one switch are disjoint, so a linear scan finds the at-most-one
// match), cached in the published mfEntry, and thereafter charged through
// the burst's hitTally, two atomic adds per burst and flow on the cache-hit
// path — the forwarding path stays lock-free and allocation-free no matter
// how many flows are monitored.
//
// Every export entry is a rule's absolute counters, which the controller
// applies idempotently (it charges the gain over the level it has applied),
// so the stream needs no acknowledgement and no retransmission state: a lost
// export is covered by the next one, and a repeated one charges nothing. Per
// rule the switch keeps only the level it last queued on this session and
// epoch, and exports a rule whose counters differ from it or that it never
// queued; an idle rule costs nothing after its first export. Session loss and
// a new epoch (controller failover) forget every level, so the next tick
// re-exports every rule once. A send the control queue refuses records
// nothing, so the next tick retries it.

// DefaultTelemetryInterval is the export cadence before the controller sets
// one (protocol time).
const DefaultTelemetryInterval = 500 * time.Millisecond

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
// absolute counters (what the controller's telemetry view converges to).
func (s *Switch) MonitorCounters() []MonitorCounterInfo {
	return s.table.monitorCounters()
}

// telLevel is the absolute counter pair of a rule as last queued.
type telLevel struct{ packets, bytes uint64 }

// telState is the switch's exporter state, touched by the control loop
// (TELEMETRY_MOD), the session's end and the export tick.
type telState struct {
	mu       sync.Mutex
	epoch    uint64
	interval time.Duration
	// queued holds, per installed rule, the level last queued on this
	// session and epoch. It is keyed by the whole rule, so a rule whose
	// prefixes change under the same ID counts as never queued.
	queued map[openflow.MonitorRule]telLevel
	// poke wakes the export loop out of its armed timer: a program push must
	// take effect (first export, new interval) now, not after the stale timer
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

func (ts *telState) currentInterval() time.Duration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.interval <= 0 {
		return DefaultTelemetryInterval
	}
	return ts.interval
}

// telForget drops every queued level, so the next tick re-exports every rule:
// the session they were queued on is gone, or the switch rebooted.
func (s *Switch) telForget() {
	s.tel.mu.Lock()
	s.tel.queued = nil
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
		// A new controller instance owns the stream: its aggregator has seen
		// none of the levels queued so far.
		ts.epoch = m.Epoch
		ts.queued = nil
	}
	prev := ts.queued
	ts.queued = make(map[openflow.MonitorRule]telLevel, len(m.Rules))
	for _, spec := range m.Rules {
		if lv, ok := prev[spec]; ok {
			ts.queued[spec] = lv // identical rule: nothing to re-export
		}
	}
	ts.wake()
}

// telemetryLoop drives the export cadence until Stop. With no monitor rules
// installed it sleeps until a program arrives.
func (s *Switch) telemetryLoop() {
	defer s.wg.Done()
	for {
		var t clock.Timer
		var fire <-chan time.Time
		if s.table.mon.Load() != nil {
			t = s.clk.NewTimer(s.tel.currentInterval())
			fire = t.C()
		}
		select {
		case <-s.stop:
			stopTimer(t)
			return
		case <-s.tel.poke:
			// A fresh program: export its rules immediately and re-arm with
			// its interval.
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

// telemetryTick exports the absolute counters of every rule whose level
// differs from the one last queued, in chunks of telMaxEntriesPerExport, and
// records a chunk's levels once the control queue has taken it.
func (s *Switch) telemetryTick() {
	ts := &s.tel
	ts.mu.Lock()
	defer ts.mu.Unlock()
	abs := s.table.monitorCounters()
	changed := abs[:0]
	for _, mc := range abs {
		if lv, ok := ts.queued[mc.Rule]; !ok || lv != (telLevel{mc.Packets, mc.Bytes}) {
			changed = append(changed, mc)
		}
	}
	for len(changed) > 0 {
		chunk := changed[:min(len(changed), telMaxEntriesPerExport)]
		ex := &openflow.TelemetryExport{Epoch: ts.epoch, Entries: make([]openflow.TelemetryEntry, len(chunk))}
		for i, mc := range chunk {
			ex.Entries[i] = openflow.TelemetryEntry{ID: mc.Rule.ID, Packets: mc.Packets, Bytes: mc.Bytes}
		}
		if s.send(ex) != nil {
			return // not connected or queue full: these rules stay unqueued
		}
		if ts.queued == nil {
			ts.queued = make(map[openflow.MonitorRule]telLevel)
		}
		for _, mc := range chunk {
			ts.queued[mc.Rule] = telLevel{mc.Packets, mc.Bytes}
		}
		changed = changed[len(chunk):]
	}
}
