package rf

// The platform's half of the streaming-telemetry pipeline: it carries the
// monitoring program (which switch observes which flows, at what epoch) down
// to the switches as TELEMETRY_MOD and feeds the switches' TELEMETRY_EXPORT
// streams, each entry a rule's absolute counters, into a
// telemetry.Aggregator; nothing is sent back. Each switch's share of the
// program is one of compile's inputs (desired.go): refresh pushes a changed
// TELEMETRY_MOD, and sync re-pushes it on every connect, repair and
// adoption, so the program is level-triggered end to end.

import (
	"time"

	"routeflow/internal/ctlkit"
	"routeflow/internal/openflow"
	"routeflow/internal/telemetry"
)

// TelemetryProgram is one platform's monitoring workload: the flows whose
// monitor switch this platform masters, and the compiled per-switch rules.
type TelemetryProgram struct {
	// Epoch fences export streams. Every program push carries it to the
	// switches; a switch seeing a new epoch forgets what it exported and
	// re-exports every rule. Epoch 0 means "no program" — the
	// platform sends nothing and ignores exports.
	Epoch uint64
	// Interval is the switches' export period (0 = switch default).
	Interval time.Duration
	// Span is the aggregator's rolling-window length (0 = 5s).
	Span time.Duration
	// Flows are the placements whose monitor switch this platform owns.
	Flows []telemetry.Placement
	// MonitorDPID maps a placement's monitor node to its switch DPID.
	MonitorDPID func(node int) uint64
	// Rules holds the compiled match rules per switch DPID. A switch with
	// none here receives an empty TELEMETRY_MOD, retiring whatever rules it
	// had (full-replace semantics). The platform keeps the map: do not
	// modify it after SetTelemetry.
	Rules map[uint64][]openflow.MonitorRule
}

// SetTelemetry installs a monitoring program: each switch's share of the
// rules (none, for a switch the program leaves out) is one of compile's inputs,
// and the refresh pushes each TELEMETRY_MOD that changed. The aggregator
// survives program changes: flows whose monitor switch is unchanged keep
// their views and totals, and the epoch advances in place so the
// re-exports that follow charge only gains.
func (p *Platform) SetTelemetry(prog TelemetryProgram) {
	p.telMu.Lock()
	if p.telAgg == nil {
		p.telAgg = telemetry.NewAggregator(p.clk, prog.Epoch, prog.Span)
	} else {
		p.telAgg.SetEpoch(prog.Epoch)
	}
	p.telAgg.SetFlows(prog.Flows, prog.MonitorDPID)
	p.telMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tel = openflow.TelemetryMod{Epoch: prog.Epoch, IntervalMS: uint32(prog.Interval / time.Millisecond)}
	p.telRules = prog.Rules
	p.refreshAllLocked()
}

// onTelemetry feeds one export to the aggregator.
func (p *Platform) onTelemetry(sc *ctlkit.SwitchConn, ex *openflow.TelemetryExport) {
	p.telMu.Lock()
	agg := p.telAgg
	p.telMu.Unlock()
	if agg != nil {
		agg.HandleExport(sc.DPID(), ex)
	}
}

// TelemetrySnapshot returns this platform's current flow and link views
// (empty before any program is set). In a cluster each replica covers only
// the flows it owns; merge replica snapshots with telemetry.Merge.
func (p *Platform) TelemetrySnapshot() telemetry.Snapshot {
	p.telMu.Lock()
	agg := p.telAgg
	p.telMu.Unlock()
	if agg == nil {
		return telemetry.Snapshot{}
	}
	return agg.Snapshot()
}
