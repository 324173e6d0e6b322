package rf

// Traffic-engineering path pins: explicit per-pair flow entries the TE
// optimizer lays over the RIB-derived routes. A pin matches one (source
// subnet, destination subnet) pair at a priority above every prefix route
// and below the host /32 fast path, and forwards along the TE-assigned
// path hop with the usual MAC rewrite — so a pinned pair follows exactly
// the path telemetry charges it to, while unpinned traffic keeps riding
// the ECMP route flows. The pin program is one of compile's inputs
// (desired.go): SetPins replaces it and refreshes every switch, sync
// restores it on reconnect, repair and adoption, and a switch's pins die
// with it on Release/teardown until the next SetPins.

import (
	"net/netip"

	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// PinFlowPriority sits above any prefix route (100+bits, at most 132 for a
// /32) and below the host fast path (500): a pin steers transit hops while
// delivery at the destination edge switch stays with the learned-host flow.
const PinFlowPriority = 400

// PinFlow is one TE path pin: on switch DPID, IPv4 traffic from Src to Dst
// is rewritten to DlSrc/DlDst and forwarded out OutPort.
type PinFlow struct {
	DPID         uint64
	Src, Dst     netip.Prefix
	DlSrc, DlDst pkt.MAC
	OutPort      uint16
}

// pinFlow builds the flow entry of one pin.
func pinFlow(pf PinFlow) *openflow.FlowMod {
	fm := flowTo(pf.Dst, PinFlowPriority, rewriteTo(pf.DlSrc, pf.DlDst, pf.OutPort)...)
	fm.Match.SetNwSrcPrefix(pf.Src)
	return fm
}

// SetPins replaces the whole pin program (full-replace semantics, like
// SetTelemetry) and refreshes every switch it touches: pins that disappeared
// are deleted from their switches, new or changed ones are (re)installed —
// an add with identical match and priority replaces in place on the switch —
// and unchanged ones are left alone.
func (p *Platform) SetPins(pins []PinFlow) {
	next := make(map[uint64][]PinFlow)
	for _, pf := range pins {
		next[pf.DPID] = append(next[pf.DPID], pf)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for dpid, st := range p.sw {
		if _, ok := next[dpid]; !ok && len(st.pins) > 0 {
			next[dpid] = nil
		}
	}
	for dpid, pins := range next {
		p.stateLocked(dpid).pins = pins
		p.refreshLocked(dpid)
	}
}

// Pins snapshots the active pin program in unspecified order (stats, tests).
func (p *Platform) Pins() []PinFlow {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PinFlow
	for _, st := range p.sw {
		out = append(out, st.pins...)
	}
	return out
}
