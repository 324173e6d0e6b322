package rf

// Traffic-engineering path pins: explicit per-pair flow entries the TE
// optimizer lays over the RIB-derived routes. A pin matches one (source
// subnet, destination subnet) pair at a priority above every prefix route
// and below the host /32 fast path, and forwards along the TE-assigned
// path hop with the usual MAC rewrite — so a pinned pair follows exactly
// the path telemetry charges it to, while unpinned traffic keeps riding
// the ECMP route flows. Pins are ordinary desired flows (desired.go): set
// sends them, sync restores them on reconnect, repair and adoption, and they
// die with the switch on Release/teardown.

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

func isPin(k flowKey) bool { return k.priority == PinFlowPriority }

// SetPins replaces the whole pin program (full-replace semantics, like
// SetTelemetry): pins that disappeared are deleted from their switches, new
// or changed ones are (re)installed — an add with identical match and
// priority replaces in place on the switch — and unchanged ones are left
// alone.
func (p *Platform) SetPins(pins []PinFlow) {
	next := make(map[uint64][]*openflow.FlowMod)
	for _, pf := range pins {
		fm := flowTo(pf.Dst, PinFlowPriority, rewriteTo(pf.DlSrc, pf.DlDst, pf.OutPort)...)
		fm.Match.SetNwSrcPrefix(pf.Src)
		next[pf.DPID] = append(next[pf.DPID], fm)
	}
	p.mu.Lock()
	for dpid := range p.sw {
		if _, ok := next[dpid]; !ok {
			next[dpid] = nil
		}
	}
	p.mu.Unlock()
	for dpid, mods := range next {
		p.set(dpid, edit{drop: isPin, put: mods})
	}
}

// Pins snapshots the active pin program in unspecified order (stats, tests).
func (p *Platform) Pins() []PinFlow {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PinFlow
	for dpid, st := range p.sw {
		for k, fm := range st.flows {
			if !isPin(k) {
				continue
			}
			m := &fm.Match
			pf := PinFlow{DPID: dpid,
				Src: netip.PrefixFrom(netip.AddrFrom4(m.NwSrc), 32-m.NwSrcIgnoredBits()),
				Dst: netip.PrefixFrom(netip.AddrFrom4(m.NwDst), 32-m.NwDstIgnoredBits())}
			for _, a := range fm.Actions {
				switch a := a.(type) {
				case *openflow.ActionSetDlSrc:
					pf.DlSrc = a.Addr
				case *openflow.ActionSetDlDst:
					pf.DlDst = a.Addr
				case *openflow.ActionOutput:
					pf.OutPort = a.Port
				}
			}
			out = append(out, pf)
		}
	}
	return out
}
