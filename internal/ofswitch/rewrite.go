package ofswitch

import (
	"net/netip"

	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// rewritePlan classifies an action list's rewrite shape.
type rewritePlan uint8

const (
	rwNone rewritePlan = iota // no rewrite actions: frame passes through
	rwL2                      // only MAC rewrites: patch the header in place
	rwFull                    // VLAN/L3/L4 rewrites: decode and re-marshal
)

// actionPlan is an action list with what apply needs to know about it
// worked out in one scan: the rewrite shape, the MAC addresses an L2 rewrite
// writes, and whether the frame can leave in the buffer it came in (move),
// which needs exactly one output, to a physical port, and no rebuild
// rewrite. A cache line holds the plan of its actions, computed when
// classify fills it; the packet-out path plans its actions per call.
type actionPlan struct {
	actions      []openflow.Action
	dlSrc, dlDst *pkt.MAC // the last SetDlSrc/SetDlDst address; nil when none
	rewrite      rewritePlan
	move         bool
	port         uint16 // the sole output's port when move
}

// planActions scans actions once and returns their plan.
func planActions(actions []openflow.Action) actionPlan {
	p := actionPlan{actions: actions}
	outputs, physical := 0, true
	for _, a := range actions {
		switch a := a.(type) {
		case *openflow.ActionSetDlSrc:
			p.dlSrc = &a.Addr
			p.rewrite = max(p.rewrite, rwL2)
		case *openflow.ActionSetDlDst:
			p.dlDst = &a.Addr
			p.rewrite = max(p.rewrite, rwL2)
		case *openflow.ActionOutput:
			outputs++
			p.port, physical = a.Port, physical && a.Port < openflow.PortMax
		case *openflow.ActionEnqueue, *openflow.ActionVendor:
			// Not rewrites; ignored by apply.
		default:
			p.rewrite = rwFull
		}
	}
	p.move = outputs == 1 && physical && p.rewrite != rwFull
	return p
}

// applyRewrites returns frame with all non-output actions of p applied: L2
// address and VLAN rewrites, and L3/L4 rewrites with checksum repair. Output
// actions are the caller's. The caller must own frame: the hot path (pure
// MAC rewrites, which is what every routed hop executes) patches the
// Ethernet header in place instead of decoding and re-marshalling the whole
// packet; only VLAN/L3/L4 rewrites take the rebuild path.
func applyRewrites(frame []byte, p *actionPlan) []byte {
	if p.rewrite == rwNone {
		return frame
	}
	if p.rewrite == rwL2 && len(frame) >= pkt.EthernetHeaderLen {
		if p.dlSrc != nil {
			copy(frame[6:12], p.dlSrc[:])
		}
		if p.dlDst != nil {
			copy(frame[0:6], p.dlDst[:])
		}
		return frame
	}
	f, err := pkt.DecodeFrame(frame)
	if err != nil {
		return frame
	}
	changed := false
	var ip *pkt.IPv4
	ipDirty := false
	ensureIP := func() *pkt.IPv4 {
		if ip == nil && f.Type == pkt.EtherTypeIPv4 {
			ip, _ = pkt.DecodeIPv4(f.Payload)
		}
		return ip
	}
	var udp *pkt.UDP
	udpDirty := false
	ensureUDP := func() *pkt.UDP {
		if p := ensureIP(); p != nil && p.Proto == pkt.ProtoUDP && udp == nil {
			// Decode without checksum verification: earlier actions may
			// already have rewritten the pseudo-header addresses, and the
			// datagram is re-checksummed on marshal anyway.
			udp, _ = pkt.DecodeUDP(p.Payload, netip.Addr{}, netip.Addr{})
		}
		return udp
	}

	for _, a := range p.actions {
		switch act := a.(type) {
		case *openflow.ActionSetDlSrc:
			f.Src = act.Addr
			changed = true
		case *openflow.ActionSetDlDst:
			f.Dst = act.Addr
			changed = true
		case *openflow.ActionSetVlanVid:
			f.VLANID = act.VlanVid & 0x0fff
			changed = true
		case *openflow.ActionStripVlan:
			f.VLANID = 0
			changed = true
		case *openflow.ActionSetNwSrc:
			if p := ensureIP(); p != nil {
				p.Src = netip.AddrFrom4(act.Addr)
				ipDirty, changed = true, true
			}
		case *openflow.ActionSetNwDst:
			if p := ensureIP(); p != nil {
				p.Dst = netip.AddrFrom4(act.Addr)
				ipDirty, changed = true, true
			}
		case *openflow.ActionSetNwTos:
			if p := ensureIP(); p != nil {
				p.TOS = act.Tos
				ipDirty, changed = true, true
			}
		case *openflow.ActionSetTpSrc:
			if u := ensureUDP(); u != nil {
				u.SrcPort = act.Port
				udpDirty, ipDirty, changed = true, true, true
			}
		case *openflow.ActionSetTpDst:
			if u := ensureUDP(); u != nil {
				u.DstPort = act.Port
				udpDirty, ipDirty, changed = true, true, true
			}
		}
	}
	if !changed {
		return frame
	}
	// L4 rewrites (or L3 address rewrites under UDP, which change the
	// pseudo-header) force a UDP re-marshal; any IP change forces an IP
	// re-marshal with a fresh header checksum.
	if ip != nil && ipDirty {
		if udp == nil && ip.Proto == pkt.ProtoUDP {
			// Address rewrite invalidates the UDP pseudo-header checksum.
			udp, _ = pkt.DecodeUDP(ip.Payload, netip.Addr{}, netip.Addr{})
			udpDirty = udp != nil
		}
		if udp != nil && udpDirty {
			ip.Payload = udp.Marshal(ip.Src, ip.Dst)
		}
		f.Payload = ip.Marshal()
	}
	return f.Marshal()
}
