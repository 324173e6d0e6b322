package ofswitch

import (
	"net/netip"

	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// rewritePlan classifies an action list's rewrite shape so burst
// forwarding can scan the actions once per run instead of once per frame.
type rewritePlan uint8

const (
	rwNone rewritePlan = iota // no rewrite actions: frame passes through
	rwL2                      // only MAC rewrites: patch the header in place
	rwFull                    // VLAN/L3/L4 rewrites: decode and re-marshal
)

// planRewrites scans the action list and classifies its rewrite shape.
func planRewrites(actions []openflow.Action) rewritePlan {
	plan := rwNone
	for _, a := range actions {
		switch a.(type) {
		case *openflow.ActionSetDlSrc, *openflow.ActionSetDlDst:
			if plan == rwNone {
				plan = rwL2
			}
		case *openflow.ActionOutput, *openflow.ActionEnqueue, *openflow.ActionVendor:
			// Not rewrites; handled (or ignored) by the caller.
		default:
			plan = rwFull
		}
	}
	return plan
}

// applyRewrites returns frame with all non-output actions applied: L2
// address and VLAN rewrites, and L3/L4 rewrites with checksum repair. Output
// actions are collected separately by the caller, and plan is
// planRewrites(actions), scanned once per run of frames. The caller must own
// frame: the hot path (pure MAC rewrites, which is what every routed hop
// executes) patches the Ethernet header in place instead of decoding and
// re-marshalling the whole packet; only VLAN/L3/L4 rewrites take the rebuild
// path.
func applyRewrites(frame []byte, actions []openflow.Action, plan rewritePlan) []byte {
	if plan == rwNone {
		return frame
	}
	if plan == rwL2 && len(frame) >= pkt.EthernetHeaderLen {
		for _, a := range actions {
			switch act := a.(type) {
			case *openflow.ActionSetDlSrc:
				copy(frame[6:12], act.Addr[:])
			case *openflow.ActionSetDlDst:
				copy(frame[0:6], act.Addr[:])
			}
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

	for _, a := range actions {
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
