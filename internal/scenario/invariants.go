package scenario

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"routeflow/internal/core"
	"routeflow/internal/ofswitch"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// runChecks evaluates the invariant battery at a quiesce point, in a fixed
// order (the event log depends on it). No-blackhole runs first: its pings
// prime ARP caches and host /32 fast-path flows, which the later flow-table
// walk then exercises.
func (r *runner) runChecks() []Check {
	checks := []Check{r.checkNoBlackhole()}
	checks = append(checks, r.checkFlowConsistency(), r.checkDerived(), r.checkNoLoop())
	if r.spec.Telemetry {
		checks = append(checks, r.checkTelemetryPlacement(), r.checkTelemetryConservation())
	}
	return checks
}

func verdict(name string, fails []string) Check {
	if len(fails) == 0 {
		return Check{Name: name, OK: true}
	}
	return Check{Name: name, OK: false, Detail: strings.Join(fails, "; ")}
}

// checkNoBlackhole requires every host pair in the same live component to
// exchange traffic within the ping budget — and, just as importantly, every
// pair split by a partition to honestly *fail*: connectivity across an
// administrative cut would mean stale flows are still forwarding.
func (r *runner) checkNoBlackhole() Check {
	hosts := r.d.HostNodes()
	var fails []string
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			ha, okA := r.d.Host(a)
			hb, okB := r.d.Host(b)
			if !okA || !okB {
				fails = append(fails, fmt.Sprintf("host %d or %d missing", a, b))
				continue
			}
			if r.d.SameLiveComponent(a, b) {
				deadline := time.Now().Add(r.spec.PingBudget)
				var lastErr error
				ok := false
				for {
					if _, lastErr = ha.Ping(hb.Addr(), r.spec.PingTimeout); lastErr == nil {
						ok = true
						break
					}
					if time.Now().After(deadline) {
						break
					}
				}
				if !ok {
					fails = append(fails, fmt.Sprintf("%d->%d unreachable: %v", a, b, lastErr))
				}
			} else if _, err := ha.Ping(hb.Addr(), r.spec.PingTimeout); err == nil {
				fails = append(fails, fmt.Sprintf("%d->%d reachable across a partition", a, b))
			}
		}
	}
	return verdict("no-blackhole", fails)
}

// probeKey builds the classifier key a probe frame toward dst would carry.
func probeKey(src, dst netip.Addr, inPort uint16) (openflow.Match, error) {
	u := &pkt.UDP{SrcPort: 9, DstPort: 9, Payload: []byte("rfchaos-probe")}
	ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP, Src: src, Dst: dst,
		Payload: u.Marshal(src, dst)}
	f := &pkt.Frame{Dst: pkt.LocalMAC(1), Src: pkt.LocalMAC(2),
		Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
	return openflow.ExtractKey(inPort, f.Marshal())
}

// firstOutput returns the first output action's port.
func firstOutput(actions []openflow.Action) (uint16, bool) {
	for _, a := range actions {
		if o, ok := a.(*openflow.ActionOutput); ok {
			return o.Port, true
		}
	}
	return 0, false
}

// matchActions resolves key against a priority-ordered flow-table snapshot,
// returning the matched entry's actions with ECMP groups resolved.
func matchActions(flows []ofswitch.FlowInfo, key *openflow.Match) ([]openflow.Action, bool) {
	for i := range flows {
		if flows[i].Match.Covers(key) {
			return openflow.ResolveMultipath(flows[i].Actions, key), true
		}
	}
	return nil, false
}

// matchFlow resolves key against a priority-ordered flow-table snapshot.
func matchFlow(flows []ofswitch.FlowInfo, key *openflow.Match) (outPort uint16, ok bool) {
	acts, ok := matchActions(flows, key)
	if !ok {
		return 0, false
	}
	return firstOutput(acts)
}

// checkNoLoop walks the installed flow tables for every directed host pair:
// starting at the source's switch, follow the matched output port across the
// live topology. A revisited switch or an exhausted TTL is a forwarding
// loop. Misses (punt path), dead links and host-port emissions all terminate
// the walk — they may be blackholes, which checkNoBlackhole owns, but they
// are not loops.
func (r *runner) checkNoLoop() Check {
	const ttl = 64
	hosts := r.d.HostNodes()
	var fails []string
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if msg := r.walkFlows(a, b, ttl); msg != "" {
				fails = append(fails, msg)
			}
		}
	}
	return verdict("no-loop", fails)
}

func (r *runner) walkFlows(src, dst, ttl int) string {
	ha, okA := r.d.Host(src)
	hb, okB := r.d.Host(dst)
	if !okA || !okB {
		return ""
	}
	srcPort, _ := r.d.Graph().HostPort(src)
	key, err := probeKey(ha.Addr(), hb.Addr(), uint16(srcPort))
	if err != nil {
		return fmt.Sprintf("probe key %d->%d: %v", src, dst, err)
	}
	node := src
	visited := make(map[int]bool)
	for hop := 0; ; hop++ {
		if hop >= ttl {
			return fmt.Sprintf("%d->%d: TTL exhausted after %d hops", src, dst, ttl)
		}
		if visited[node] {
			return fmt.Sprintf("%d->%d: forwarding loop revisits switch %d", src, dst, node)
		}
		visited[node] = true
		sw, ok := r.d.Switch(node)
		if !ok {
			return ""
		}
		acts, ok := matchActions(sw.FlowTable(), &key)
		if !ok {
			return "" // table miss (punt path) — not a loop
		}
		out, ok := firstOutput(acts)
		if !ok {
			return "" // matched drop — not a loop
		}
		// Apply the entry's MAC rewrites to the walked key: the next hop's
		// ECMP hash sees the rewritten frame, and the walk must agree with it.
		for _, a := range acts {
			switch s := a.(type) {
			case *openflow.ActionSetDlSrc:
				key.DlSrc = s.Addr
			case *openflow.ActionSetDlDst:
				key.DlDst = s.Addr
			}
		}
		li, isTransit := r.linkAt[[2]int{node, int(out)}]
		if !isTransit {
			return "" // emitted on a host port (delivery) or into the void
		}
		if !r.d.LinkIsUp(li) {
			return "" // frame dies on the dead link
		}
		peerNode, peerPort, ok := r.d.Graph().Peer(node, int(out))
		if !ok {
			return ""
		}
		key.InPort = uint16(peerPort)
		node = peerNode
	}
}

// checkFlowConsistency diffs every switch's installed flow table against the
// RF platform's desired state. The installs are asynchronous (non-blocking
// sends repaired by a resync loop), so the check retries briefly before
// declaring divergence.
func (r *runner) checkFlowConsistency() Check {
	return retryCheck("flow-consistency", r.flowConsistencyGap)
}

// checkDerived requires every switch's desired table, at its master, to be
// what the master's inputs compile to now (rf.Platform.CheckDerived): a table
// that differs missed a refresh. A RIB change's refresh runs just after the
// change, so the check retries like flow-consistency.
func (r *runner) checkDerived() Check { return retryCheck("derived", r.derivedGap) }

// retryCheck passes once gap reports nothing, and fails with gap's last
// report after 10 s.
func retryCheck(name string, gap func() string) Check {
	deadline := time.Now().Add(10 * time.Second)
	for {
		g := gap()
		if g == "" {
			return Check{Name: name, OK: true}
		}
		if time.Now().After(deadline) {
			return Check{Name: name, OK: false, Detail: g}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *runner) derivedGap() string {
	for _, n := range r.d.Graph().Nodes() {
		dpid := core.DPIDForNode(n.ID)
		platform, ok := r.d.OwnerPlatform(dpid)
		if !ok {
			return fmt.Sprintf("node %d: no live master for its shard", n.ID)
		}
		if err := platform.CheckDerived(dpid); err != nil {
			return fmt.Sprintf("node %d: %v", n.ID, err)
		}
	}
	return ""
}

func (r *runner) flowConsistencyGap() string {
	type flowID struct {
		match    openflow.Match
		priority uint16
	}
	for _, n := range r.d.Graph().Nodes() {
		sw, ok := r.d.Switch(n.ID)
		if !ok {
			continue
		}
		// In a cluster the switch's table must mirror its *master's* desired
		// state; an orphaned shard (master dead, lease not yet lapsed) is by
		// definition not converged.
		platform, ok := r.d.OwnerPlatform(core.DPIDForNode(n.ID))
		if !ok {
			return fmt.Sprintf("node %d: no live master for its shard", n.ID)
		}
		desired := platform.DesiredFlows(core.DPIDForNode(n.ID))
		installed := sw.FlowTable()
		if len(installed) != len(desired) {
			return fmt.Sprintf("node %d: %d flows installed, %d desired", n.ID, len(installed), len(desired))
		}
		have := make(map[flowID]string, len(installed))
		for _, fi := range installed {
			have[flowID{fi.Match, fi.Priority}] = actionSig(fi.Actions)
		}
		for _, fm := range desired {
			sig, ok := have[flowID{fm.Match, fm.Priority}]
			if !ok {
				return fmt.Sprintf("node %d: desired flow %v prio=%d not installed",
					n.ID, fm.Match.NwDstPrefix(), fm.Priority)
			}
			if want := actionSig(fm.Actions); want != sig {
				return fmt.Sprintf("node %d: flow %v prio=%d actions %s, want %s",
					n.ID, fm.Match.NwDstPrefix(), fm.Priority, sig, want)
			}
		}
	}
	return ""
}

// actionSig renders an action list to a comparable signature. ECMP groups
// compare by their full bucket sets — two groups with the same first bucket
// but different alternates are different flows.
func actionSig(actions []openflow.Action) string {
	var b strings.Builder
	for _, a := range actions {
		fmt.Fprintf(&b, "%v;", a)
	}
	return b.String()
}

// checkStreamStart requires every stream's first frame to have arrived.
func (r *runner) checkStreamStart() Check {
	var fails []string
	for i, c := range r.clients {
		if err := c.AwaitFirstFrame(r.spec.ConvergeTimeout); err != nil {
			fails = append(fails, fmt.Sprintf("stream %d: %v", i, err))
		}
	}
	return verdict("stream-start", fails)
}

// checkStreams enforces the gap budget at the end of the run and records
// per-stream statistics in the result.
func (r *runner) checkStreams() Check {
	var fails []string
	for i, c := range r.clients {
		st := c.Stats()
		r.res.Streams = append(r.res.Streams, st)
		if st.Frames == 0 {
			fails = append(fails, fmt.Sprintf("stream %d: no video", i))
		} else if st.Gaps > r.spec.GapBudget {
			fails = append(fails, fmt.Sprintf("stream %d: %d gaps exceed budget %d",
				i, st.Gaps, r.spec.GapBudget))
		}
	}
	return verdict("stream-continuity", fails)
}
