package core

// The deployment's telemetry placement manager: it owns the monitoring
// program the RF platforms push to their switches. Every refresh it takes
// the flow population (all directed host pairs), computes a Floware-balanced
// placement over the links that are administratively up, splits the program
// by mastership, and hands each live replica its share. The program epoch
// bumps whenever the computed program changes — placements moved, a link
// died, a shard re-homed — which makes every affected switch re-export its
// rules' absolute counters under the new epoch, so views stay exactly-once
// across failover (the chaos invariants hold the system to this).

import (
	"fmt"
	"strings"
	"time"

	"routeflow/internal/openflow"
	"routeflow/internal/rf"
	"routeflow/internal/telemetry"
	"routeflow/internal/topo"
	"routeflow/internal/vnet"
)

// telemetryRefreshInterval paces placement recomputation (protocol time).
// Refreshes that compute an unchanged program push nothing.
const telemetryRefreshInterval = 500 * time.Millisecond

// telemetryPairs lists the monitored flows: every ordered pair of host
// nodes, in a fixed order so flow IDs are stable across refreshes.
func (d *Deployment) telemetryPairs() [][2]int {
	nodes := d.HostNodes()
	var out [][2]int
	for _, s := range nodes {
		for _, t := range nodes {
			if s != t {
				out = append(out, [2]int{s, t})
			}
		}
	}
	return out
}

// monitorRuleFor compiles one placement into the switch-side match rule:
// traffic from the source host subnet to the destination host subnet.
func monitorRuleFor(pl telemetry.Placement) openflow.MonitorRule {
	r := openflow.MonitorRule{ID: pl.ID}
	src := HostSubnet(pl.SrcNode)
	dst := HostSubnet(pl.DstNode)
	r.Src = src.Addr().As4()
	r.SrcBits = uint8(src.Bits())
	r.Dst = dst.Addr().As4()
	r.DstBits = uint8(dst.Bits())
	return r
}

// linkUpFunc returns the live-link predicate over the deployment's cables.
func (d *Deployment) linkUpFunc() func(topo.Link) bool {
	linkIdx := make(map[topo.Link]int, d.graph.NumLinks())
	for i, l := range d.graph.Links() {
		linkIdx[l] = i
	}
	return func(l topo.Link) bool { return d.LinkIsUp(linkIdx[l]) }
}

// refreshTelemetry recomputes the monitoring program and, when it changed,
// pushes each live replica its share under a bumped epoch. Path pins are
// re-derived and diff-pushed every refresh — under ECMP the pins are what
// hold each monitored pair to the path its counters are charged along, and
// the unconditional push re-seeds a failover successor's empty pin program.
func (d *Deployment) refreshTelemetry() {
	pairs := d.telemetryPairs()
	if len(pairs) == 0 {
		return
	}
	d.telPushMu.Lock()
	defer d.telPushMu.Unlock()
	linkUp := d.linkUpFunc()
	pls := telemetry.ComputePlacementsAssigned(d.graph, pairs, linkUp, d.TEAssignments())

	// Path pins, split by mastership of each transit switch: every placed
	// pair is held to its charged path by an explicit flow entry per hop
	// (the destination switch delivers through its host flow). SetPins
	// diffs internally, so an unchanged program pushes nothing.
	nrep := len(d.reps)
	ports := make(map[[2]int][2]uint16, 2*d.graph.NumLinks())
	for _, l := range d.graph.Links() {
		ports[[2]int{l.A, l.B}] = [2]uint16{uint16(l.APort), uint16(l.BPort)}
		ports[[2]int{l.B, l.A}] = [2]uint16{uint16(l.BPort), uint16(l.APort)}
	}
	pinsFor := make([][]rf.PinFlow, nrep)
	for _, pl := range pls {
		for i := 0; i+1 < len(pl.Path); i++ {
			u, v := pl.Path[i], pl.Path[i+1]
			pp, ok := ports[[2]int{u, v}]
			if !ok {
				continue
			}
			dpid := DPIDForNode(u)
			r, owned := d.ownerOfDPID(dpid)
			if !owned || !d.reps[r].alive.Load() || d.reps[r].partitioned.Load() {
				continue
			}
			pinsFor[r] = append(pinsFor[r], rf.PinFlow{
				DPID:    dpid,
				Src:     HostSubnet(pl.SrcNode),
				Dst:     HostSubnet(pl.DstNode),
				DlSrc:   vnet.MAC(dpid, pp[0]),
				DlDst:   vnet.MAC(DPIDForNode(v), pp[1]),
				OutPort: pp[0],
			})
		}
	}
	for i, rep := range d.reps {
		if rep.alive.Load() {
			rep.platform.SetPins(pinsFor[i])
		}
	}

	// Split by mastership of the monitor switch. A flow whose monitor is
	// currently orphaned (master dead, lease not yet lapsed) is left out
	// this round; the rehome changes the program and the next refresh
	// re-places it on the successor.
	flows := make([][]telemetry.Placement, nrep)
	rules := make([]map[uint64][]openflow.MonitorRule, nrep)
	var sig strings.Builder
	for _, pl := range pls {
		if pl.Monitor < 0 {
			continue
		}
		dpid := DPIDForNode(pl.Monitor)
		r, ok := d.ownerOfDPID(dpid)
		if !ok || !d.reps[r].alive.Load() || d.reps[r].partitioned.Load() {
			continue
		}
		flows[r] = append(flows[r], pl)
		if rules[r] == nil {
			rules[r] = make(map[uint64][]openflow.MonitorRule)
		}
		rules[r][dpid] = append(rules[r][dpid], monitorRuleFor(pl))
		fmt.Fprintf(&sig, "%d@%d>%d;%v|", pl.ID, pl.Monitor, r, pl.Path)
	}

	d.telMu.Lock()
	changed := sig.String() != d.telSig
	if changed {
		d.telEpoch++
		d.telSig = sig.String()
		d.telPlaced = pls
	}
	epoch := d.telEpoch
	d.telMu.Unlock()
	if !changed {
		return // dropped pushes are repaired by each platform's repair loop
	}
	for i, rep := range d.reps {
		if !rep.alive.Load() {
			continue
		}
		rep.platform.SetTelemetry(rf.TelemetryProgram{
			Epoch:       epoch,
			Interval:    d.opts.TelemetryInterval,
			Span:        d.opts.TelemetrySpan,
			Flows:       flows[i],
			MonitorDPID: func(node int) uint64 { return DPIDForNode(node) },
			Rules:       rules[i],
		})
	}
}

// telemetryLoop re-evaluates the program until the deployment closes.
func (d *Deployment) telemetryLoop() {
	defer d.telWG.Done()
	tick := d.clk.NewTicker(telemetryRefreshInterval)
	defer tick.Stop()
	for {
		select {
		case <-d.telStop:
			return
		case <-tick.C():
		}
		d.refreshTelemetry()
	}
}

// TelemetryEnabled reports whether the streaming-telemetry pipeline runs.
func (d *Deployment) TelemetryEnabled() bool { return d.opts.Telemetry }

// TelemetryPlacements returns the current monitoring placement — one entry
// per monitored flow (directed host pair), with its live path and observing
// switch. Empty until telemetry is enabled and the first program computed.
func (d *Deployment) TelemetryPlacements() []telemetry.Placement {
	d.telMu.Lock()
	defer d.telMu.Unlock()
	out := make([]telemetry.Placement, len(d.telPlaced))
	copy(out, d.telPlaced)
	return out
}

// TelemetrySnapshot merges the per-replica flow and link views into the
// cluster-wide picture. Replicas own disjoint flow sets (each aggregates
// only flows monitored on switches it masters), so the merge is exact.
func (d *Deployment) TelemetrySnapshot() telemetry.Snapshot {
	parts := make([]telemetry.Snapshot, 0, len(d.reps))
	for _, rep := range d.reps {
		if rep.alive.Load() {
			parts = append(parts, rep.platform.TelemetrySnapshot())
		}
	}
	return telemetry.Merge(parts...)
}
