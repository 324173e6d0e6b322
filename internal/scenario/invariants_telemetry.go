package scenario

// The telemetry invariant pair. Both retry briefly before failing, like
// checkFlowConsistency: placement recomputation and export streaming are
// asynchronous level-triggered loops, so a quiesced network may still be a
// refresh interval away from a settled monitoring program.

import (
	"fmt"
	"time"

	"routeflow/internal/telemetry"
)

const telemetryCheckBudget = 15 * time.Second

// checkTelemetryPlacement verifies the Floware structural properties at a
// quiesce point: every host pair in the same live component is placed on a
// path of live links with its monitor on that path; partitioned pairs are
// honestly unplaced; and each placed flow's rule is installed on exactly one
// switch — the single-observer property that makes double counting
// structurally impossible.
func (r *runner) checkTelemetryPlacement() Check {
	deadline := time.Now().Add(telemetryCheckBudget)
	var gap string
	for {
		gap = r.telemetryPlacementGap()
		if gap == "" {
			return Check{Name: "telemetry-placement", OK: true}
		}
		if time.Now().After(deadline) {
			return Check{Name: "telemetry-placement", OK: false, Detail: gap}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *runner) telemetryPlacementGap() string {
	pls := r.d.TelemetryPlacements()
	if len(pls) == 0 {
		return "no placements computed"
	}
	linkOf := make(map[telemetry.LinkKey]int)
	for i, l := range r.d.Graph().Links() {
		linkOf[telemetry.MakeLinkKey(l.A, l.B)] = i
	}
	// Where is each flow's rule actually installed?
	ruleAt := make(map[uint32][]int)
	for _, n := range r.d.Graph().Nodes() {
		sw, ok := r.d.Switch(n.ID)
		if !ok {
			continue
		}
		for _, mc := range sw.MonitorCounters() {
			ruleAt[mc.Rule.ID] = append(ruleAt[mc.Rule.ID], n.ID)
		}
	}
	for _, pl := range pls {
		if !r.d.SameLiveComponent(pl.SrcNode, pl.DstNode) {
			if pl.Path != nil {
				return fmt.Sprintf("flow %d (%d→%d) placed across a partition", pl.ID, pl.SrcNode, pl.DstNode)
			}
			if len(ruleAt[pl.ID]) > 0 {
				return fmt.Sprintf("flow %d unplaced but its rule survives on switches %v", pl.ID, ruleAt[pl.ID])
			}
			continue
		}
		if pl.Path == nil || pl.Monitor < 0 {
			return fmt.Sprintf("flow %d (%d→%d) unplaced despite a live path", pl.ID, pl.SrcNode, pl.DstNode)
		}
		onPath := false
		for _, n := range pl.Path {
			if n == pl.Monitor {
				onPath = true
			}
		}
		if !onPath {
			return fmt.Sprintf("flow %d monitored off-path at %d (path %v)", pl.ID, pl.Monitor, pl.Path)
		}
		for _, lk := range telemetry.PathLinks(pl.Path) {
			li, ok := linkOf[lk]
			if !ok || !r.d.LinkIsUp(li) {
				return fmt.Sprintf("flow %d path %v crosses dead link %v", pl.ID, pl.Path, lk)
			}
		}
		switch at := ruleAt[pl.ID]; {
		case len(at) == 0:
			return fmt.Sprintf("flow %d rule not installed anywhere (want switch %d)", pl.ID, pl.Monitor)
		case len(at) > 1:
			return fmt.Sprintf("flow %d observed at %d switches %v — double counting", pl.ID, len(at), at)
		case at[0] != pl.Monitor:
			return fmt.Sprintf("flow %d rule on switch %d, placement says %d", pl.ID, at[0], pl.Monitor)
		}
	}
	return ""
}

// checkTelemetryConservation verifies the exactly-once stream discipline
// against ground truth. For every placed flow it pins the monitor switch's
// absolute counter at check start, then requires the aggregated view to
// (a) never exceed the switch's current absolute — a view above ground truth
// means a gain was charged twice, the failure mode re-exports and master
// failovers would hit — and (b) catch up to the pinned level within the
// budget — counters may not be lost either. Both halves hold even while
// streams keep generating traffic, because the pin is a fixed target.
func (r *runner) checkTelemetryConservation() Check {
	pinned := make(map[uint32]uint64)
	for _, n := range r.d.Graph().Nodes() {
		if sw, ok := r.d.Switch(n.ID); ok {
			for _, mc := range sw.MonitorCounters() {
				pinned[mc.Rule.ID] = mc.Packets
			}
		}
	}
	deadline := time.Now().Add(telemetryCheckBudget)
	var gap string
	for {
		gap = r.telemetryConservationGap(pinned)
		if gap == "" {
			return Check{Name: "telemetry-conservation", OK: true}
		}
		if time.Now().After(deadline) {
			return Check{Name: "telemetry-conservation", OK: false, Detail: gap}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *runner) telemetryConservationGap(pinned map[uint32]uint64) string {
	snap := r.d.TelemetrySnapshot()
	views := make(map[uint32]telemetry.FlowStat, len(snap.Flows))
	for _, f := range snap.Flows {
		views[f.ID] = f
	}
	for _, pl := range r.d.TelemetryPlacements() {
		if pl.Monitor < 0 {
			continue
		}
		sw, ok := r.d.Switch(pl.Monitor)
		if !ok {
			continue
		}
		var abs uint64
		found := false
		for _, mc := range sw.MonitorCounters() {
			if mc.Rule.ID == pl.ID {
				abs, found = mc.Packets, true
			}
		}
		if !found {
			return fmt.Sprintf("flow %d: rule missing on monitor switch %d", pl.ID, pl.Monitor)
		}
		v, ok := views[pl.ID]
		if !ok {
			return fmt.Sprintf("flow %d: no aggregated view", pl.ID)
		}
		// (a) No double counting: the view may never run ahead of the
		// switch's absolute truth. (Read abs after the view, so a racing
		// export can only make abs larger.)
		if v.Packets > abs {
			for _, mc := range sw.MonitorCounters() {
				if mc.Rule.ID == pl.ID {
					abs = mc.Packets
				}
			}
			if v.Packets > abs {
				return fmt.Sprintf("flow %d: view %d packets EXCEEDS switch absolute %d — double counted",
					pl.ID, v.Packets, abs)
			}
		}
		// (b) Conservation: the view catches up to the level the switch had
		// already seen when the check began.
		if want := pinned[pl.ID]; v.Packets < want {
			return fmt.Sprintf("flow %d: view %d packets lags pinned absolute %d", pl.ID, v.Packets, want)
		}
	}
	return ""
}
