package telemetry

import (
	"sort"
	"sync"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/openflow"
)

// FlowStat is a snapshot of one monitored flow's view.
type FlowStat struct {
	ID      FlowID
	SrcNode int
	DstNode int
	Monitor int   // observing node, -1 when unplaced
	Path    []int // node walk the view charges links along
	Packets uint64
	Bytes   uint64
	RatePPS float64 // windowed packet rate
	RateBPS float64 // windowed byte rate
}

// LinkStat is a snapshot of one link's utilization view, summed over every
// monitored flow whose path crosses it.
type LinkStat struct {
	Link    LinkKey
	Packets uint64
	Bytes   uint64
	RatePPS float64
	RateBPS float64
}

// Snapshot is one aggregator's (or a whole cluster's merged) view.
type Snapshot struct {
	Flows []FlowStat // ascending flow ID
	Links []LinkStat // ascending (A, B)
}

// flowView is the aggregator's per-flow state: the switch-absolute counter
// level it has applied, and the rolling window.
type flowView struct {
	pl      Placement
	monitor uint64 // DPID of the observing switch
	applied struct{ packets, bytes uint64 }
	synced  bool // false until the first export establishes a baseline
	win     *window
}

type linkView struct {
	packets, bytes uint64
	win            *window
}

// Aggregator turns one controller instance's TELEMETRY_EXPORT stream into
// per-flow and per-link views. Every export entry is the monitor switch's
// absolute counter level, applied idempotently: a level above the applied
// one charges the gain, an equal one charges nothing (a repeated export), and
// a lower one (the switch rebooted) re-baselines without charging. The first
// export of a view only baselines it, so a failed-over controller inherits
// counts without charging history into the current rate window (the
// no-double-count property the chaos invariants check).
//
// One Aggregator serves one epoch: exports from any other epoch are
// ignored, so a replica that lost ownership can never pollute the new
// owner's views.
type Aggregator struct {
	mu    sync.Mutex
	clk   clock.Clock
	epoch uint64
	span  time.Duration
	flows map[FlowID]*flowView
	links map[LinkKey]*linkView
}

// NewAggregator creates an empty aggregator for one epoch. span is the
// rolling-window length (protocol time; 0 = 5s).
func NewAggregator(clk clock.Clock, epoch uint64, span time.Duration) *Aggregator {
	if clk == nil {
		clk = clock.System()
	}
	if span <= 0 {
		span = 5 * time.Second
	}
	return &Aggregator{clk: clk, epoch: epoch, span: span,
		flows: make(map[FlowID]*flowView), links: make(map[LinkKey]*linkView)}
}

// Epoch returns the epoch this aggregator accepts.
func (a *Aggregator) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// SetEpoch moves the aggregator to a new monitoring-program epoch without
// discarding accumulated views. Switches re-export every rule on an epoch
// change, and an export against a synced view charges only the gain over
// the applied level — so advancing the epoch in place is lossless and
// double-count free, whereas recreating the aggregator would zero every
// total on a mere re-placement.
func (a *Aggregator) SetEpoch(e uint64) {
	a.mu.Lock()
	a.epoch = e
	a.mu.Unlock()
}

// SetFlows replaces the set of flows this aggregator owns, keyed by
// placement; monitorDPID maps a placement's monitor node to its switch
// DPID. A flow whose monitor switch is unchanged keeps its view (totals,
// window and baseline); one whose monitor moved starts a fresh view — the
// new switch's counters share no baseline with the old one's.
func (a *Aggregator) SetFlows(pls []Placement, monitorDPID func(node int) uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	next := make(map[FlowID]*flowView, len(pls))
	for _, pl := range pls {
		if pl.Monitor < 0 {
			continue
		}
		dpid := monitorDPID(pl.Monitor)
		if old, ok := a.flows[pl.ID]; ok && old.monitor == dpid {
			old.pl = pl
			next[pl.ID] = old
			continue
		}
		next[pl.ID] = &flowView{pl: pl, monitor: dpid, win: newWindow(a.span)}
	}
	a.flows = next
}

// HandleExport applies one export from the switch with the given DPID. An
// export from another epoch is ignored, and so are entries for flows this
// aggregator does not own at that switch — the level-triggered TELEMETRY_MOD
// push is already retiring those rules.
func (a *Aggregator) HandleExport(dpid uint64, ex *openflow.TelemetryExport) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ex.Epoch != a.epoch {
		return
	}
	now := a.clk.Now()
	for _, e := range ex.Entries {
		fv := a.flows[e.ID]
		if fv == nil || fv.monitor != dpid {
			continue
		}
		var gainPkts, gainBytes uint64
		if fv.synced {
			if e.Packets > fv.applied.packets {
				gainPkts = e.Packets - fv.applied.packets
			}
			if e.Bytes > fv.applied.bytes {
				gainBytes = e.Bytes - fv.applied.bytes
			}
		}
		// A first export (or one below the applied level — the switch
		// rebooted) re-baselines without charging the windows.
		fv.applied.packets, fv.applied.bytes = e.Packets, e.Bytes
		fv.synced = true
		if gainPkts == 0 && gainBytes == 0 {
			continue
		}
		fv.win.add(now, gainPkts, gainBytes)
		for _, lk := range PathLinks(fv.pl.Path) {
			lv := a.links[lk]
			if lv == nil {
				lv = &linkView{win: newWindow(a.span)}
				a.links[lk] = lv
			}
			lv.packets += gainPkts
			lv.bytes += gainBytes
			lv.win.add(now, gainPkts, gainBytes)
		}
	}
}

// Snapshot returns the current views in deterministic order.
func (a *Aggregator) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clk.Now()
	snap := Snapshot{}
	for id, fv := range a.flows {
		pps, bps := fv.win.rate(now)
		snap.Flows = append(snap.Flows, FlowStat{
			ID: id, SrcNode: fv.pl.SrcNode, DstNode: fv.pl.DstNode,
			Monitor: fv.pl.Monitor, Path: append([]int(nil), fv.pl.Path...),
			Packets: fv.applied.packets, Bytes: fv.applied.bytes,
			RatePPS: pps, RateBPS: bps,
		})
	}
	for lk, lv := range a.links {
		pps, bps := lv.win.rate(now)
		snap.Links = append(snap.Links, LinkStat{
			Link: lk, Packets: lv.packets, Bytes: lv.bytes,
			RatePPS: pps, RateBPS: bps,
		})
	}
	sortSnapshot(&snap)
	return snap
}

// Merge combines disjoint snapshots (e.g. one per cluster replica, each
// covering only the flows it owns) into one.
func Merge(parts ...Snapshot) Snapshot {
	var out Snapshot
	linkAgg := make(map[LinkKey]*LinkStat)
	for _, p := range parts {
		out.Flows = append(out.Flows, p.Flows...)
		for _, ls := range p.Links {
			if agg, ok := linkAgg[ls.Link]; ok {
				agg.Packets += ls.Packets
				agg.Bytes += ls.Bytes
				agg.RatePPS += ls.RatePPS
				agg.RateBPS += ls.RateBPS
			} else {
				c := ls
				linkAgg[ls.Link] = &c
			}
		}
	}
	for _, agg := range linkAgg {
		out.Links = append(out.Links, *agg)
	}
	sortSnapshot(&out)
	return out
}

func sortSnapshot(s *Snapshot) {
	sort.Slice(s.Flows, func(i, j int) bool { return s.Flows[i].ID < s.Flows[j].ID })
	sort.Slice(s.Links, func(i, j int) bool {
		if s.Links[i].Link.A != s.Links[j].Link.A {
			return s.Links[i].Link.A < s.Links[j].Link.A
		}
		return s.Links[i].Link.B < s.Links[j].Link.B
	})
}
