package telemetry

import (
	"fmt"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/openflow"
	"routeflow/internal/topo"
)

// allPairs returns every ordered pair of distinct nodes from the list.
func allPairs(nodes []int) [][2]int {
	var out [][2]int
	for _, s := range nodes {
		for _, d := range nodes {
			if s != d {
				out = append(out, [2]int{s, d})
			}
		}
	}
	return out
}

// checkBalance verifies the Floware property: every flow observed at
// exactly one on-path switch, with max per-switch load ≤ 2× the mean over
// path-eligible switches.
func checkBalance(t *testing.T, g *topo.Graph, pairs [][2]int) {
	t.Helper()
	pls := ComputePlacementsAssigned(g, pairs, nil, nil)
	if len(pls) != len(pairs) {
		t.Fatalf("%d placements for %d pairs", len(pls), len(pairs))
	}
	load := make(map[int]int)
	eligible := make(map[int]bool)
	for _, pl := range pls {
		if pl.Path == nil || pl.Monitor < 0 {
			t.Fatalf("flow %d (%d→%d) unplaced on a connected topology", pl.ID, pl.SrcNode, pl.DstNode)
		}
		onPath := false
		for _, n := range pl.Path {
			eligible[n] = true
			if n == pl.Monitor {
				onPath = true
			}
		}
		if !onPath {
			t.Fatalf("flow %d monitored off-path at %d (path %v)", pl.ID, pl.Monitor, pl.Path)
		}
		load[pl.Monitor]++
	}
	max, total := 0, 0
	for _, l := range load {
		total += l
		if l > max {
			max = l
		}
	}
	mean := float64(total) / float64(len(eligible))
	if float64(max) > 2*mean {
		t.Fatalf("placement unbalanced: max load %d > 2×mean %.2f (loads %v)", max, mean, load)
	}
}

func TestPlacementBalanceGrid9(t *testing.T) {
	g := topo.Grid(3, 3)
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	checkBalance(t, g, allPairs(nodes))
}

func TestPlacementBalanceFatTree4(t *testing.T) {
	checkBalance(t, topo.FatTree(4), allPairs(topo.FatTreeEdges(4)))
}

// TestPlacementDeterministic: one input, one placement; an empty override
// map (what a deployment without TE passes) places like nil.
func TestPlacementDeterministic(t *testing.T) {
	g := topo.Grid(3, 3)
	pairs := allPairs([]int{0, 4, 8, 2, 6})
	a := ComputePlacementsAssigned(g, pairs, nil, nil)
	b := ComputePlacementsAssigned(g, pairs, nil, nil)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("placement is not deterministic")
	}
	if c := ComputePlacementsAssigned(g, pairs, nil, map[[2]int][]int{}); fmt.Sprint(c) != fmt.Sprint(a) {
		t.Fatalf("empty override map placed differently from nil:\n%v\n%v", c, a)
	}
}

// TestPlacementRoutesAroundDeadLinks: a flow re-paths over live links only,
// and an unreachable pair is reported unplaced instead of guessed.
func TestPlacementRoutesAroundDeadLinks(t *testing.T) {
	g := topo.Line(3) // 0 - 1 - 2
	pls := ComputePlacementsAssigned(g, [][2]int{{0, 2}}, nil, nil)
	if len(pls[0].Path) != 3 {
		t.Fatalf("line path = %v", pls[0].Path)
	}
	down := func(l topo.Link) bool { return !(l.A == 0 && l.B == 1) && !(l.A == 1 && l.B == 0) }
	pls = ComputePlacementsAssigned(g, [][2]int{{0, 2}, {1, 2}}, down, nil)
	if pls[0].Path != nil || pls[0].Monitor != -1 {
		t.Fatalf("partitioned pair got placed: %+v", pls[0])
	}
	if pls[1].Path == nil {
		t.Fatalf("live pair unplaced: %+v", pls[1])
	}
}

func mkExport(epoch uint64, entries ...openflow.TelemetryEntry) *openflow.TelemetryExport {
	return &openflow.TelemetryExport{Epoch: epoch, Entries: entries}
}

func testAggregator(t *testing.T) *Aggregator {
	t.Helper()
	a := NewAggregator(clock.NewFake(), 9, 4*time.Second)
	a.SetFlows([]Placement{
		{ID: 1, SrcNode: 0, DstNode: 2, Path: []int{0, 1, 2}, Monitor: 1},
	}, func(node int) uint64 { return uint64(node + 1) })
	return a
}

// TestAggregatorExactlyOnce feeds one flow's absolute levels to the
// aggregator and checks, after each export, the view's level and the total
// charged to the flow's rate window and to both links of its path: every
// packet the switch counted after the first sighting is charged once, and
// none is charged twice.
func TestAggregatorExactlyOnce(t *testing.T) {
	a := testAggregator(t)
	steps := []struct {
		what    string
		level   uint64 // the switch's absolute packet count in the export
		view    uint64 // the view's packet count after it
		charged uint64 // packets charged in all after it
	}{
		{"a first sighting baselines without charging", 100, 100, 0},
		{"a gain charges", 105, 105, 5},
		{"a replayed export charges nothing", 105, 105, 5},
		// The export at level 108 is lost.
		{"the next export covers a skipped one", 110, 110, 10},
		{"a lower level re-baselines without charging", 3, 3, 10},
		{"gains charge again from the new baseline", 7, 7, 14},
	}
	for _, st := range steps {
		a.HandleExport(2, mkExport(9, openflow.TelemetryEntry{ID: 1, Packets: st.level, Bytes: 10 * st.level}))
		snap := a.Snapshot()
		f := snap.Flows[0]
		if f.Packets != st.view || f.Bytes != 10*st.view {
			t.Fatalf("%s: view %d pkts / %d bytes, want %d / %d", st.what, f.Packets, f.Bytes, st.view, 10*st.view)
		}
		// The window spans 4 s and the clock stands still: rate = charge / 4.
		if want := float64(st.charged) / 4; f.RatePPS != want || f.RateBPS != 10*want {
			t.Fatalf("%s: window rate %v pps / %v bps, want %v / %v", st.what, f.RatePPS, f.RateBPS, want, 10*want)
		}
		if st.charged == 0 && len(snap.Links) != 0 {
			t.Fatalf("%s: links charged %+v", st.what, snap.Links)
		}
		if st.charged > 0 && len(snap.Links) != 2 {
			t.Fatalf("%s: links = %+v, want the path's two", st.what, snap.Links)
		}
		for _, ls := range snap.Links {
			if ls.Packets != st.charged || ls.Bytes != 10*st.charged {
				t.Fatalf("%s: link %v charged %d pkts / %d bytes, want %d / %d",
					st.what, ls.Link, ls.Packets, ls.Bytes, st.charged, 10*st.charged)
			}
		}
	}
}

// TestAggregatorIgnoresForeignStreams: wrong epoch, wrong switch, unknown
// flow — none may touch the views.
func TestAggregatorIgnoresForeignStreams(t *testing.T) {
	a := testAggregator(t)
	a.HandleExport(2, mkExport(9, openflow.TelemetryEntry{ID: 1, Packets: 7, Bytes: 70}))
	// Another epoch.
	a.HandleExport(2, mkExport(8, openflow.TelemetryEntry{ID: 1, Packets: 99, Bytes: 1}))
	// Same flow reported by a switch that is not its monitor.
	a.HandleExport(3, mkExport(9, openflow.TelemetryEntry{ID: 1, Packets: 99, Bytes: 1}))
	// Unknown flow ID.
	a.HandleExport(2, mkExport(9, openflow.TelemetryEntry{ID: 42, Packets: 99, Bytes: 1}))
	if f := a.Snapshot().Flows[0]; f.Packets != 7 {
		t.Fatalf("foreign stream leaked into the view: %+v", f)
	}
}

// TestAggregatorSetFlowsKeepsViews: re-placement keeps a view whose monitor
// stayed put and resets one whose monitor moved.
func TestAggregatorSetFlowsKeepsViews(t *testing.T) {
	a := testAggregator(t)
	a.HandleExport(2, mkExport(9, openflow.TelemetryEntry{ID: 1, Packets: 50, Bytes: 500}))
	a.SetFlows([]Placement{
		{ID: 1, SrcNode: 0, DstNode: 2, Path: []int{0, 1, 2}, Monitor: 1},
	}, func(node int) uint64 { return uint64(node + 1) })
	if f := a.Snapshot().Flows[0]; f.Packets != 50 {
		t.Fatalf("unchanged monitor lost its view: %+v", f)
	}
	a.SetFlows([]Placement{
		{ID: 1, SrcNode: 0, DstNode: 2, Path: []int{0, 1, 2}, Monitor: 2},
	}, func(node int) uint64 { return uint64(node + 1) })
	if f := a.Snapshot().Flows[0]; f.Packets != 0 {
		t.Fatalf("moved monitor kept a stale baseline: %+v", f)
	}
}

func TestWindowRates(t *testing.T) {
	w := newWindow(4 * time.Second)
	base := time.Unix(1000, 0)
	w.add(base, 400, 4000)
	pps, bps := w.rate(base)
	if pps != 100 || bps != 1000 {
		t.Fatalf("rate = %v pps %v bps", pps, bps)
	}
	// Far future: everything aged out.
	if pps, _ = w.rate(base.Add(time.Minute)); pps != 0 {
		t.Fatalf("stale samples survived: %v pps", pps)
	}
	// Partial aging: half the window later, the sample still counts.
	w.add(base, 400, 4000)
	if pps, _ = w.rate(base.Add(2 * time.Second)); pps != 100 {
		t.Fatalf("mid-window rate = %v pps", pps)
	}
}

func TestMergeDisjointSnapshots(t *testing.T) {
	l := MakeLinkKey(1, 0)
	s1 := Snapshot{Flows: []FlowStat{{ID: 2, Packets: 5}},
		Links: []LinkStat{{Link: l, Packets: 5, RatePPS: 1}}}
	s2 := Snapshot{Flows: []FlowStat{{ID: 1, Packets: 3}},
		Links: []LinkStat{{Link: l, Packets: 3, RatePPS: 2}, {Link: MakeLinkKey(1, 2), Packets: 3}}}
	m := Merge(s1, s2)
	if len(m.Flows) != 2 || m.Flows[0].ID != 1 || m.Flows[1].ID != 2 {
		t.Fatalf("flows = %+v", m.Flows)
	}
	if len(m.Links) != 2 || m.Links[0].Packets != 8 || m.Links[0].RatePPS != 3 {
		t.Fatalf("links = %+v", m.Links)
	}
}

// TestAggregatorSetEpochMidWindow pins the epoch-advance contract the TE
// loop depends on: bumping the epoch mid rate-window (as every optimizer
// migration does) keeps totals monotone and the window lossless. The old
// epoch's in-flight export is rejected after the bump, the switch's
// re-export under the new epoch charges only the genuine gain, and the
// rolling window still holds the pre-bump samples — no reset, no double
// count, no rate dip fabricated by the control plane.
func TestAggregatorSetEpochMidWindow(t *testing.T) {
	clk := clock.NewFake()
	a := NewAggregator(clk, 9, 4*time.Second)
	a.SetFlows([]Placement{
		{ID: 1, SrcNode: 0, DstNode: 2, Path: []int{0, 1, 2}, Monitor: 1},
	}, func(node int) uint64 { return uint64(node + 1) })

	// Baseline, then a charged gain in the first half of the window.
	a.HandleExport(2, mkExport(9, openflow.TelemetryEntry{ID: 1, Packets: 100, Bytes: 1000}))
	a.HandleExport(2, mkExport(9, openflow.TelemetryEntry{ID: 1, Packets: 140, Bytes: 1400}))
	if f := a.Snapshot().Flows[0]; f.Packets != 140 || f.RatePPS != 10 {
		t.Fatalf("pre-bump view: %+v", f)
	}

	// The TE loop moves the flow: epoch bumps mid-window.
	clk.Advance(time.Second)
	a.SetEpoch(10)

	// A straggler export from the old epoch must be refused, not applied.
	a.HandleExport(2, mkExport(9, openflow.TelemetryEntry{ID: 1, Packets: 199, Bytes: 1990}))
	if f := a.Snapshot().Flows[0]; f.Packets != 140 {
		t.Fatalf("stale-epoch export charged: %+v", f)
	}

	// The switch re-exports under the new epoch. Its absolute includes 20
	// packets forwarded since its last export; only that gain may charge,
	// and the total must stay monotone through the transition.
	a.HandleExport(2, mkExport(10, openflow.TelemetryEntry{ID: 1, Packets: 160, Bytes: 1600}))
	f := a.Snapshot().Flows[0]
	if f.Packets != 160 || f.Bytes != 1600 {
		t.Fatalf("post-bump total not monotone/lossless: %+v", f)
	}
	// The window still holds both the pre-bump 40 and the post-bump 20:
	// (40 + 20) / 4s = 15 pps. A reset window would read 5.
	if f.RatePPS != 15 {
		t.Fatalf("window lost samples across SetEpoch: %v pps, want 15", f.RatePPS)
	}
	// Links along the path carried the same charges exactly once.
	for _, ls := range a.Snapshot().Links {
		if ls.Packets != 60 {
			t.Fatalf("link %v charged %d pkts across the bump, want 60", ls.Link, ls.Packets)
		}
	}
}
