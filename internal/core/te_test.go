package core

import (
	"math"
	"testing"

	"routeflow/internal/te"
	"routeflow/internal/telemetry"
	"routeflow/internal/topo"
)

// TestTEShedsAQuarterOfPeakLinkLoad is the traffic-engineering gate: on a
// 4-ary fat tree carrying a Zipf-skewed demand between every pair of edge
// switches, the optimizer iterated to a fixed point must bring the maximum
// link utilization to at most 0.75× of plain shortest-path placement. The
// computation is the controller's own model — telemetry placements,
// per-link charging, the te.Engine planning loop — as the deployment's TE
// loop would run it over a perfectly converged telemetry view, so the
// verdict is deterministic.
func TestTEShedsAQuarterOfPeakLinkLoad(t *testing.T) {
	g := topo.FatTree(4)
	edges := topo.FatTreeEdges(4)
	var pairs [][2]int
	for _, s := range edges {
		for _, d := range edges {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}
	// Zipf demand: pair i carries topRate/(i+1)^skew. The scale puts the
	// hottest shortest-path links well past the hot threshold while keeping
	// every single pair small enough to fit under the relief watermark on a
	// colder path — the regime the optimizer exists for.
	const (
		capacity = 1.0
		topRate  = 0.30
		skew     = 0.9
		rounds   = 64
	)
	rates := make([]float64, len(pairs))
	for i := range rates {
		rates[i] = topRate / math.Pow(float64(i+1), skew)
	}
	up := func(topo.Link) bool { return true }

	// linkLoads charges every pair's rate to each link of its placed path.
	linkLoads := func(pls []telemetry.Placement) map[telemetry.LinkKey]float64 {
		load := make(map[telemetry.LinkKey]float64)
		for i, pl := range pls {
			for _, lk := range telemetry.PathLinks(pl.Path) {
				load[lk] += rates[i]
			}
		}
		return load
	}
	maxUtil := func(assigned map[[2]int][]int) float64 {
		peak := 0.0
		for _, r := range linkLoads(telemetry.ComputePlacementsAssigned(g, pairs, up, assigned)) {
			peak = math.Max(peak, r/capacity)
		}
		return peak
	}

	eng := te.New(te.Config{})
	assigned := make(map[[2]int][]int)
	for round := 0; round < rounds; round++ {
		pls := telemetry.ComputePlacementsAssigned(g, pairs, up, assigned)
		st := te.State{Links: make(map[telemetry.LinkKey]te.Link), DefaultCapacity: capacity}
		for lk, r := range linkLoads(pls) {
			st.Links[lk] = te.Link{Rate: r, Capacity: capacity}
		}
		for i, pl := range pls {
			if pl.Path == nil {
				continue
			}
			st.Flows = append(st.Flows, te.Flow{
				Pair: [2]int{pl.SrcNode, pl.DstNode}, Rate: rates[i], Path: pl.Path,
				Candidates: EqualCostPaths(g, pl.SrcNode, pl.DstNode, up, 6),
			})
		}
		moves := eng.Plan(st)
		if len(moves) == 0 {
			break
		}
		for _, mv := range moves {
			assigned[mv.Pair] = mv.To
		}
	}

	sp, opt := maxUtil(nil), maxUtil(assigned)
	t.Logf("max link utilization: shortest-path %.3f, TE %.3f (ratio %.3f)", sp, opt, opt/sp)
	if opt > 0.75*sp {
		t.Fatalf("TE max link utilization %.3f is %.3fx of shortest-path %.3f; it must shed at least a quarter",
			opt, opt/sp, sp)
	}
}
