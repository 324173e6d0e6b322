package core

// The deployment's traffic-engineering manager: an online re-optimization
// loop over the streaming-telemetry utilization view. Each round it builds
// the optimizer's state — measured link rates against the modeled link
// capacity, and every placed flow with its current path and its live
// equal-cost alternates — and asks the te.Engine for migrations. Accepted
// moves become path assignments; the telemetry placement refresh turns
// assignments into (a) the path the flow's counters are charged along and
// (b) path-pin flow entries pushed through each master replica's desired-
// state discipline, so the charged path and the forwarded path stay one and
// the same. Assignments whose path loses a link are dropped, falling the
// pair back to shortest-path ECMP — a TE decision can go stale, never
// blackhole.

import (
	"sort"
	"time"

	"routeflow/internal/te"
	"routeflow/internal/telemetry"
	"routeflow/internal/topo"
)

const (
	teDefaultInterval = time.Second
	teCapacityBPS     = 1 << 20 // modeled link capacity: 1 MiB/s
	// teMaxCandidates caps the equal-cost walks enumerated per pair; fat
	// trees explode combinatorially and a handful of alternates is enough
	// spread for the optimizer.
	teMaxCandidates = 6
)

// TEEnabled reports whether the traffic-engineering loop runs.
func (d *Deployment) TEEnabled() bool { return d.opts.TE }

// teLoop re-optimizes until the deployment closes. It shares the telemetry
// manager's stop signal: TE without telemetry cannot exist.
func (d *Deployment) teLoop() {
	defer d.telWG.Done()
	iv := d.opts.TEInterval
	if iv <= 0 {
		iv = teDefaultInterval
	}
	tick := d.clk.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-d.telStop:
			return
		case <-tick.C():
		}
		d.refreshTE()
	}
}

// refreshTE runs one optimization round.
func (d *Deployment) refreshTE() {
	pls := d.TelemetryPlacements()
	if len(pls) == 0 {
		return
	}
	snap := d.TelemetrySnapshot()
	linkUp := d.linkUpFunc()
	live := make(map[telemetry.LinkKey]bool, d.graph.NumLinks())
	for _, l := range d.graph.Links() {
		if linkUp(l) {
			live[telemetry.MakeLinkKey(l.A, l.B)] = true
		}
	}

	st := te.State{
		Links:           make(map[telemetry.LinkKey]te.Link, len(snap.Links)),
		DefaultCapacity: teCapacityBPS,
	}
	for _, ls := range snap.Links {
		st.Links[ls.Link] = te.Link{Rate: ls.RateBPS, Capacity: teCapacityBPS}
	}
	rate := make(map[telemetry.FlowID]float64, len(snap.Flows))
	for _, fs := range snap.Flows {
		rate[fs.ID] = fs.RateBPS
	}
	for _, pl := range pls {
		if pl.Path == nil {
			continue
		}
		st.Flows = append(st.Flows, te.Flow{
			Pair:       [2]int{pl.SrcNode, pl.DstNode},
			Rate:       rate[pl.ID],
			Path:       pl.Path,
			Candidates: EqualCostPaths(d.graph, pl.SrcNode, pl.DstNode, linkUp, teMaxCandidates),
		})
	}

	d.teMu.Lock()
	// Drop assignments the topology no longer carries: the pair falls back
	// to its live shortest path on the next placement refresh.
	for pair, path := range d.teAssigned {
		ok := len(path) >= 2
		for i := 1; ok && i < len(path); i++ {
			ok = live[telemetry.MakeLinkKey(path[i-1], path[i])]
		}
		if !ok {
			delete(d.teAssigned, pair)
		}
	}
	moves := d.teEngine.Plan(st)
	for _, mv := range moves {
		d.teAssigned[mv.Pair] = append([]int(nil), mv.To...)
		d.teMoves++
	}
	d.teMu.Unlock()
	if len(moves) > 0 {
		// Apply immediately: re-place (and re-pin) under the new paths
		// instead of waiting out the placement refresh tick.
		d.refreshTelemetry()
	}
}

// TEAssignments returns a copy of the optimizer's current path overrides per
// directed host pair (empty until a move is decided, and always empty with
// TE off).
func (d *Deployment) TEAssignments() map[[2]int][]int {
	d.teMu.Lock()
	defer d.teMu.Unlock()
	out := make(map[[2]int][]int, len(d.teAssigned))
	for k, v := range d.teAssigned {
		out[k] = append([]int(nil), v...)
	}
	return out
}

// TEMoveCount returns the total migrations decided since start.
func (d *Deployment) TEMoveCount() uint64 {
	d.teMu.Lock()
	defer d.teMu.Unlock()
	return d.teMoves
}

// EqualCostPaths enumerates min-hop walks from src to dst over live links,
// in deterministic (ascending-neighbor) order, capped at max. The current
// shortest path is always among them because the BFS layering admits every
// minimal walk.
func EqualCostPaths(g *topo.Graph, src, dst int, linkUp func(topo.Link) bool, max int) [][]int {
	n := g.NumNodes()
	if src == dst || src < 0 || dst < 0 || src >= n || dst >= n {
		return nil
	}
	adj := make([][]int, n)
	for _, l := range g.Links() {
		if linkUp != nil && !linkUp(l) {
			continue
		}
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for i := range adj {
		sort.Ints(adj[i])
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	if dist[src] == -1 {
		return nil
	}
	var out [][]int
	var walk []int
	var dfs func(u int)
	dfs = func(u int) {
		if len(out) >= max {
			return
		}
		walk = append(walk, u)
		if u == dst {
			out = append(out, append([]int(nil), walk...))
		} else {
			for _, v := range adj[u] {
				if dist[v] == dist[u]-1 {
					dfs(v)
				}
			}
		}
		walk = walk[:len(walk)-1]
	}
	dfs(src)
	return out
}
