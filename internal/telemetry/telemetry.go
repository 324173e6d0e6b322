// Package telemetry is the controller half of the streaming-stats pipeline:
// it decides where in the network each flow is observed and turns the
// switches' TELEMETRY_EXPORT streams into rolling utilization views.
//
// Placement follows Floware's balanced flow monitoring: every flow (a
// directed host pair) is observed at exactly one switch on its live
// shortest path, chosen greedily so the per-switch observation load stays
// even — no switch pays the whole measurement cost, and a topology change
// recomputes the assignment against the links that are actually up.
//
// Aggregation keeps one view per flow and one per link. A flow's counters
// are charged by its monitor switch's exports (deltas applied exactly once,
// absolutes applied idempotently — see the protocol notes on Aggregator);
// every link on the flow's path is charged alongside, which is what turns
// single-point observation into network-wide utilization. Views expose both
// lifetime totals and ring-buffer windowed rates with O(1) update.
package telemetry

import (
	"sort"

	"routeflow/internal/topo"
)

// FlowID names one monitored flow; IDs are stable across switches,
// re-placements and replicas so every layer aggregates by the same key.
type FlowID = uint32

// Placement is one flow's monitoring assignment: the live shortest path
// from SrcNode to DstNode and the switch on it chosen as the observer.
type Placement struct {
	ID      FlowID
	SrcNode int
	DstNode int
	// Path is the node-ID walk src..dst over live links; nil when the pair
	// is partitioned (the flow is unobservable and unplaced).
	Path []int
	// Monitor is the observing node, or -1 when Path is nil.
	Monitor int
}

// LinkKey canonically names an undirected link by its endpoints (A < B).
type LinkKey struct {
	A, B int
}

// MakeLinkKey orders the endpoints.
func MakeLinkKey(a, b int) LinkKey {
	if a > b {
		a, b = b, a
	}
	return LinkKey{A: a, B: b}
}

// PathLinks lists the links a node walk traverses.
func PathLinks(path []int) []LinkKey {
	if len(path) < 2 {
		return nil
	}
	out := make([]LinkKey, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		out = append(out, MakeLinkKey(path[i-1], path[i]))
	}
	return out
}

// ComputePlacementsAssigned assigns every flow (directed node pair) a
// monitor switch on its path, balancing observation load: flows are placed
// in ID order, each on the least-loaded switch of its path (ties to the
// lowest node ID). linkUp reports whether a topology link is currently
// usable; nil means all links are up. The result is deterministic for a
// given topology, pair list, link state and assignment.
//
// assigned holds traffic-engineering path overrides: it maps a directed pair
// to the node walk the TE optimizer pinned it to (nil or empty: none). An
// override is honored only while every hop is a live link of the topology;
// a missing or dead override falls back to the live shortest path, so the
// view keeps charging a path that can actually carry the traffic.
func ComputePlacementsAssigned(g *topo.Graph, pairs [][2]int, linkUp func(topo.Link) bool, assigned map[[2]int][]int) []Placement {
	out := make([]Placement, 0, len(pairs))
	load := make(map[int]int)
	for i, p := range pairs {
		pl := Placement{ID: FlowID(i + 1), SrcNode: p[0], DstNode: p[1], Monitor: -1}
		if w := assigned[[2]int{p[0], p[1]}]; pathLive(g, p[0], p[1], w, linkUp) {
			pl.Path = append([]int(nil), w...)
		} else {
			pl.Path = livePath(g, p[0], p[1], linkUp)
		}
		if pl.Path != nil {
			best, bestLoad := -1, 0
			for _, n := range pl.Path {
				if best == -1 || load[n] < bestLoad || (load[n] == bestLoad && n < best) {
					best, bestLoad = n, load[n]
				}
			}
			pl.Monitor = best
			load[best]++
		}
		out = append(out, pl)
	}
	return out
}

// pathLive reports whether walk is a usable src..dst path: endpoints match
// and every consecutive hop is a live link of the topology.
func pathLive(g *topo.Graph, src, dst int, walk []int, linkUp func(topo.Link) bool) bool {
	if len(walk) < 1 || walk[0] != src || walk[len(walk)-1] != dst {
		return false
	}
	live := make(map[LinkKey]bool)
	for _, l := range g.Links() {
		if linkUp == nil || linkUp(l) {
			live[MakeLinkKey(l.A, l.B)] = true
		}
	}
	for i := 1; i < len(walk); i++ {
		if !live[MakeLinkKey(walk[i-1], walk[i])] {
			return false
		}
	}
	return true
}

// livePath is a BFS shortest path over live links with deterministic
// tie-breaks (lowest-ID neighbor expands first).
func livePath(g *topo.Graph, src, dst int, linkUp func(topo.Link) bool) []int {
	if src == dst {
		return []int{src}
	}
	n := g.NumNodes()
	if src < 0 || dst < 0 || src >= n || dst >= n {
		return nil
	}
	links := g.Links()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		next := neighborsVia(g, links, u, linkUp)
		for _, v := range next {
			if parent[v] != -1 {
				continue
			}
			parent[v] = u
			if v == dst {
				var path []int
				for w := dst; w != src; w = parent[w] {
					path = append(path, w)
				}
				path = append(path, src)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// neighborsVia lists u's neighbors reachable over live links, sorted for
// determinism.
func neighborsVia(g *topo.Graph, links []topo.Link, u int, linkUp func(topo.Link) bool) []int {
	var out []int
	for _, li := range g.IncidentLinks(u) {
		l := links[li]
		if linkUp != nil && !linkUp(l) {
			continue
		}
		v := l.A
		if v == u {
			v = l.B
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
