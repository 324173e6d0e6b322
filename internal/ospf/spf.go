package ospf

import (
	"cmp"
	"math/bits"
	"net/netip"
	"slices"

	"routeflow/internal/rib"
)

// spfScratch is the working storage of runSPF, reused across runs so that a
// steady-state SPF allocates only the route list it hands the RIB. Routers
// are indexed densely, in router-ID order; the graph is adjacency lists over
// those indexes.
type spfScratch struct {
	ids     []uint32     // index → router ID, ascending
	edgeOff []int        // router i's p2p links are edges[edgeOff[i]:edgeOff[i+1]]
	edges   []spfEdge    // p2p links whose far end has an LSA
	stubOff []int        // router i's stubs are stubs[stubOff[i]:stubOff[i+1]]
	stubs   []spfStub    // stub links
	nbIface []*Interface // index → our interface to that router, if Full
	dist    []int
	visited []bool
	// hops holds each router's first-hop set as a bitset over router
	// indexes, words per router.
	hops  []uint64
	words int
	cands []spfCand
}

// spfEdge is a p2p link from one router to another.
type spfEdge struct {
	to     int    // far end's index
	metric uint16 // cost of the link from the near end
	data   uint32 // the near end's interface address on the link
	bidir  bool   // the far end lists the link back (RFC 2328 §16.1 step 2b)
}

// spfStub is a stub link: the masked network address and prefix length.
type spfStub struct {
	net    uint32
	bits   uint8
	metric uint16
}

// spfCand is a candidate route. An unusable one (no interface: the first
// hop is not our Full neighbor, or none is known) still sets the prefix's
// lowest metric.
type spfCand struct {
	net     uint32
	bits    uint8
	metric  uint32
	nextHop uint32
	ifc     *Interface
}

// index returns id's dense index.
func (s *spfScratch) index(id uint32) (int, bool) { return slices.BinarySearch(s.ids, id) }

// load indexes the LSDB and the Full neighbors. Callers hold i.mu.
func (s *spfScratch) load(i *Instance) {
	s.ids = s.ids[:0]
	for id := range i.lsdb {
		s.ids = append(s.ids, id)
	}
	slices.Sort(s.ids)
	n := len(s.ids)
	s.edgeOff, s.stubOff = s.edgeOff[:0], s.stubOff[:0]
	s.edges, s.stubs = s.edges[:0], s.stubs[:0]
	for _, id := range s.ids {
		s.edgeOff = append(s.edgeOff, len(s.edges))
		s.stubOff = append(s.stubOff, len(s.stubs))
		first := len(s.edges)
		for _, ln := range i.lsdb[id].Links {
			switch ln.Type {
			case linkP2P:
				to, ok := s.index(ln.ID)
				if !ok {
					continue // no LSA from the far end: never bidirectional
				}
				e := spfEdge{to: to, metric: ln.Metric, data: ln.Data}
				if j := slices.IndexFunc(s.edges[first:], func(x spfEdge) bool { return x.to == to }); j >= 0 {
					s.edges[first+j] = e // a repeated neighbor: the last link counts
				} else {
					s.edges = append(s.edges, e)
				}
			case linkStub:
				plen := maskBits(ln.Data)
				s.stubs = append(s.stubs, spfStub{net: ln.ID & ^(^uint32(0) >> plen), bits: uint8(plen), metric: ln.Metric})
			}
		}
	}
	s.edgeOff = append(s.edgeOff, len(s.edges))
	s.stubOff = append(s.stubOff, len(s.stubs))
	for u := 0; u < n; u++ {
		for k := s.edgeOff[u]; k < s.edgeOff[u+1]; k++ {
			s.edges[k].bidir = s.edge(s.edges[k].to, u) != nil
		}
	}
	s.nbIface = resize(s.nbIface, n)
	clear(s.nbIface)
	for _, ifc := range i.ifaces {
		ifc.mu.Lock()
		if nb := ifc.neighbor; nb != nil && nb.state == NeighborFull {
			if j, ok := s.index(nb.routerID); ok {
				s.nbIface[j] = ifc
			}
		}
		ifc.mu.Unlock()
	}
}

// edge returns u's link to v, or nil.
func (s *spfScratch) edge(u, v int) *spfEdge {
	for k := s.edgeOff[u]; k < s.edgeOff[u+1]; k++ {
		if s.edges[k].to == v {
			return &s.edges[k]
		}
	}
	return nil
}

// dijkstra computes distances from router me over bidirectional links,
// tracking ALL equal-cost first hops per destination (ECMP, §16.1's
// "multiple equal-cost paths" clause). A router's first-hop set is final
// once it is extracted: every shortest-path predecessor sits at strictly
// smaller distance (positive costs), so it was extracted — and its own set
// finalized — before, which makes the result independent of tie-breaking in
// the extraction order.
func (s *spfScratch) dijkstra(me int) {
	n := len(s.ids)
	s.words = (n + 63) / 64
	s.dist = resize(s.dist, n)
	s.visited = resize(s.visited, n)
	s.hops = resize(s.hops, n*s.words)
	for v := range s.dist {
		s.dist[v] = unreached
	}
	clear(s.visited)
	clear(s.hops)
	s.dist[me] = 0
	for {
		u, best := -1, unreached
		for v, d := range s.dist {
			if !s.visited[v] && d < best {
				u, best = v, d
			}
		}
		if u < 0 {
			return
		}
		s.visited[u] = true
		for k := s.edgeOff[u]; k < s.edgeOff[u+1]; k++ {
			e := &s.edges[k]
			if !e.bidir {
				continue // unidirectional: not yet usable
			}
			v := e.to
			nd := best + int(e.metric)
			switch {
			case nd < s.dist[v]:
				s.dist[v] = nd
				clear(s.hopSet(v))
				fallthrough
			case nd == s.dist[v]:
				if u == me {
					s.hopSet(v)[v/64] |= 1 << (v % 64)
				} else {
					via, dst := s.hopSet(u), s.hopSet(v)
					for w := range dst {
						dst[w] |= via[w]
					}
				}
			}
		}
	}
}

// unreached is the distance of a router Dijkstra has not reached.
const unreached = int(^uint(0) >> 1)

func (s *spfScratch) hopSet(v int) []uint64 { return s.hops[v*s.words : (v+1)*s.words] }

// collect turns the shortest-path tree into routes: for every reachable
// router's stub links, the prefix via every equal-cost first hop toward
// that router, keeping only the lowest metric per prefix and one route per
// next hop (several routers can advertise one stub prefix, both ends of a
// link for one). Our own stubs are connected routes, not OSPF's business.
func (s *spfScratch) collect(me int) []rib.Route {
	s.cands = s.cands[:0]
	for r, d := range s.dist {
		if r == me || d == unreached {
			continue
		}
		for _, st := range s.stubs[s.stubOff[r]:s.stubOff[r+1]] {
			c := spfCand{net: st.net, bits: st.bits, metric: uint32(d) + uint32(st.metric)}
			usable := false
			for w, word := range s.hopSet(r) {
				for ; word != 0; word &= word - 1 {
					fh := w*64 + bits.TrailingZeros64(word)
					ifc := s.nbIface[fh]
					// Next hop address: the first-hop router's interface
					// address on the link to us, from its LSA's p2p link data.
					back := s.edge(fh, me)
					if ifc == nil || back == nil {
						continue
					}
					c.nextHop, c.ifc = back.data, ifc
					s.cands = append(s.cands, c)
					usable = true
				}
			}
			if !usable {
				s.cands = append(s.cands, c)
			}
		}
	}
	slices.SortFunc(s.cands, func(a, b spfCand) int {
		return cmp.Or(cmp.Compare(a.net, b.net), cmp.Compare(a.bits, b.bits),
			cmp.Compare(a.metric, b.metric), cmp.Compare(a.nextHop, b.nextHop))
	})
	routes := make([]rib.Route, 0, len(s.cands))
	var low uint32
	var last *spfCand // the prefix's last routed candidate
	for k := range s.cands {
		c := &s.cands[k]
		if k == 0 || c.net != s.cands[k-1].net || c.bits != s.cands[k-1].bits {
			low, last = c.metric, nil
		}
		if c.metric != low || c.ifc == nil || last != nil && c.nextHop == last.nextHop {
			continue
		}
		last = c
		routes = append(routes, rib.Route{
			Prefix:  netip.PrefixFrom(addr(c.net), int(c.bits)),
			NextHop: addr(c.nextHop),
			Iface:   c.ifc.name,
			Source:  rib.SourceOSPF,
			Metric:  c.metric,
		})
	}
	return routes
}

// runSPF computes shortest paths over the Router-LSA graph (Dijkstra,
// RFC 2328 §16.1 restricted to p2p links) and installs the resulting routes
// into the RIB, replacing the previous OSPF route set.
func (i *Instance) runSPF() {
	i.cfg.RIB.ReplaceSource(rib.SourceOSPF, i.computeRoutes())
}

// computeRoutes runs Dijkstra over the LSDB on the scratch, which it holds
// for the run (RunSPFNow may race the timer loop), and returns the routes.
func (i *Instance) computeRoutes() []rib.Route {
	i.spfMu.Lock()
	defer i.spfMu.Unlock()
	s := &i.spf
	i.mu.Lock()
	s.load(i)
	me, ok := s.index(u32(i.cfg.RouterID))
	i.spfRun++
	i.mu.Unlock()
	if !ok {
		return nil
	}
	s.dijkstra(me)
	return s.collect(me)
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func maskBits(mask uint32) int {
	bits := 0
	for mask&0x80000000 != 0 {
		bits++
		mask <<= 1
	}
	return bits
}
