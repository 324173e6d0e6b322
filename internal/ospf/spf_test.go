package ospf

import (
	"cmp"
	"net/netip"
	"slices"
	"testing"

	"routeflow/internal/rib"
)

// stub is a stub link of a test graph.
type stub struct {
	prefix netip.Prefix
	metric uint16
}

// spfGraph is an LSDB in a form both runSPF and the brute-force reference
// read: router 0 is the computing router.
type spfGraph struct {
	n      int
	absent []bool     // router has no LSA
	metric [][]uint16 // metric[u][v] > 0: u's LSA lists a p2p link to v
	init   []bool     // router 0's interface to v holds v in Init, not Full
	stubs  [][]stub   // per router
}

// decodeSPFGraph reads fuzz bytes into a graph of 2–12 routers: one byte per
// router for its stubs (drawn from a pool of five prefixes, so routers share
// them) and one per router pair for the link between them, which may be
// missing, one-way or two-way, with costs 1–4 in each direction (so equal
// costs are common).
func decodeSPFGraph(data []byte) spfGraph {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	g := spfGraph{n: 2 + int(next())%11}
	g.absent = make([]bool, g.n)
	g.init = make([]bool, g.n)
	g.metric = make([][]uint16, g.n)
	g.stubs = make([][]stub, g.n)
	for u := range g.n {
		g.metric[u] = make([]uint16, g.n)
		c := next()
		g.absent[u] = u != 0 && c&0x0f == 0x0f
		for k := range int(c>>6) % 3 {
			g.stubs[u] = append(g.stubs[u], stub{
				prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte((int(c) + k) % 5), 0}), 24),
				metric: uint16(1 + (int(c>>3)+k)%3),
			})
		}
	}
	for u := range g.n {
		for v := u + 1; v < g.n; v++ {
			b := next()
			fwd, rev := uint16(1+(b>>2)&3), uint16(1+(b>>4)&3)
			switch b & 3 {
			case 1:
				g.metric[u][v], g.metric[v][u] = fwd, rev
			case 2:
				g.metric[u][v] = fwd
			case 3:
				g.metric[v][u] = rev
			}
			if u == 0 {
				g.init[v] = b&0xc0 == 0xc0
			}
		}
	}
	return g
}

func spfRouterID(u int) uint32 { return 0x0aff0001 + uint32(u) }

// spfLinkAddr is u's interface address on its link to v.
func spfLinkAddr(u, v int) uint32 { return 0xac100000 | uint32(u)<<8 | uint32(v) }

// instance builds router 0's OSPF instance over g: its LSDB, and one
// interface per link router 0 lists, with the neighbor Full unless g says
// Init.
func (g spfGraph) instance(t testing.TB) (*Instance, *rib.RIB) {
	t.Helper()
	r := rib.New()
	inst, err := New(Config{RouterID: addr(spfRouterID(0)), RIB: r})
	if err != nil {
		t.Fatal(err)
	}
	for u := range g.n {
		if g.absent[u] {
			continue
		}
		l := &lsa{AdvRouter: spfRouterID(u), Seq: InitialSeq}
		for v := range g.n {
			if m := g.metric[u][v]; m > 0 {
				l.Links = append(l.Links, rlaLink{ID: spfRouterID(v), Data: spfLinkAddr(u, v), Type: linkP2P, Metric: m})
			}
		}
		for _, st := range g.stubs[u] {
			mask := ^uint32(0) << uint(32-st.prefix.Bits())
			l.Links = append(l.Links, rlaLink{ID: u32(st.prefix.Addr()), Data: mask, Type: linkStub, Metric: st.metric})
		}
		inst.lsdb[l.AdvRouter] = l
	}
	for v := 1; v < g.n; v++ {
		if g.metric[0][v] == 0 {
			continue
		}
		state := NeighborFull
		if g.init[v] {
			state = NeighborInit
		}
		name := "eth" + string(rune('a'+v))
		inst.ifaces[name] = &Interface{inst: inst, name: name, cost: g.metric[0][v],
			addr:     netip.PrefixFrom(addr(spfLinkAddr(0, v)), 24),
			neighbor: &neighbor{routerID: spfRouterID(v), state: state}}
	}
	return inst, r
}

// bruteForceRoutes is the reference: all-pairs shortest paths (Floyd–
// Warshall) over the links both ends list, then for each prefix the lowest
// metric over every reachable router advertising it, routed via each of
// router 0's neighbors that starts a shortest path to such a router.
func (g spfGraph) bruteForceRoutes() []rib.Route {
	const inf = 1 << 30
	d := make([][]int, g.n)
	for u := range g.n {
		d[u] = make([]int, g.n)
		for v := range g.n {
			switch {
			case u == v:
				d[u][v] = 0
			case g.usable(u, v):
				d[u][v] = int(g.metric[u][v])
			default:
				d[u][v] = inf
			}
		}
	}
	for k := range g.n {
		for u := range g.n {
			for v := range g.n {
				if d[u][k]+d[k][v] < d[u][v] {
					d[u][v] = d[u][k] + d[k][v]
				}
			}
		}
	}
	low := map[netip.Prefix]uint32{}
	for t := 1; t < g.n; t++ {
		if d[0][t] >= inf || g.absent[t] {
			continue
		}
		for _, st := range g.stubs[t] {
			m := uint32(d[0][t]) + uint32(st.metric)
			if old, ok := low[st.prefix]; !ok || m < old {
				low[st.prefix] = m
			}
		}
	}
	var out []rib.Route
	type route struct {
		prefix  netip.Prefix
		nextHop netip.Addr
	}
	seen := map[route]bool{}
	for t := 1; t < g.n; t++ {
		if d[0][t] >= inf || g.absent[t] {
			continue
		}
		for _, st := range g.stubs[t] {
			m := uint32(d[0][t]) + uint32(st.metric)
			if m != low[st.prefix] {
				continue
			}
			for v := 1; v < g.n; v++ {
				if !g.usable(0, v) || g.init[v] || int(g.metric[0][v])+d[v][t] != d[0][t] {
					continue
				}
				nh := addr(spfLinkAddr(v, 0))
				if k := (route{st.prefix, nh}); !seen[k] {
					seen[k] = true
					out = append(out, rib.Route{Prefix: st.prefix, NextHop: nh,
						Iface: "eth" + string(rune('a'+v)), Source: rib.SourceOSPF, Metric: m})
				}
			}
		}
	}
	sortRoutes(out)
	return out
}

// usable reports whether SPF may cross the link u→v: both routers have LSAs
// and both list the link.
func (g spfGraph) usable(u, v int) bool {
	return !g.absent[u] && !g.absent[v] && g.metric[u][v] > 0 && g.metric[v][u] > 0
}

func sortRoutes(rs []rib.Route) {
	slices.SortFunc(rs, func(a, b rib.Route) int {
		return cmp.Or(a.Prefix.Addr().Compare(b.Prefix.Addr()), cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits()),
			a.NextHop.Compare(b.NextHop))
	})
}

// ospfRoutes returns every route the RIB holds, sorted.
func ospfRoutes(r *rib.RIB) []rib.Route {
	var out []rib.Route
	r.EachBest(func(paths []rib.Route) { out = append(out, paths...) })
	sortRoutes(out)
	return out
}

// FuzzSPFMatchesBruteForce is the SPF oracle: on LSDBs of up to 12 routers
// with one-way links, equal costs, shared stubs, routers without an LSA and
// neighbors not yet Full, runSPF installs exactly the routes a brute-force
// all-shortest-paths computation derives.
func FuzzSPFMatchesBruteForce(f *testing.F) {
	// A square 0-1-3-2-0 with equal costs: two first hops to router 3.
	f.Add([]byte{2, 0x40, 0x41, 0x42, 0x43, 0x01, 0x01, 0x00, 0x00, 0x01, 0x01})
	// The same square with 1→3 listed by 1 only: one way is unusable.
	f.Add([]byte{2, 0x40, 0x41, 0x42, 0x43, 0x01, 0x01, 0x00, 0x00, 0x02, 0x01})
	// A line 0-1-2 where 2 lists 1 but 1 does not list 2.
	f.Add([]byte{1, 0x40, 0x41, 0x42, 0x01, 0x00, 0x03})
	// Five routers, every pair two-way at cost 1: many equal-cost paths.
	f.Add([]byte{3, 0x40, 0x48, 0x50, 0x58, 0x60, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	// A neighbor in Init, one without an LSA, and unequal costs.
	f.Add([]byte{4, 0x40, 0x4f, 0x42, 0x83, 0x44, 0x05, 0xc1, 0x01, 0x15, 0x01, 0x09, 0x00, 0x01, 0x25, 0x01, 0x01})
	f.Add([]byte{10, 0xff, 0x81, 0x82, 0xc3, 0x44, 0x45, 0x86, 0x87, 0x48, 0x49, 0x4a, 0x4b,
		0x05, 0x11, 0x01, 0x2d, 0x01, 0x00, 0x01, 0x03, 0x02, 0x01, 0x01, 0x35})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeSPFGraph(data)
		inst, r := g.instance(t)
		inst.runSPF()
		got, want := ospfRoutes(r), g.bruteForceRoutes()
		if !slices.Equal(got, want) {
			t.Fatalf("runSPF routes differ from the reference on %+v\n got: %v\nwant: %v", g, got, want)
		}
	})
}

// TestSPFAllocBudget: a steady-state SPF over a 28-router LSDB (a ring with
// chords, so with equal-cost paths) allocates nothing but the route slice it
// hands to the RIB, and the RIB, handed an unchanged set, nothing.
func TestSPFAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 28
	g := spfGraph{n: n, absent: make([]bool, n), init: make([]bool, n),
		metric: make([][]uint16, n), stubs: make([][]stub, n)}
	for u := range n {
		g.metric[u] = make([]uint16, n)
	}
	link := func(u, v int) { g.metric[u][v], g.metric[v][u] = 10, 10 }
	for u := range n {
		link(u, (u+1)%n)
		if u%4 == 0 {
			link(u, (u+7)%n)
		}
		g.stubs[u] = append(g.stubs[u], stub{
			prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(u), 0}), 30), metric: 10})
	}
	inst, r := g.instance(t)
	inst.runSPF()
	if got, want := ospfRoutes(r), g.bruteForceRoutes(); !slices.Equal(got, want) || len(got) < n-1 {
		t.Fatalf("28-router SPF: %d routes, reference %d", len(got), len(want))
	}
	if got := testing.AllocsPerRun(100, inst.runSPF); got > 1 {
		t.Fatalf("runSPF = %.1f allocs/run, budget 1 (the route slice)", got)
	}
}
