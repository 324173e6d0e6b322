package rib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

func TestAddAndLookupLPM(t *testing.T) {
	r := New()
	r.Add(Route{Prefix: pfx("10.0.0.0/8"), NextHop: ip("1.1.1.1"), Iface: "eth0", Source: SourceOSPF, Metric: 20})
	r.Add(Route{Prefix: pfx("10.1.0.0/16"), NextHop: ip("2.2.2.2"), Iface: "eth1", Source: SourceOSPF, Metric: 20})
	r.Add(Route{Prefix: pfx("10.1.2.0/24"), NextHop: ip("3.3.3.3"), Iface: "eth2", Source: SourceOSPF, Metric: 20})

	cases := map[string]string{
		"10.1.2.3": "3.3.3.3", // /24 wins
		"10.1.9.9": "2.2.2.2", // /16
		"10.9.9.9": "1.1.1.1", // /8
	}
	for probe, want := range cases {
		rt, ok := r.Lookup(ip(probe))
		if !ok || rt.NextHop != ip(want) {
			t.Fatalf("lookup(%s) = %v, %v; want via %s", probe, rt, ok, want)
		}
	}
	if _, ok := r.Lookup(ip("192.168.1.1")); ok {
		t.Fatal("lookup outside table succeeded")
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestDefaultRoute(t *testing.T) {
	r := New()
	r.Add(Route{Prefix: pfx("0.0.0.0/0"), NextHop: ip("9.9.9.9"), Source: SourceStatic})
	rt, ok := r.Lookup(ip("203.0.113.77"))
	if !ok || rt.NextHop != ip("9.9.9.9") {
		t.Fatalf("default route lookup = %v, %v", rt, ok)
	}
}

func TestAdminDistancePreference(t *testing.T) {
	r := New()
	r.Add(Route{Prefix: pfx("10.0.0.0/24"), NextHop: ip("5.5.5.5"), Source: SourceOSPF, Metric: 10})
	r.Add(Route{Prefix: pfx("10.0.0.0/24"), Iface: "eth0", Source: SourceConnected})
	rt, _ := r.Lookup(ip("10.0.0.1"))
	if rt.Source != SourceConnected {
		t.Fatalf("best = %v, want connected", rt)
	}
	// Removing the connected route falls back to OSPF.
	r.Remove(pfx("10.0.0.0/24"), SourceConnected, netip.Addr{})
	rt, _ = r.Lookup(ip("10.0.0.1"))
	if rt.Source != SourceOSPF {
		t.Fatalf("best after removal = %v", rt)
	}
}

// TestCrossSourcePreferenceTable pins the full cross-source preference
// order — Connected < Static < eBGP < OSPF < iBGP — before any protocol
// engine depends on it. Every ordered pair of distinct sources is exercised
// in both insertion orders.
func TestCrossSourcePreferenceTable(t *testing.T) {
	order := []Source{SourceConnected, SourceStatic, SourceEBGP, SourceOSPF, SourceIBGP}
	names := []string{"connected", "static", "ebgp", "ospf", "ibgp"}
	for i, s := range order {
		if got := s.String(); got != names[i] {
			t.Errorf("Source(%d).String() = %q, want %q", int(s), got, names[i])
		}
	}
	for i, hi := range order {
		for j, lo := range order {
			if i == j {
				continue
			}
			a := Route{Prefix: pfx("10.0.0.0/24"), NextHop: ip("1.1.1.1"), Source: hi}
			b := Route{Prefix: pfx("10.0.0.0/24"), NextHop: ip("2.2.2.2"), Source: lo}
			wantWin := hi
			if j < i {
				wantWin = lo
			}
			if got := better(a, b); got != (wantWin == hi) {
				t.Errorf("better(%v, %v) = %v, want winner %v", hi, lo, got, wantWin)
			}
			// End-to-end through reselection, both insertion orders.
			for _, routes := range [][]Route{{a, b}, {b, a}} {
				r := New()
				for _, rt := range routes {
					if err := r.Add(rt); err != nil {
						t.Fatal(err)
					}
				}
				best, ok := r.Lookup(ip("10.0.0.9"))
				if !ok || best.Source != wantWin {
					t.Errorf("sources (%v, %v): best = %v, want %v", hi, lo, best.Source, wantWin)
				}
			}
		}
	}
}

// TestBGPSourceWithdrawal exercises the engine's withdraw-on-session-loss RIB
// operation: purging one BGP source falls back to the next-best candidate.
func TestBGPSourceWithdrawal(t *testing.T) {
	r := New()
	r.Add(Route{Prefix: pfx("10.7.0.0/24"), NextHop: ip("1.1.1.1"), Source: SourceEBGP})
	r.Add(Route{Prefix: pfx("10.7.0.0/24"), NextHop: ip("2.2.2.2"), Source: SourceIBGP})
	r.Add(Route{Prefix: pfx("10.7.0.0/24"), NextHop: ip("3.3.3.3"), Source: SourceOSPF, Metric: 5})
	if rt, _ := r.Lookup(ip("10.7.0.1")); rt.Source != SourceEBGP {
		t.Fatalf("best = %v, want ebgp", rt)
	}
	r.PurgeSource(SourceEBGP)
	if rt, _ := r.Lookup(ip("10.7.0.1")); rt.Source != SourceOSPF {
		t.Fatalf("best after eBGP purge = %v, want ospf", rt)
	}
	r.PurgeSource(SourceOSPF)
	if rt, _ := r.Lookup(ip("10.7.0.1")); rt.Source != SourceIBGP {
		t.Fatalf("best after ospf purge = %v, want ibgp", rt)
	}
}

func TestMetricTiebreak(t *testing.T) {
	r := New()
	r.Add(Route{Prefix: pfx("10.2.0.0/16"), NextHop: ip("8.8.8.8"), Source: SourceOSPF, Metric: 30})
	r.Add(Route{Prefix: pfx("10.2.0.0/16"), NextHop: ip("7.7.7.7"), Source: SourceOSPF, Metric: 10})
	rt, _ := r.Lookup(ip("10.2.3.4"))
	if rt.NextHop != ip("7.7.7.7") {
		t.Fatalf("best = %v, want metric 10", rt)
	}
}

// TestWatcherEvents pins the notification contract: one call per mutation
// that changed a best set, carrying the mutation's source, however many
// prefixes it touched; none for a mutation that changed no best set; and the
// watcher runs outside the lock, so it may read the table back.
func TestWatcherEvents(t *testing.T) {
	r := New()
	var got []Source
	var seen []int
	r.Watch(func(src Source) {
		got = append(got, src)
		seen = append(seen, r.Len())
	})
	p := pfx("10.3.0.0/16")
	r.Add(Route{Prefix: p, NextHop: ip("1.1.1.1"), Source: SourceOSPF, Metric: 20})
	r.Add(Route{Prefix: p, NextHop: ip("2.2.2.2"), Source: SourceOSPF, Metric: 5})
	r.Add(Route{Prefix: p, NextHop: ip("3.3.3.3"), Source: SourceIBGP}) // loses: silent
	r.Remove(p, SourceStatic, ip("9.9.9.9"))                            // no such candidate: silent
	r.Remove(p, SourceIBGP, ip("3.3.3.3"))                              // a loser leaves: silent
	r.Add(Route{Prefix: p, NextHop: ip("4.4.4.4"), Source: SourceEBGP})
	r.ReplaceSource(SourceOSPF, []Route{
		{Prefix: pfx("10.4.0.0/16"), NextHop: ip("1.1.1.1"), Metric: 10},
		{Prefix: pfx("10.5.0.0/16"), NextHop: ip("1.1.1.1"), Metric: 10},
	})
	r.ReplaceSource(SourceOSPF, []Route{ // the same set again: silent
		{Prefix: pfx("10.5.0.0/16"), NextHop: ip("1.1.1.1"), Metric: 10},
		{Prefix: pfx("10.4.0.0/16"), NextHop: ip("1.1.1.1"), Metric: 10},
	})
	r.PurgeSource(SourceOSPF)
	r.PurgeSource(SourceOSPF) // nothing left to purge: silent
	r.Remove(p, SourceEBGP, ip("4.4.4.4"))

	want := []Source{SourceOSPF, SourceOSPF, SourceEBGP, SourceOSPF, SourceOSPF, SourceEBGP}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("notifications = %v, want %v", got, want)
	}
	if wantLen := []int{1, 1, 1, 3, 1, 0}; fmt.Sprint(seen) != fmt.Sprint(wantLen) {
		t.Fatalf("table sizes read in the watcher = %v, want %v", seen, wantLen)
	}
}

func TestNoEventOnIdenticalReAdd(t *testing.T) {
	r := New()
	n := 0
	r.Watch(func(Source) { n++ })
	rt := Route{Prefix: pfx("10.4.0.0/16"), NextHop: ip("1.1.1.1"), Source: SourceOSPF, Metric: 7}
	r.Add(rt)
	r.Add(rt)
	if n != 1 {
		t.Fatalf("events = %d, want 1", n)
	}
}

func TestReplaceSource(t *testing.T) {
	r := New()
	r.Add(Route{Prefix: pfx("10.5.0.0/16"), Iface: "eth0", Source: SourceConnected})
	r.ReplaceSource(SourceOSPF, []Route{
		{Prefix: pfx("10.6.0.0/16"), NextHop: ip("1.1.1.1"), Metric: 10},
		{Prefix: pfx("10.7.0.0/16"), NextHop: ip("1.1.1.1"), Metric: 20},
	})
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	// Second SPF run drops 10.7 and adds 10.8.
	r.ReplaceSource(SourceOSPF, []Route{
		{Prefix: pfx("10.6.0.0/16"), NextHop: ip("1.1.1.1"), Metric: 10},
		{Prefix: pfx("10.8.0.0/16"), NextHop: ip("2.2.2.2"), Metric: 5},
	})
	if _, ok := r.Lookup(ip("10.7.1.1")); ok {
		t.Fatal("stale OSPF route survived ReplaceSource")
	}
	if rt, ok := r.Lookup(ip("10.8.1.1")); !ok || rt.NextHop != ip("2.2.2.2") {
		t.Fatalf("new route = %v, %v", rt, ok)
	}
	// The connected route must be untouched.
	if rt, ok := r.Lookup(ip("10.5.1.1")); !ok || rt.Source != SourceConnected {
		t.Fatalf("connected = %v, %v", rt, ok)
	}
}

func TestPurgeSource(t *testing.T) {
	r := New()
	r.Add(Route{Prefix: pfx("10.5.0.0/16"), Iface: "eth0", Source: SourceConnected})
	r.Add(Route{Prefix: pfx("10.6.0.0/16"), NextHop: ip("1.1.1.1"), Source: SourceOSPF, Metric: 1})
	r.PurgeSource(SourceOSPF)
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestRejectIPv6(t *testing.T) {
	r := New()
	if err := r.Add(Route{Prefix: pfx("fd00::/64"), Source: SourceStatic}); err == nil {
		t.Fatal("IPv6 route accepted")
	}
	if _, ok := r.Lookup(ip("::1")); ok {
		t.Fatal("IPv6 lookup succeeded")
	}
}

func TestBestSorted(t *testing.T) {
	r := New()
	r.Add(Route{Prefix: pfx("10.9.0.0/16"), NextHop: ip("1.1.1.1"), Source: SourceOSPF, Metric: 1})
	r.Add(Route{Prefix: pfx("10.1.0.0/16"), NextHop: ip("1.1.1.1"), Source: SourceOSPF, Metric: 1})
	best := r.Best()
	if len(best) != 2 || best[0].Prefix != pfx("10.1.0.0/16") {
		t.Fatalf("best = %v", best)
	}
}

func TestRouteStringer(t *testing.T) {
	rt := Route{Prefix: pfx("10.0.0.0/8"), NextHop: ip("1.2.3.4"), Iface: "eth1",
		Source: SourceOSPF, Metric: 20}
	if rt.String() == "" || SourceOSPF.String() != "ospf" || Source(42).String() != "proto-42" {
		t.Fatal("stringers broken")
	}
	conn := Route{Prefix: pfx("10.0.0.0/8"), Iface: "eth0", Source: SourceConnected}
	if conn.String() == "" || SourceConnected.String() != "connected" {
		t.Fatal("connected stringer broken")
	}
	if SourceStatic.String() != "static" {
		t.Fatal("static stringer")
	}
}

// TestLookupAllTieOrdering pins the equal-cost contract: candidates tied on
// (source, metric) all surface through LookupAll/BestPaths, ordered by
// next-hop address with the primary (better()'s winner) first, and lower
// metric or admin distance still collapses the set to a single winner.
func TestLookupAllTieOrdering(t *testing.T) {
	r := New()
	p := pfx("10.10.0.0/16")
	r.Add(Route{Prefix: p, NextHop: ip("3.3.3.3"), Iface: "eth3", Source: SourceOSPF, Metric: 10})
	r.Add(Route{Prefix: p, NextHop: ip("1.1.1.1"), Iface: "eth1", Source: SourceOSPF, Metric: 10})
	r.Add(Route{Prefix: p, NextHop: ip("2.2.2.2"), Iface: "eth2", Source: SourceOSPF, Metric: 10})
	// Higher metric: not part of the equal-cost set.
	r.Add(Route{Prefix: p, NextHop: ip("0.0.0.9"), Iface: "eth9", Source: SourceOSPF, Metric: 20})

	all := r.LookupAll(ip("10.10.3.4"))
	if len(all) != 3 {
		t.Fatalf("LookupAll = %v, want 3 equal-cost paths", all)
	}
	for i, want := range []string{"1.1.1.1", "2.2.2.2", "3.3.3.3"} {
		if all[i].NextHop != ip(want) {
			t.Fatalf("path %d = %v, want via %s", i, all[i], want)
		}
	}
	// The primary must agree with Lookup.
	if rt, ok := r.Lookup(ip("10.10.3.4")); !ok || rt != all[0] {
		t.Fatalf("Lookup = %v, LookupAll[0] = %v", rt, all[0])
	}
	if bp := r.BestPaths(p); !pathsEqual(bp, all) {
		t.Fatalf("BestPaths = %v, want %v", bp, all)
	}
	// A better admin distance collapses the set.
	r.Add(Route{Prefix: p, NextHop: ip("7.7.7.7"), Iface: "eth7", Source: SourceStatic})
	if all := r.LookupAll(ip("10.10.3.4")); len(all) != 1 || all[0].NextHop != ip("7.7.7.7") {
		t.Fatalf("after static add LookupAll = %v, want only static", all)
	}
	// No covering route → nil.
	if all := r.LookupAll(ip("192.0.2.1")); all != nil {
		t.Fatalf("LookupAll outside table = %v", all)
	}
	if bp := r.BestPaths(pfx("192.0.2.0/24")); bp != nil {
		t.Fatalf("BestPaths outside table = %v", bp)
	}
}

// TestTieOrderIsNextHopStringOrder pins the equal-cost order to the next
// hops' text ("10.0.0.10" before "10.0.0.2", the invalid address as "invalid
// IP"): the RF-server writes multipath buckets in this order, so it is
// visible on the wire.
func TestTieOrderIsNextHopStringOrder(t *testing.T) {
	r := New()
	p := pfx("10.10.0.0/16")
	hops := []netip.Addr{ip("10.0.0.2"), ip("10.0.0.10"), ip("9.0.0.1"), ip("10.0.0.1"), ip("100.0.0.1"), {}}
	for _, nh := range hops {
		r.Add(Route{Prefix: p, NextHop: nh, Iface: "eth1", Source: SourceStatic, Metric: 1})
	}
	want := slices.Clone(hops)
	slices.SortFunc(want, func(a, b netip.Addr) int { return strings.Compare(a.String(), b.String()) })
	got := r.BestPaths(p)
	for i := range want {
		if got[i].NextHop != want[i] {
			t.Fatalf("best set order %v, want next hops %v", got, want)
		}
	}
}

// TestWithdrawOneAlternate proves withdrawing one member of an equal-cost
// set falls back to the survivors (with an event), and withdrawing the last
// removes the prefix.
func TestWithdrawOneAlternate(t *testing.T) {
	r := New()
	p := pfx("10.11.0.0/16")
	r.Add(Route{Prefix: p, NextHop: ip("1.1.1.1"), Source: SourceOSPF, Metric: 10})
	r.Add(Route{Prefix: p, NextHop: ip("2.2.2.2"), Source: SourceOSPF, Metric: 10})

	r.Remove(p, SourceOSPF, ip("1.1.1.1"))
	all := r.LookupAll(ip("10.11.0.1"))
	if len(all) != 1 || all[0].NextHop != ip("2.2.2.2") {
		t.Fatalf("after withdrawing 1.1.1.1: %v", all)
	}
	r.Remove(p, SourceOSPF, ip("2.2.2.2"))
	if all := r.LookupAll(ip("10.11.0.1")); all != nil {
		t.Fatalf("after withdrawing all: %v", all)
	}
}

// TestWatcherEventsCarryPaths pins the multipath side of the contract: a
// change to the equal-cost set notifies even when the primary is unchanged,
// re-adding an existing member stays silent, and a watcher reading the table
// back with EachBest sees the full set, primary first.
func TestWatcherEventsCarryPaths(t *testing.T) {
	r := New()
	var sets [][]Route
	r.Watch(func(Source) {
		var paths []Route
		r.EachBest(func(rts []Route) { paths = append([]Route(nil), rts...) })
		sets = append(sets, paths)
	})
	p := pfx("10.12.0.0/16")

	a := Route{Prefix: p, NextHop: ip("1.1.1.1"), Source: SourceOSPF, Metric: 10}
	b := Route{Prefix: p, NextHop: ip("2.2.2.2"), Source: SourceOSPF, Metric: 10}
	r.Add(b)
	r.Add(a) // primary becomes 1.1.1.1, set grows
	r.Add(b) // identical re-add: silent
	r.Remove(p, SourceOSPF, b.NextHop)
	r.Remove(p, SourceOSPF, a.NextHop)

	want := [][]Route{{b}, {a, b}, {a}, nil}
	if fmt.Sprint(sets) != fmt.Sprint(want) {
		t.Fatalf("best sets read in the watcher = %v, want %v", sets, want)
	}
}

// TestReplaceSourceMultipath proves an SPF publishing several next hops for
// one prefix lands them all as one equal-cost set, and the next run shrinks
// it.
func TestReplaceSourceMultipath(t *testing.T) {
	r := New()
	p := pfx("10.13.0.0/16")
	r.ReplaceSource(SourceOSPF, []Route{
		{Prefix: p, NextHop: ip("1.1.1.1"), Metric: 10},
		{Prefix: p, NextHop: ip("2.2.2.2"), Metric: 10},
	})
	if all := r.LookupAll(ip("10.13.0.1")); len(all) != 2 {
		t.Fatalf("LookupAll = %v, want 2", all)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1 prefix", r.Len())
	}
	r.ReplaceSource(SourceOSPF, []Route{
		{Prefix: p, NextHop: ip("2.2.2.2"), Metric: 10},
	})
	all := r.LookupAll(ip("10.13.0.1"))
	if len(all) != 1 || all[0].NextHop != ip("2.2.2.2") {
		t.Fatalf("after shrink LookupAll = %v", all)
	}
}

// Property: the trie LPM result always equals a brute-force scan over the
// best routes.
func TestLPMMatchesBruteForceQuick(t *testing.T) {
	prop := func(seeds []uint32, probeRaw uint32) bool {
		r := New()
		var routes []Route
		for i, s := range seeds {
			if i >= 24 {
				break
			}
			bits := int(s % 33)
			addr := netip.AddrFrom4([4]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)})
			p := netip.PrefixFrom(addr, bits).Masked()
			rt := Route{Prefix: p, NextHop: ip("1.1.1.1"), Source: SourceOSPF, Metric: uint32(i)}
			r.Add(rt)
			routes = append(routes, rt)
		}
		probe := netip.AddrFrom4([4]byte{byte(probeRaw >> 24), byte(probeRaw >> 16), byte(probeRaw >> 8), byte(probeRaw)})
		got, ok := r.Lookup(probe)

		// Brute force over the RIB's own best set (dedup prefixes).
		var want *Route
		for _, rt := range r.Best() {
			if rt.Prefix.Contains(probe) {
				if want == nil || rt.Prefix.Bits() > want.Prefix.Bits() {
					c := rt
					want = &c
				}
			}
		}
		if want == nil {
			return !ok
		}
		return ok && got.Prefix == want.Prefix
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomWritesMatchReference: after every Add, Remove, ReplaceSource or
// PurgeSource from a random sequence over a few prefixes, sources and next
// hops, each prefix's best set is what a naive reference over every
// candidate selects, and a watcher ran exactly when some best set changed.
func TestRandomWritesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefixes := []netip.Prefix{pfx("10.0.0.0/24"), pfx("10.0.1.0/24"), pfx("10.0.0.0/16"), pfx("10.0.0.0/8")}
	sources := []Source{SourceStatic, SourceOSPF, SourceIBGP}
	hops := []netip.Addr{ip("172.16.0.2"), ip("172.16.0.10"), ip("172.16.0.6")}
	randRoute := func(src Source) Route {
		return Route{Prefix: prefixes[rng.Intn(len(prefixes))], NextHop: hops[rng.Intn(len(hops))],
			Iface: "eth1", Source: src, Metric: uint32(rng.Intn(3))}
	}
	type key struct {
		prefix netip.Prefix
		src    Source
		hop    netip.Addr
	}
	ref := map[key]Route{}
	refBest := func(p netip.Prefix) []Route {
		var all []Route
		for k, rt := range ref {
			if k.prefix == p {
				all = append(all, rt)
			}
		}
		if len(all) == 0 {
			return nil
		}
		top := all[0]
		for _, c := range all {
			if c.Source < top.Source || c.Source == top.Source && c.Metric < top.Metric {
				top = c
			}
		}
		var sel []Route
		for _, c := range all {
			if c.Source == top.Source && c.Metric == top.Metric {
				sel = append(sel, c)
			}
		}
		slices.SortFunc(sel, func(a, b Route) int { return strings.Compare(a.NextHop.String(), b.NextHop.String()) })
		return sel
	}
	r := New()
	watched := 0
	r.Watch(func(Source) { watched++ })
	lastSet := map[Source][]Route{} // replayed: SPF hands the RIB the same set again and again
	for op := 0; op < 3000; op++ {
		before := map[netip.Prefix][]Route{}
		for _, p := range prefixes {
			before[p] = r.BestPaths(p)
		}
		src := sources[rng.Intn(len(sources))]
		switch kind := rng.Intn(5); kind {
		case 0:
			rt := randRoute(src)
			r.Add(rt)
			ref[key{rt.Prefix, src, rt.NextHop}] = rt
		case 1:
			rt := randRoute(src)
			r.Remove(rt.Prefix, src, rt.NextHop)
			delete(ref, key{rt.Prefix, src, rt.NextHop})
		case 2, 4:
			set := lastSet[src]
			if kind == 2 {
				set = nil
				for range rng.Intn(5) {
					set = append(set, randRoute(Source(99))) // ReplaceSource sets the source
				}
				lastSet[src] = set
			}
			r.ReplaceSource(src, set)
			for k := range ref {
				if k.src == src {
					delete(ref, k)
				}
			}
			for _, rt := range set {
				rt.Source = src
				ref[key{rt.Prefix, src, rt.NextHop}] = rt
			}
		case 3:
			r.PurgeSource(src)
			for k := range ref {
				if k.src == src {
					delete(ref, k)
				}
			}
		}
		changed := false
		for _, p := range prefixes {
			got, want := r.BestPaths(p), refBest(p)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: best %v = %v, reference %v", op, p, got, want)
			}
			changed = changed || !slices.Equal(got, before[p])
		}
		if changed != (watched > 0) {
			t.Fatalf("op %d: best sets changed %v, watcher calls %d", op, changed, watched)
		}
		watched = 0
	}
}
