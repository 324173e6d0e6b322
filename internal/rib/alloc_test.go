package rib

import (
	"net/netip"
	"slices"
	"testing"
)

// TestLookupAllocBudget: longest-prefix match in a VM's RIB at the scale of
// the 28-node demo (64 link subnets) allocates nothing.
func TestLookupAllocBudget(t *testing.T) {
	r := New()
	for i := 0; i < 64; i++ {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 0}), 30)
		if err := r.Add(Route{Prefix: prefix, NextHop: netip.MustParseAddr("172.16.0.2"),
			Iface: "eth1", Source: SourceOSPF, Metric: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	probe := netip.MustParseAddr("172.16.40.1")
	if got := testing.AllocsPerRun(200, func() {
		if _, ok := r.Lookup(probe); !ok {
			t.Fatal("missing route")
		}
	}); got != 0 {
		t.Fatalf("Lookup = %.1f allocs/op, budget 0", got)
	}
}

// TestReplaceSourceUnchangedAllocBudget: a replace with the set the source
// already holds — what every SPF run after convergence hands the RIB, here
// in a different order with a duplicate — allocates nothing and runs no
// watcher.
func TestReplaceSourceUnchangedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := New()
	watched := 0
	r.Watch(func(Source) { watched++ })
	var routes []Route
	for i := 0; i < 41; i++ {
		routes = append(routes, Route{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 1}), 30),
			NextHop: netip.AddrFrom4([4]byte{172, 16, 100, byte(1 + i%3)}), Iface: "eth1", Source: SourceOSPF, Metric: 20})
	}
	r.ReplaceSource(SourceOSPF, routes)
	if watched != 1 || r.Len() != 41 {
		t.Fatalf("first replace: %d watcher calls, %d prefixes", watched, r.Len())
	}
	again := append([]Route{routes[7]}, routes...)
	slices.Reverse(again)
	if got := testing.AllocsPerRun(100, func() { r.ReplaceSource(SourceOSPF, again) }); got != 0 {
		t.Fatalf("unchanged ReplaceSource = %.1f allocs/op, budget 0", got)
	}
	if watched != 1 {
		t.Fatalf("unchanged ReplaceSource ran the watcher %d more times", watched-1)
	}
	// The next replace compares against what other writes left: the same
	// set then restores the route a Remove took out.
	r.Remove(routes[3].Prefix, SourceOSPF, routes[3].NextHop)
	r.ReplaceSource(SourceOSPF, again)
	if watched != 3 || len(r.BestPaths(routes[3].Prefix)) != 1 {
		t.Fatalf("replace after Remove: %d watcher calls, best %v", watched, r.BestPaths(routes[3].Prefix))
	}
}
