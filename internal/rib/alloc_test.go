package rib

import (
	"net/netip"
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
