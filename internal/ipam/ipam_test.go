package ipam

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestAllocSubnetSequence(t *testing.T) {
	a, err := New(netip.MustParsePrefix("172.16.0.0/24"), 30)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := a.AllocSubnet()
	s2, _ := a.AllocSubnet()
	if s1.String() != "172.16.0.0/30" || s2.String() != "172.16.0.4/30" {
		t.Fatalf("subnets = %v, %v", s1, s2)
	}
	if a.Free() != 62 {
		t.Fatalf("free = %d", a.Free())
	}
}

func TestLinkAddrsSkipNetwork(t *testing.T) {
	a, _ := New(netip.MustParsePrefix("10.100.0.0/16"), 30)
	x, y, err := a.LinkAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if x.String() != "10.100.0.1/30" || y.String() != "10.100.0.2/30" {
		t.Fatalf("link addrs = %v, %v", x, y)
	}
	// Both ends must be in the same /30.
	if x.Masked() != y.Masked() {
		t.Fatal("endpoints in different subnets")
	}
}

func TestExhaustion(t *testing.T) {
	a, _ := New(netip.MustParsePrefix("192.168.0.0/28"), 30)
	for i := 0; i < 4; i++ {
		if _, err := a.AllocSubnet(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.AllocSubnet(); err == nil {
		t.Fatal("expected exhaustion")
	}
	if a.Free() != 0 {
		t.Fatalf("free = %d", a.Free())
	}
}

func TestReleaseAndReuse(t *testing.T) {
	a, _ := New(netip.MustParsePrefix("192.168.0.0/28"), 30)
	s1, _ := a.AllocSubnet()
	a.AllocSubnet() //nolint:errcheck
	if err := a.Release(s1); err != nil {
		t.Fatal(err)
	}
	got, err := a.AllocSubnet()
	if err != nil {
		t.Fatal(err)
	}
	if got != s1 {
		t.Fatalf("reuse = %v, want %v", got, s1)
	}
	if err := a.Release(netip.MustParsePrefix("1.2.3.0/30")); err == nil {
		t.Fatal("foreign release accepted")
	}
	a.Release(s1) //nolint:errcheck
	if err := a.Release(s1); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestAllocatedListing(t *testing.T) {
	a, _ := New(netip.MustParsePrefix("172.16.0.0/24"), 30)
	a.AllocSubnet() //nolint:errcheck
	a.AllocSubnet() //nolint:errcheck
	list := a.Allocated()
	if len(list) != 2 || list[0].String() != "172.16.0.0/30" {
		t.Fatalf("allocated = %v", list)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(netip.MustParsePrefix("fd00::/64"), 96); err == nil {
		t.Fatal("IPv6 pool accepted")
	}
	if _, err := New(netip.MustParsePrefix("10.0.0.0/24"), 31); err == nil {
		t.Fatal("/31 accepted (no usable pair)")
	}
	if _, err := New(netip.MustParsePrefix("10.0.0.0/24"), 16); err == nil {
		t.Fatal("subnet larger than pool accepted")
	}
}

func TestAccessors(t *testing.T) {
	a, _ := New(netip.MustParsePrefix("10.0.0.0/16"), 30)
	if a.Pool().String() != "10.0.0.0/16" || a.SubnetBits() != 30 {
		t.Fatal("accessors wrong")
	}
}

// Property: every allocated subnet is unique, inside the pool, and of the
// requested size — across interleaved alloc/release sequences.
func TestUniquenessQuick(t *testing.T) {
	pool := netip.MustParsePrefix("172.20.0.0/20")
	prop := func(ops []bool) bool {
		a, err := New(pool, 30)
		if err != nil {
			return false
		}
		live := map[netip.Prefix]bool{}
		var order []netip.Prefix
		for _, alloc := range ops {
			if alloc || len(order) == 0 {
				s, err := a.AllocSubnet()
				if err != nil {
					return false // pool is large enough for any quick input
				}
				if live[s] {
					return false // duplicate!
				}
				if !pool.Contains(s.Addr()) || s.Bits() != 30 {
					return false
				}
				live[s] = true
				order = append(order, s)
			} else {
				s := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, s)
				if err := a.Release(s); err != nil {
					return false
				}
			}
		}
		return a.Free() == (1<<10)-uint64(len(live))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
