// Package ipam allocates the IP addressing the paper's topology controller
// derives from its one piece of administrator input: "a range of IP
// addresses for the virtual environment". Each discovered link gets its own
// point-to-point subnet (a /30 by default) whose two usable addresses are
// assigned to the VM interfaces at either end. Allocation is deterministic,
// released subnets are reused, and exhaustion is an explicit error.
package ipam

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
)

// Errors.
var (
	ErrExhausted  = errors.New("ipam: address pool exhausted")
	ErrNotAlloced = errors.New("ipam: subnet not allocated from this pool")
)

// Allocator hands out fixed-size subnets from one pool.
type Allocator struct {
	pool       netip.Prefix
	subnetBits int

	mu    sync.Mutex
	next  uint64          // next fresh block index
	freed []uint64        // released block indexes, reused LIFO
	live  map[uint64]bool // currently allocated
	total uint64          // number of blocks in the pool
}

// New creates an allocator carving subnets of subnetBits length (e.g. 30)
// out of pool (e.g. 172.16.0.0/16).
func New(pool netip.Prefix, subnetBits int) (*Allocator, error) {
	if !pool.Addr().Is4() {
		return nil, fmt.Errorf("ipam: pool %v is not IPv4", pool)
	}
	if subnetBits < pool.Bits() || subnetBits > 30 {
		return nil, fmt.Errorf("ipam: subnet /%d does not fit pool %v (must be %d..30)",
			subnetBits, pool, pool.Bits())
	}
	return &Allocator{
		pool:       pool.Masked(),
		subnetBits: subnetBits,
		live:       make(map[uint64]bool),
		total:      uint64(1) << uint(subnetBits-pool.Bits()),
	}, nil
}

// Pool returns the configured pool.
func (a *Allocator) Pool() netip.Prefix { return a.pool }

// SubnetBits returns the configured subnet size.
func (a *Allocator) SubnetBits() int { return a.subnetBits }

// Free returns how many subnets remain allocatable.
func (a *Allocator) Free() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total - uint64(len(a.live))
}

// Allocated returns the live subnets in ascending order.
func (a *Allocator) Allocated() []netip.Prefix {
	a.mu.Lock()
	idx := make([]uint64, 0, len(a.live))
	for i := range a.live {
		idx = append(idx, i)
	}
	a.mu.Unlock()
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	out := make([]netip.Prefix, len(idx))
	for i, n := range idx {
		out[i] = a.subnetAt(n)
	}
	return out
}

func (a *Allocator) subnetAt(idx uint64) netip.Prefix {
	base := addrToU32(a.pool.Addr())
	step := uint32(1) << uint(32-a.subnetBits)
	return netip.PrefixFrom(u32ToAddr(base+uint32(idx)*step), a.subnetBits)
}

// AllocSubnet returns the next free subnet.
func (a *Allocator) AllocSubnet() (netip.Prefix, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var idx uint64
	switch {
	case len(a.freed) > 0:
		idx = a.freed[len(a.freed)-1]
		a.freed = a.freed[:len(a.freed)-1]
	case a.next < a.total:
		idx = a.next
		a.next++
	default:
		return netip.Prefix{}, fmt.Errorf("%w: %v in /%d blocks", ErrExhausted, a.pool, a.subnetBits)
	}
	a.live[idx] = true
	return a.subnetAt(idx), nil
}

// Release returns a subnet to the pool.
func (a *Allocator) Release(p netip.Prefix) error {
	if p.Bits() != a.subnetBits || !a.pool.Contains(p.Addr()) {
		return fmt.Errorf("%w: %v", ErrNotAlloced, p)
	}
	step := uint32(1) << uint(32-a.subnetBits)
	idx := uint64((addrToU32(p.Addr()) - addrToU32(a.pool.Addr())) / step)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.live[idx] {
		return fmt.Errorf("%w: %v (double release?)", ErrNotAlloced, p)
	}
	delete(a.live, idx)
	a.freed = append(a.freed, idx)
	return nil
}

// LinkAddrs allocates one subnet and returns its two endpoint addresses
// (lowest two usable) with the subnet's prefix length — the pair the
// configuration message assigns to the VM interfaces of a link.
func (a *Allocator) LinkAddrs() (aEnd, bEnd netip.Prefix, err error) {
	sub, err := a.AllocSubnet()
	if err != nil {
		return netip.Prefix{}, netip.Prefix{}, err
	}
	base := addrToU32(sub.Addr())
	first, second := base, base+1
	if sub.Bits() <= 30 {
		// For /30 and shorter, skip the network address.
		first, second = base+1, base+2
	}
	return netip.PrefixFrom(u32ToAddr(first), sub.Bits()),
		netip.PrefixFrom(u32ToAddr(second), sub.Bits()), nil
}

func addrToU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func u32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
