// Package rib implements the routing information base each virtual machine's
// routing stack maintains — the analogue of the zebra RIB plus kernel FIB in
// a Quagga-based RouteFlow VM. Routes from several sources (connected,
// static, OSPF) compete per prefix by administrative distance and metric;
// the winning route set is queryable by longest-prefix match, and every
// mutation that changes a best set is announced to watchers. The RF-server
// is one: it reads the best sets back (EachBest) and compiles them into
// OpenFlow flow entries.
//
// Candidates tied on (source, metric) with the winner form the prefix's
// equal-cost best set — the ECMP alternates exposed through LookupAll,
// BestPaths and EachBest, which is what lets the RF-server install
// multipath flow entries.
package rib

import (
	"bytes"
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
)

// Source identifies where a route came from; the value is its
// administrative distance (lower wins), mirroring Quagga's defaults.
type Source int

// Route sources. The values are Quagga's default administrative distances,
// which pins the cross-source preference order:
// Connected < Static < eBGP < OSPF < iBGP.
const (
	SourceConnected Source = 0
	SourceStatic    Source = 1
	SourceEBGP      Source = 20
	SourceOSPF      Source = 110
	SourceIBGP      Source = 200
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceConnected:
		return "connected"
	case SourceStatic:
		return "static"
	case SourceEBGP:
		return "ebgp"
	case SourceOSPF:
		return "ospf"
	case SourceIBGP:
		return "ibgp"
	default:
		return fmt.Sprintf("proto-%d", int(s))
	}
}

// Route is one candidate path to a prefix.
type Route struct {
	Prefix  netip.Prefix
	NextHop netip.Addr // invalid (zero) for connected routes
	Iface   string     // outgoing interface name
	Source  Source
	Metric  uint32
}

// String renders the route in `show ip route` style.
func (r Route) String() string {
	via := "directly connected"
	if r.NextHop.IsValid() {
		via = "via " + r.NextHop.String()
	}
	return fmt.Sprintf("%v [%d/%d] %s, %s", r.Prefix, int(r.Source), r.Metric, via, r.Iface)
}

// Watcher learns that the RIB changed. It runs once per mutation (Add,
// Remove, PurgeSource, ReplaceSource) that changed at least one prefix's
// equal-cost best set, after the RIB's lock is released, and receives the
// mutation's source; a mutation that leaves every best set as it was runs no
// watcher. It says that the table changed, not how: a watcher that needs the
// routes reads them back. Two mutations' watchers may run concurrently and in
// either order, so a reader sees at least the state of the mutation that ran
// it.
type Watcher func(Source)

// RIB is a concurrent routing table.
type RIB struct {
	mu         sync.RWMutex
	candidates map[netip.Prefix][]Route
	// sources holds each source's candidates again, sorted by (prefix, next
	// hop), so that a ReplaceSource finds the prefixes it changes by merging
	// two sorted lists. Every write keeps it equal to candidates.
	sources map[Source][]Route
	spare   []Route // ReplaceSource's buffer for the next set
	// best holds the equal-cost best set per prefix: every candidate tied on
	// (source, metric) with the winner, primary first, alternates ordered by
	// next-hop address. Slices are replaced wholesale on reselection, never
	// mutated in place, so readers may hold them across the lock.
	best     map[netip.Prefix][]Route
	trie     *trieNode
	watchers []Watcher
}

// New creates an empty RIB.
func New() *RIB {
	return &RIB{
		candidates: make(map[netip.Prefix][]Route),
		sources:    make(map[Source][]Route),
		best:       make(map[netip.Prefix][]Route),
		trie:       &trieNode{},
	}
}

// Watch registers a watcher.
func (r *RIB) Watch(w Watcher) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.watchers = append(r.watchers, w)
}

// Add inserts or updates a candidate route (keyed by prefix+source+nexthop).
func (r *RIB) Add(rt Route) error {
	if !rt.Prefix.Addr().Is4() {
		return fmt.Errorf("rib: %v is not IPv4", rt.Prefix)
	}
	rt.Prefix = rt.Prefix.Masked()
	r.mu.Lock()
	set := r.sources[rt.Source]
	if i, found := slices.BinarySearchFunc(set, rt, compareRoutes); found {
		set[i] = rt
	} else {
		set = slices.Insert(set, i, rt)
		r.sources[rt.Source] = set
	}
	r.unlockNotify(r.setCandidatesLocked(rt.Prefix, rt.Source, prefixRoutes(set, rt.Prefix)), rt.Source)
	return nil
}

// Remove deletes the candidate matching prefix+source+nexthop.
func (r *RIB) Remove(prefix netip.Prefix, src Source, nextHop netip.Addr) {
	prefix = prefix.Masked()
	r.mu.Lock()
	set := r.sources[src]
	i, found := slices.BinarySearchFunc(set, Route{Prefix: prefix, NextHop: nextHop}, compareRoutes)
	if !found {
		r.mu.Unlock()
		return
	}
	set = slices.Delete(set, i, i+1)
	r.sources[src] = set
	r.unlockNotify(r.setCandidatesLocked(prefix, src, prefixRoutes(set, prefix)), src)
}

// PurgeSource removes every candidate from one source (e.g. when an OSPF
// recomputation replaces the whole route set).
func (r *RIB) PurgeSource(src Source) { r.ReplaceSource(src, nil) }

// ReplaceSource atomically swaps the full route set of one source — the
// operation OSPF performs after each SPF run — and notifies watchers once if
// any best set changed. The set may carry several routes for one prefix
// (distinct next hops): they all become candidates, which is how an
// ECMP-aware SPF publishes equal-cost paths; of two routes with the same
// prefix and next hop, the later counts. A replace costs the prefixes it
// changes: one that changes nothing allocates nothing and runs no watcher.
// ReplaceSource does not retain routes.
func (r *RIB) ReplaceSource(src Source, routes []Route) {
	r.mu.Lock()
	old, next := r.sources[src], normalise(r.spare[:0], src, routes)
	changed := false
	// Merge the two sorted sets a prefix at a time; a prefix whose routes
	// differ gets next's routes as its candidates from src.
	for i, j := 0, 0; i < len(old) || j < len(next); {
		var prefix netip.Prefix
		if j == len(next) || i < len(old) && comparePrefixes(old[i].Prefix, next[j].Prefix) < 0 {
			prefix = old[i].Prefix
		} else {
			prefix = next[j].Prefix
		}
		i0, j0 := i, j
		for i < len(old) && old[i].Prefix == prefix {
			i++
		}
		for j < len(next) && next[j].Prefix == prefix {
			j++
		}
		if !slices.Equal(old[i0:i], next[j0:j]) {
			changed = r.setCandidatesLocked(prefix, src, next[j0:j]) || changed
		}
	}
	r.sources[src], r.spare = next, old[:0]
	r.unlockNotify(changed, src)
}

// setCandidatesLocked makes routes (copied) prefix's candidates from src,
// reselects prefix and reports whether its best set changed. Callers hold the
// write lock.
func (r *RIB) setCandidatesLocked(prefix netip.Prefix, src Source, routes []Route) bool {
	list := r.candidates[prefix]
	out := list[:0]
	for _, c := range list {
		if c.Source != src {
			out = append(out, c)
		}
	}
	out = append(out, routes...)
	if len(out) == 0 {
		delete(r.candidates, prefix)
	} else {
		r.candidates[prefix] = out
	}
	return r.reselectLocked(prefix)
}

// prefixRoutes returns the run of set, sorted by compareRoutes, whose prefix
// is prefix.
func prefixRoutes(set []Route, prefix netip.Prefix) []Route {
	i, _ := slices.BinarySearchFunc(set, prefix, func(rt Route, p netip.Prefix) int { return comparePrefixes(rt.Prefix, p) })
	j := i
	for j < len(set) && set[j].Prefix == prefix {
		j++
	}
	return set[i:j]
}

// normalise appends routes to buf as src's candidates — prefixes masked,
// source set — sorted by compareRoutes, keeping the last of any routes with
// the same prefix and next hop, and returns buf.
func normalise(buf []Route, src Source, routes []Route) []Route {
	start := len(buf)
	for _, rt := range routes {
		rt.Prefix = rt.Prefix.Masked()
		rt.Source = src
		buf = append(buf, rt)
	}
	out := buf[start:]
	slices.SortStableFunc(out, compareRoutes)
	kept := out[:0]
	for _, rt := range out {
		if n := len(kept); n > 0 && compareRoutes(kept[n-1], rt) == 0 {
			kept[n-1] = rt
			continue
		}
		kept = append(kept, rt)
	}
	return buf[:start+len(kept)]
}

// compareRoutes orders one source's routes by prefix, then next hop.
func compareRoutes(a, b Route) int {
	if c := comparePrefixes(a.Prefix, b.Prefix); c != 0 {
		return c
	}
	return a.NextHop.Compare(b.NextHop)
}

// comparePrefixes orders prefixes by address, then length.
func comparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// better orders candidate routes (true = a preferred over b).
func better(a, b Route) bool {
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	// Deterministic tiebreak so reselection is stable.
	return compareNextHop(a.NextHop, b.NextHop) < 0
}

// compareNextHop orders next hops as their String forms compare, without
// building the strings: the ECMP bucket order this gives ("10.0.0.10"
// before "10.0.0.2") is visible on the wire, so it must not change.
func compareNextHop(a, b netip.Addr) int {
	var ab, bb [64]byte
	return bytes.Compare(appendNextHop(ab[:0], a), appendNextHop(bb[:0], b))
}

// appendNextHop appends a's String form to buf.
func appendNextHop(buf []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(buf, "invalid IP"...)
	}
	return a.AppendTo(buf)
}

// selectBest reduces a candidate list to its equal-cost best set: every
// route tied with the winner on (source, metric), sorted by next-hop address
// so the primary (index 0) matches better()'s deterministic tiebreak.
func selectBest(list []Route) []Route {
	if len(list) == 0 {
		return nil
	}
	top := list[0]
	for _, c := range list[1:] {
		if better(c, top) {
			top = c
		}
	}
	sel := make([]Route, 0, len(list))
	for _, c := range list {
		if c.Source == top.Source && c.Metric == top.Metric {
			sel = append(sel, c)
		}
	}
	slices.SortFunc(sel, func(a, b Route) int { return compareNextHop(a.NextHop, b.NextHop) })
	return sel
}

func pathsEqual(a, b []Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reselectLocked recomputes the equal-cost best set for prefix and reports
// whether it changed.
func (r *RIB) reselectLocked(prefix netip.Prefix) bool {
	sel := selectBest(r.candidates[prefix])
	if pathsEqual(r.best[prefix], sel) {
		return false
	}
	if len(sel) == 0 {
		delete(r.best, prefix)
		r.trie.remove(prefix)
	} else {
		r.best[prefix] = sel
		r.trie.insert(prefix, sel)
	}
	return true
}

// unlockNotify releases the write lock and then, if the mutation changed a
// best set, runs every watcher with its source.
func (r *RIB) unlockNotify(changed bool, src Source) {
	watchers := r.watchers
	r.mu.Unlock()
	if !changed {
		return
	}
	for _, w := range watchers {
		w(src)
	}
}

// Lookup returns the primary best route for ip by longest-prefix match.
func (r *RIB) Lookup(ip netip.Addr) (Route, bool) {
	if !ip.Is4() {
		return Route{}, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.trie.lookup(ip)
}

// LookupAll returns the full equal-cost best set for ip by longest-prefix
// match — primary first, alternates ordered by next-hop address — or nil if
// no route covers ip. The returned slice is a copy.
func (r *RIB) LookupAll(ip netip.Addr) []Route {
	if !ip.Is4() {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	rts := r.trie.lookupAll(ip)
	if len(rts) == 0 {
		return nil
	}
	return append([]Route(nil), rts...)
}

// BestPaths returns the equal-cost best set for an exact prefix (primary
// first), or nil if the prefix has no route. The returned slice is a copy.
func (r *RIB) BestPaths(prefix netip.Prefix) []Route {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rts := r.best[prefix.Masked()]
	if len(rts) == 0 {
		return nil
	}
	return append([]Route(nil), rts...)
}

// EachBest calls fn with every prefix's equal-cost best set, primary first,
// in unspecified order, under the read lock. paths is the RIB's own slice: fn
// must not modify or retain it, and must not call back into the RIB.
func (r *RIB) EachBest(fn func(paths []Route)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, paths := range r.best {
		fn(paths)
	}
}

// Best returns the current primary best routes sorted by prefix.
func (r *RIB) Best() []Route {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Route, 0, len(r.best))
	for _, rts := range r.best {
		out = append(out, rts[0])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr() != out[j].Prefix.Addr() {
			return out[i].Prefix.Addr().Less(out[j].Prefix.Addr())
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

// Len returns the number of best routes.
func (r *RIB) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.best)
}

// trieNode is a binary LPM trie over IPv4 prefixes. Each terminal node holds
// the prefix's equal-cost best set (primary first), shared with RIB.best —
// the slices are replaced on reselection, never mutated, so storing them
// without copying is safe.
type trieNode struct {
	child  [2]*trieNode
	routes []Route
}

func addrBit(a netip.Addr, i int) int {
	b := a.As4()
	return int(b[i/8]>>(7-uint(i%8))) & 1
}

func (n *trieNode) insert(p netip.Prefix, rts []Route) {
	cur := n
	for i := 0; i < p.Bits(); i++ {
		bit := addrBit(p.Addr(), i)
		if cur.child[bit] == nil {
			cur.child[bit] = &trieNode{}
		}
		cur = cur.child[bit]
	}
	cur.routes = rts
}

func (n *trieNode) remove(p netip.Prefix) {
	cur := n
	for i := 0; i < p.Bits(); i++ {
		bit := addrBit(p.Addr(), i)
		if cur.child[bit] == nil {
			return
		}
		cur = cur.child[bit]
	}
	cur.routes = nil
}

func (n *trieNode) lookup(ip netip.Addr) (Route, bool) {
	rts := n.lookupAll(ip)
	if len(rts) == 0 {
		return Route{}, false
	}
	return rts[0], true
}

func (n *trieNode) lookupAll(ip netip.Addr) []Route {
	var best []Route
	cur := n
	for i := 0; ; i++ {
		if cur.routes != nil {
			best = cur.routes
		}
		if i >= 32 {
			break
		}
		next := cur.child[addrBit(ip, i)]
		if next == nil {
			break
		}
		cur = next
	}
	return best
}
