// Package ofswitch implements a software OpenFlow 1.0 switch — the
// reproduction's stand-in for the Open vSwitch instances the paper runs in
// Linux network namespaces. A Switch owns netemu endpoints as its ports,
// classifies arriving frames against a priority-ordered flow table, executes
// the standard OpenFlow 1.0 actions (including L2/L3 rewrites with checksum
// repair), punts table misses to its controller as packet-ins, and speaks
// the full control protocol: handshake, flow-mods with idle/hard timeouts
// and flow-removed notifications, packet-out, port-status, barrier, and
// desc/flow/aggregate/table/port statistics.
package ofswitch

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
)

// flowEntry is one installed flow. The immutable identity fields are written
// once under the table write lock; the hot-path counters are per-entry
// atomics so cached lookups never take a lock.
type flowEntry struct {
	match       openflow.Match
	priority    uint16
	cookie      uint64
	idleTimeout uint16
	hardTimeout uint16
	flags       uint16
	// actions is replaced wholesale (never mutated in place) under the
	// table write lock; readers capture the slice under the read lock or
	// from a microflow cache entry published after the capture.
	actions []openflow.Action

	created  time.Time
	lastUsed atomic.Int64 // UnixNano of the last matched packet; 0 = never
	packets  atomic.Uint64
	bytes    atomic.Uint64
	seq      uint64 // insertion order tiebreak

	// inline is where setActions copies an action list that fits, so that
	// the entry, its []Action and the action values are one allocation.
	inline inlineActions
}

// inlineActions is room for an rf-shaped action list inside its entry: at
// most one each of Output, SetDlSrc and SetDlDst, in any order.
type inlineActions struct {
	list [3]openflow.Action
	out  openflow.ActionOutput
	src  openflow.ActionSetDlSrc
	dst  openflow.ActionSetDlDst
}

// setActions makes e.actions e's own copy of the borrowed actions: inline
// when the list fits, else openflow.CloneActions. It runs once, before e is
// published, and is the only writer of e.inline: modify installs a fresh
// clone instead, since a microflow cache line may still hold the old slice.
func (e *flowEntry) setActions(actions []openflow.Action) {
	in := &e.inline
	if len(actions) == 0 || len(actions) > len(in.list) {
		e.actions = openflow.CloneActions(actions)
		return
	}
	for i, a := range actions {
		var p openflow.Action
		switch a := a.(type) {
		case *openflow.ActionOutput:
			in.out, p = *a, &in.out
		case *openflow.ActionSetDlSrc:
			in.src, p = *a, &in.src
		case *openflow.ActionSetDlDst:
			in.dst, p = *a, &in.dst
		}
		if p == nil || slices.Contains(in.list[:i], p) {
			e.actions = openflow.CloneActions(actions)
			return
		}
		in.list[i] = p
	}
	e.actions = in.list[:len(actions):len(actions)]
}

// hitN records n matched packets totalling nBytes, last seen at nowNanos.
// Lock-free: classify calls it per cache fill and flushHits per burst,
// concurrently across all ports of the switch. lastUsed is written only when
// it moves forward, so hits within one clock tick share one store.
func (e *flowEntry) hitN(n, nBytes uint64, nowNanos int64) {
	e.packets.Add(n)
	e.bytes.Add(nBytes)
	if e.lastUsed.Load() < nowNanos {
		e.lastUsed.Store(nowNanos)
	}
}

// FlowInfo is a read-only snapshot of one flow entry, for tests and the GUI.
// Actions is a deep copy: holders may inspect it at leisure while flow-mods
// keep rewriting the live entry.
type FlowInfo struct {
	Match       openflow.Match
	Priority    uint16
	Cookie      uint64
	IdleTimeout uint16
	HardTimeout uint16
	Actions     []openflow.Action
	Packets     uint64
	Bytes       uint64
	Age         time.Duration
}

// Microflow cache geometry: per shard, a fixed, power-of-two array probed at
// mfWays adjacent slots, so the fast path is one masked hash and one or two
// atomic pointer loads from one cache line.
// The cache is sharded by the delivering port (one shard per core, see
// newFlowTable) so parallel forwarding on different ports fills and probes
// disjoint slot arrays instead of bouncing one array's cache lines — and,
// because each shard has its own generation counter, disjoint generation
// words too.
const (
	mfCacheBits = 10
	mfCacheSize = 1 << mfCacheBits
	mfCacheMask = mfCacheSize - 1

	// mfWays is how many slots a key may occupy: its home slot and the
	// neighbour idx^1, which shares the home slot's cache line. One way
	// alone made two flows with the same home slot evict each other on every
	// packet, each refill an allocation (see docs/ARCHITECTURE.md).
	mfWays = 2

	// mfMaxShards caps the shard count; beyond this the slot arrays stop
	// paying for themselves in memory per switch.
	mfMaxShards = 16
)

// mfEntry is one microflow cache line: an exact packet key resolved to its
// matching flow and that flow's action list with its plan, valid for one
// table generation.
// Entries are immutable after publication; invalidation is wholesale via the
// table generation counter, so flow-mod semantics never depend on finding
// and scrubbing individual lines.
type mfEntry struct {
	key  openflow.Match
	gen  uint64
	flow *flowEntry
	plan actionPlan
	// mon is the telemetry counter of the monitor rule covering this
	// microflow, resolved once at cache fill (nil when unmonitored). A cache
	// hit charges it through the burst's hitTally, beside the flow —
	// monitoring rides the zero-alloc fast path instead of adding a second
	// classifier.
	mon *telCounter
}

// hitTally holds the counter updates of cache hits not yet written to the
// shared counters. Each goroutine that runs the pipeline owns one (on its
// staging): lookupN adds every hit to it, merging consecutive hits on the
// same flow and monitor into one run, and flushHits writes it out — once per
// burst, before any of the burst's frames leave the switch — as three table
// counter adds plus, per run, the flow's packets, bytes and lastUsed and the
// monitor's packets and bytes.
type hitTally struct {
	port uint16 // ingress port: picks the table counter shard
	now  int64  // UnixNano of the burst
	n    int
	runs [netemu.MaxBurst]hitRun
}

// hitRun is consecutive cache hits on one flow and monitor counter.
type hitRun struct {
	flow           *flowEntry
	mon            *telCounter
	packets, bytes uint64
}

// mfShard is one per-core slice of the microflow cache: its own generation
// counter (padded onto a private cache line so invalidation and hit checks
// on different shards never contend) and its own slot array.
type mfShard struct {
	gen   atomic.Uint64
	_     [56]byte
	slots [mfCacheSize]atomic.Pointer[mfEntry]
}

// tableCounters is one shard of the table-level counters, padded to a cache
// line. Every burst bumps lookups/matched; a single shared counter would make
// all ports of a switch bounce one cache line per burst — the very contention
// the lock-free hit path exists to avoid — so shards are picked by ingress
// port and summed on demand.
type tableCounters struct {
	lookups   atomic.Uint64
	matched   atomic.Uint64
	cacheHits atomic.Uint64
	_         [40]byte
}

// counterShards must be a power of two.
const counterShards = 8

// flowTable is a single OpenFlow 1.0 table with a two-tier lookup pipeline.
//
// Tier 1 is an exact-match microflow cache (the Open vSwitch idea): a
// two-way array indexed by a hash of the packet's exact header key,
// consulted with only atomic loads. A hit yields the pre-resolved action
// list and its plan and adds to the caller's hitTally, which reaches the
// per-entry atomic counters once per burst — the steady-state forwarding
// path takes zero locks and is O(1) in the number of installed flows.
//
// Tier 2 is the priority-ordered linear classifier, demoted to a cache-fill
// slow path behind the read half of an RWMutex. Flow-mods, expiry and other
// mutations take the write lock and bump every shard's generation, which
// atomically invalidates every cache line; the next packet of each
// microflow re-classifies and refills. This keeps OF 1.0 semantics exact: a
// barrier'd flow-mod is observed by the very next lookup.
//
// The entries are kept in bands, one per priority in use, and a mutation
// costs what it changes: an add finds its band by a binary search over the
// bands and appends to it; a strict add-replace, modify or delete is one
// probe of the strict index (open-addressed by a 64-bit hash of the
// identity, so growing it moves 16-byte slots), then a binary search for
// the slot inside the band; a loose delete or an expiry filters the bands in
// place, allocating only for what it removes. An added entry holds an
// rf-shaped action list inline (setActions), so it is the add's one
// allocation.
type flowTable struct {
	mu sync.RWMutex
	// bands holds the entries in (priority desc, seq asc) order, the order
	// classify scans: bands by priority, descending, and each band's entries
	// in seq order, so an add (whose seq is the largest yet) appends to its
	// band. No band is empty.
	bands []band
	n     int // entries in all bands
	// strict indexes entries by OpenFlow strict identity; it holds exactly
	// the entries in bands.
	strict strictIndex
	seq    uint64
	// timed counts the entries with an idle or hard timeout; timedAdded
	// wakes the expiry loop when it leaves zero.
	timed      int
	timedAdded chan struct{}

	// shards is the microflow cache, one shard per core (sized at
	// construction from GOMAXPROCS, rounded up to a power of two), selected
	// by the delivering port's shard ID so each port goroutine works a
	// private slot array.
	shards    []mfShard
	shardMask uint32
	counters  [counterShards]tableCounters

	// mon is the installed monitor rule set (telemetry.go), replaced
	// wholesale under the write lock; nil when nothing is monitored so the
	// unmonitored pipeline pays one pointer load per cache fill and nothing
	// on cache hits.
	mon atomic.Pointer[monitorSet]
}

// strictIndex indexes entries by OpenFlow strict identity, equal match and
// priority, in an open-addressed table of (strictHash, entry) slots probed
// linearly from the hash's home slot. A probe reads an entry only when the
// slot's hash is the one it looks for, and growing the table moves 16-byte
// slots without touching the entries. A removal shifts the rest of its run
// back into the hole, so there are no tombstones and a probe ends at the
// first empty slot. Entries whose hashes collide sit in one run and are
// told apart by their identity.
type strictIndex struct {
	slots []strictSlot // a power of two long, at most 3/4 full
	n     int
}

type strictSlot struct {
	hash uint64
	e    *flowEntry
}

// strictHash is the strict index's key for identity (m, priority).
func strictHash(m *openflow.Match, priority uint16) uint64 {
	return m.KeyHash() ^ uint64(priority)*0x9e3779b97f4a7c15
}

// find returns the entry of identity (m, priority), whose hash is h, or nil.
func (x *strictIndex) find(h uint64, m *openflow.Match, priority uint16) *flowEntry {
	mask := len(x.slots) - 1
	if mask < 0 {
		return nil
	}
	for i := int(h) & mask; x.slots[i].e != nil; i = (i + 1) & mask {
		if s := &x.slots[i]; s.hash == h && s.e.priority == priority && s.e.match == *m {
			return s.e
		}
	}
	return nil
}

// insert indexes e, whose identity is not indexed, under its hash h.
func (x *strictIndex) insert(h uint64, e *flowEntry) {
	if (x.n+1)*4 > len(x.slots)*3 {
		old := x.slots
		x.slots = make([]strictSlot, max(64, 2*len(old)))
		for _, s := range old {
			if s.e != nil {
				x.put(s)
			}
		}
	}
	x.put(strictSlot{h, e})
	x.n++
}

// put stores s in the first empty slot from its hash's home slot on.
func (x *strictIndex) put(s strictSlot) {
	mask := len(x.slots) - 1
	i := int(s.hash) & mask
	for x.slots[i].e != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// slot returns the index of e's slot; e is indexed under h.
func (x *strictIndex) slot(h uint64, e *flowEntry) int {
	mask := len(x.slots) - 1
	i := int(h) & mask
	for x.slots[i].e != e {
		i = (i + 1) & mask
	}
	return i
}

// replace puts e, of old's identity, in old's slot; h is their hash.
func (x *strictIndex) replace(h uint64, old, e *flowEntry) {
	x.slots[x.slot(h, old)].e = e
}

// remove drops e, indexed under h. Each later slot of the run whose probe
// passes the hole moves back into it, and leaves its own slot as the hole.
func (x *strictIndex) remove(h uint64, e *flowEntry) {
	mask := len(x.slots) - 1
	hole := x.slot(h, e)
	for j := (hole + 1) & mask; x.slots[j].e != nil; j = (j + 1) & mask {
		if home := int(x.slots[j].hash) & mask; (j-home)&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = strictSlot{}
	x.n--
}

// newFlowTable sizes the microflow cache shards to the core count: one
// shard per GOMAXPROCS, rounded up to a power of two (so shard selection is
// a mask), capped at mfMaxShards.
func newFlowTable() *flowTable {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < mfMaxShards {
		n <<= 1
	}
	return &flowTable{timedAdded: make(chan struct{}, 1),
		shards: make([]mfShard, n), shardMask: uint32(n - 1)}
}

// shardFor returns the microflow cache shard owned by the delivering port.
func (t *flowTable) shardFor(port uint16) *mfShard {
	return &t.shards[uint32(port)&t.shardMask]
}

// band is the run of entries of one priority, in seq order.
type band struct {
	priority uint16
	entries  []*flowEntry
}

// bandLocked returns the index of the band of priority, or where to insert
// it, and whether it exists.
func (t *flowTable) bandLocked(priority uint16) (int, bool) {
	i := sort.Search(len(t.bands), func(i int) bool { return t.bands[i].priority <= priority })
	return i, i < len(t.bands) && t.bands[i].priority == priority
}

// slotLocked returns the band and slot of e, which is installed.
func (t *flowTable) slotLocked(e *flowEntry) (*band, int) {
	i, _ := t.bandLocked(e.priority)
	b := &t.bands[i]
	return b, sort.Search(len(b.entries), func(j int) bool { return b.entries[j].seq >= e.seq })
}

// eachLocked calls f on every entry in classify order.
func (t *flowTable) eachLocked(f func(*flowEntry)) {
	for i := range t.bands {
		for _, e := range t.bands[i].entries {
			f(e)
		}
	}
}

// invalidateLocked marks every microflow cache line stale by bumping every
// shard's generation. Callers hold the write lock; each bump publishes
// after the mutation it covers because the shard generation is re-read
// under the read lock (or re-checked against a line's recorded generation)
// by every consumer.
func (t *flowTable) invalidateLocked() {
	for i := range t.shards {
		t.shards[i].gen.Add(1)
	}
}

// lookupN resolves key to the action plan of the highest-priority covering
// flow for a run of n same-key frames totalling nBytes, or reports ok=false
// for a table miss (the punt path — misses are never cached, so a controller
// installing a flow takes effect on the next packet). One cache probe (or one
// classifier scan) covers the whole run. A hit is counted in tally, which the
// caller flushes (flushHits) before the run's frames leave the switch; a
// fill or a miss is counted at once. The returned plan must not be mutated.
func (t *flowTable) lookupN(key *openflow.Match, n, nBytes uint64, nowNanos int64, tally *hitTally) (*actionPlan, bool) {
	shard := t.shardFor(key.InPort)
	gen := shard.gen.Load()
	idx := uint32(key.KeyHash()) & mfCacheMask
	var slot *atomic.Pointer[mfEntry]
	for way := uint32(0); way < mfWays; way++ {
		w := &shard.slots[idx^way]
		ce := w.Load()
		if ce != nil && ce.gen == gen && ce.key == *key {
			tally.add(t, ce, key.InPort, n, nBytes, nowNanos)
			return &ce.plan, true
		}
		// Refill the first way holding nothing live, the home slot when
		// both do.
		if slot == nil && (ce == nil || ce.gen != gen) {
			slot = w
		}
	}
	if slot == nil {
		slot = &shard.slots[idx]
	}
	c := &t.counters[key.InPort&(counterShards-1)]
	c.lookups.Add(n)
	return t.classify(key, n, nBytes, nowNanos, shard, slot, c)
}

// add tallies a run of n cache hits totalling nBytes on ce's flow and
// monitor. A full tally is flushed into t first.
func (h *hitTally) add(t *flowTable, ce *mfEntry, port uint16, n, nBytes uint64, nowNanos int64) {
	h.port, h.now = port, nowNanos
	if h.n > 0 {
		if r := &h.runs[h.n-1]; r.flow == ce.flow && r.mon == ce.mon {
			r.packets += n
			r.bytes += nBytes
			return
		}
	}
	if h.n == len(h.runs) {
		t.flushHits(h)
	}
	h.runs[h.n] = hitRun{flow: ce.flow, mon: ce.mon, packets: n, bytes: nBytes}
	h.n++
}

// flushHits writes h into the table counters, the flows and the monitor
// counters and empties it.
func (t *flowTable) flushHits(h *hitTally) {
	if h.n == 0 {
		return
	}
	var hits uint64
	for i := range h.runs[:h.n] {
		r := &h.runs[i]
		hits += r.packets
		r.flow.hitN(r.packets, r.bytes, h.now)
		if r.mon != nil {
			r.mon.add(r.packets, r.bytes)
		}
	}
	c := &t.counters[h.port&(counterShards-1)]
	c.lookups.Add(hits)
	c.matched.Add(hits)
	c.cacheHits.Add(hits)
	clear(h.runs[:h.n]) // hold no removed flow or monitor past the burst
	h.n = 0
}

// classify is the tier-2 slow path: scan the priority-ordered entries under
// the read lock, then publish the resolution and its plan into the caller's
// cache slot. The shard generation is captured under the read lock, so a
// mutation racing the publication leaves a line that is already stale —
// never a wrong hit. The counter update also happens under the read lock, so
// on this path a concurrent delete/expiry cannot snapshot flow-removed totals
// until the packet is counted. (A cache hit is counted when its burst's
// tally is flushed, after its generation check; a packet whose flow is
// removed in between may miss the notification totals — indistinguishable
// from the packet arriving just after removal, which OpenFlow permits. Every
// count is in place once the burst that carried it returns.)
func (t *flowTable) classify(key *openflow.Match, n, nBytes uint64, nowNanos int64, shard *mfShard, slot *atomic.Pointer[mfEntry], c *tableCounters) (*actionPlan, bool) {
	t.mu.RLock()
	gen := shard.gen.Load()
	for i := range t.bands {
		for _, e := range t.bands[i].entries {
			if e.match.Covers(key) {
				// The cache line holds the group's resolved bucket, so
				// the hit path never sees a multipath action.
				actions := openflow.ResolveMultipath(e.actions, key)
				c.matched.Add(n)
				e.hitN(n, nBytes, nowNanos)
				var mc *telCounter
				if ms := t.mon.Load(); ms != nil {
					if mc = ms.match(key); mc != nil {
						mc.add(n, nBytes)
					}
				}
				ce := &mfEntry{key: *key, gen: gen, flow: e, plan: planActions(actions), mon: mc}
				slot.Store(ce)
				t.mu.RUnlock()
				return &ce.plan, true
			}
		}
	}
	t.mu.RUnlock()
	return nil, false
}

// cacheHitCount sums the per-shard cache-hit counters (tests).
func (t *flowTable) cacheHitCount() uint64 {
	var n uint64
	for i := range t.counters {
		n += t.counters[i].cacheHits.Load()
	}
	return n
}

// cachedEntry reports the live cache line for key, if any (tests). The
// probe uses the same shard the delivering port (key.InPort) would.
func (t *flowTable) cachedEntry(key *openflow.Match) *mfEntry {
	shard := t.shardFor(key.InPort)
	idx := uint32(key.KeyHash()) & mfCacheMask
	for way := uint32(0); way < mfWays; way++ {
		ce := shard.slots[idx^way].Load()
		if ce != nil && ce.gen == shard.gen.Load() && ce.key == *key {
			return ce
		}
	}
	return nil
}

// overlaps approximates the OFPFF_CHECK_OVERLAP test: two entries of equal
// priority overlap when one's match covers a packet the other also covers.
// Exact overlap computation needs field-by-field intersection; covering in
// either direction is the common case and what this switch enforces.
func overlaps(a, b *flowEntry) bool {
	if a.priority != b.priority {
		return false
	}
	return a.match.Covers(&b.match) || b.match.Covers(&a.match)
}

// add installs a flow per FlowModAdd semantics. It returns an *ErrorMsg
// payload when the table must refuse (overlap check).
func (t *flowTable) add(e *flowEntry, checkOverlap bool) *openflow.ErrorMsg {
	h := strictHash(&e.match, e.priority)
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.strict.find(h, &e.match, e.priority)
	bi, ok := t.bandLocked(e.priority)
	if checkOverlap && ok {
		// Entries of other priorities never overlap: scan e's band.
		for _, ex := range t.bands[bi].entries {
			if ex != old && overlaps(ex, e) {
				return &openflow.ErrorMsg{ErrType: openflow.ErrTypeFlowModFailed,
					Code: openflow.ErrCodeFlowModOverlap}
			}
		}
	}
	switch {
	case old != nil:
		// Identical match+priority replaces the existing entry in its slot
		// (counters reset).
		e.seq = old.seq
		b, j := t.slotLocked(old)
		b.entries[j] = e
		t.strict.replace(h, old, e)
		t.untrackLocked(old)
	case !ok:
		t.bands = slices.Insert(t.bands, bi, band{priority: e.priority})
		fallthrough
	default:
		t.seq++
		e.seq = t.seq
		t.bands[bi].entries = append(t.bands[bi].entries, e)
		t.n++
		t.strict.insert(h, e)
	}
	if e.timed() {
		if t.timed++; t.timed == 1 {
			select {
			case t.timedAdded <- struct{}{}:
			default:
			}
		}
	}
	t.invalidateLocked()
	return nil
}

// timed reports whether e can expire.
func (e *flowEntry) timed() bool { return e.idleTimeout != 0 || e.hardTimeout != 0 }

// untrackLocked accounts for e leaving the table.
func (t *flowTable) untrackLocked(e *flowEntry) {
	if e.timed() {
		t.timed--
	}
}

// hasTimed reports whether any entry can expire.
func (t *flowTable) hasTimed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.timed > 0
}

// modify updates actions of matching flows; strict compares match+priority
// exactly, loose updates every flow whose match is covered by m. Returns the
// number updated; if none and the command is MODIFY, OF 1.0 says add it.
func (t *flowTable) modify(m *openflow.Match, priority uint16, actions []openflow.Action, strict bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	if strict {
		if e := t.strict.find(strictHash(m, priority), m, priority); e != nil {
			e.actions = actions
			n = 1
		}
	} else {
		t.eachLocked(func(e *flowEntry) {
			if m.Covers(&e.match) {
				e.actions = actions
				n++
			}
		})
	}
	if n > 0 {
		t.invalidateLocked()
	}
	return n
}

// outputsTo reports whether e passes a delete's out_port filter: outPort is
// PortNone (no filter), or one of e's outputs or multipath buckets is to it.
func outputsTo(e *flowEntry, outPort uint16) bool {
	if outPort == openflow.PortNone {
		return true
	}
	for _, a := range e.actions {
		switch a := a.(type) {
		case *openflow.ActionOutput:
			if a.Port == outPort {
				return true
			}
		case *openflow.ActionMultipath:
			for _, bk := range a.Buckets {
				if bk.Port == outPort {
					return true
				}
			}
		}
	}
	return false
}

// deleteFlows removes flows per FlowModDelete semantics. outPort filters to
// flows with an output action to that port (PortNone = no filter). Removed
// entries are returned so the switch can emit flow-removed notifications.
func (t *flowTable) deleteFlows(m *openflow.Match, priority uint16, outPort uint16, strict bool) []*flowEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !strict {
		return t.removeLocked(func(e *flowEntry) bool {
			return m.Covers(&e.match) && outputsTo(e, outPort)
		})
	}
	h := strictHash(m, priority)
	e := t.strict.find(h, m, priority)
	if e == nil || !outputsTo(e, outPort) {
		return nil
	}
	b, j := t.slotLocked(e)
	b.entries = slices.Delete(b.entries, j, j+1)
	t.n--
	t.untrackLocked(e)
	t.strict.remove(h, e)
	t.dropEmptyLocked()
	t.invalidateLocked()
	return []*flowEntry{e}
}

// removeLocked filters every band in place, keeping the order, and returns
// the entries drop selects. It allocates only when it removes something.
func (t *flowTable) removeLocked(drop func(*flowEntry) bool) []*flowEntry {
	var removed []*flowEntry
	for i := range t.bands {
		b := &t.bands[i]
		kept := b.entries[:0]
		for _, e := range b.entries {
			if drop(e) {
				removed = append(removed, e)
				t.untrackLocked(e)
				t.strict.remove(strictHash(&e.match, e.priority), e)
			} else {
				kept = append(kept, e)
			}
		}
		clear(b.entries[len(kept):])
		b.entries = kept
	}
	if len(removed) > 0 {
		t.n -= len(removed)
		t.dropEmptyLocked()
		t.invalidateLocked()
	}
	return removed
}

// dropEmptyLocked removes the bands a removal left empty.
func (t *flowTable) dropEmptyLocked() {
	t.bands = slices.DeleteFunc(t.bands, func(b band) bool { return len(b.entries) == 0 })
}

// expire removes entries past their idle or hard timeout. Idle accounting
// reads the per-entry atomic lastUsed stamp, which every burst's tally flush
// keeps fresh — a flow carrying steady traffic through the microflow cache
// never idles out.
func (t *flowTable) expire(now time.Time) []*flowEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.removeLocked(func(e *flowEntry) bool {
		if e.hardTimeout > 0 && now.Sub(e.created) >= time.Duration(e.hardTimeout)*time.Second {
			return true
		}
		if e.idleTimeout == 0 {
			return false
		}
		ref := e.created
		if n := e.lastUsed.Load(); n != 0 {
			ref = time.Unix(0, n)
		}
		return now.Sub(ref) >= time.Duration(e.idleTimeout)*time.Second
	})
}

// snapshot returns FlowInfo for all entries in table order. Actions are
// deep-copied: the live slices keep being replaced by concurrent flow-mods
// while the snapshot holder (GUI, stats) reads its copy.
func (t *flowTable) snapshot(now time.Time) []FlowInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]FlowInfo, 0, t.n)
	t.eachLocked(func(e *flowEntry) {
		out = append(out, FlowInfo{
			Match: e.match, Priority: e.priority, Cookie: e.cookie,
			IdleTimeout: e.idleTimeout, HardTimeout: e.hardTimeout,
			Actions: openflow.CloneActions(e.actions),
			Packets: e.packets.Load(), Bytes: e.bytes.Load(),
			Age: now.Sub(e.created),
		})
	})
	return out
}

func (t *flowTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

func (t *flowTable) stats() (lookups, matched uint64, active int) {
	t.mu.RLock()
	active = t.n
	t.mu.RUnlock()
	for i := range t.counters {
		lookups += t.counters[i].lookups.Load()
		matched += t.counters[i].matched.Load()
	}
	return lookups, matched, active
}

func (e *flowEntry) String() string {
	return fmt.Sprintf("flow{prio=%d %v}", e.priority, &e.match)
}
