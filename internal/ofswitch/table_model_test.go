package ofswitch

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// refEntry is one flow of the reference table. id is the cookie of the
// flowEntry it mirrors.
type refEntry struct {
	id          uint64
	match       openflow.Match
	priority    uint16
	seq         uint64
	port        uint16
	idleTimeout uint16
	hardTimeout uint16
	created     time.Time
	lastUsed    int64
	packets     uint64
}

// refTable is the flow table written the obvious way: a slice, a full
// stable sort after every add, and linear scans for everything else.
type refTable struct {
	entries []*refEntry
	seq     uint64
}

func (r *refTable) add(e *refEntry, checkOverlap bool) bool {
	if checkOverlap {
		for _, ex := range r.entries {
			if ex.priority == e.priority && ex.match != e.match &&
				(ex.match.Covers(&e.match) || e.match.Covers(&ex.match)) {
				return false
			}
		}
	}
	r.seq++
	for i, ex := range r.entries {
		if ex.priority == e.priority && ex.match == e.match {
			e.seq = ex.seq
			r.entries[i] = e
			return true
		}
	}
	e.seq = r.seq
	r.entries = append(r.entries, e)
	sort.SliceStable(r.entries, func(i, j int) bool {
		if r.entries[i].priority != r.entries[j].priority {
			return r.entries[i].priority > r.entries[j].priority
		}
		return r.entries[i].seq < r.entries[j].seq
	})
	return true
}

func (r *refTable) modify(m *openflow.Match, priority, port uint16, strict bool) int {
	n := 0
	for _, e := range r.entries {
		if strict && e.priority == priority && e.match == *m || !strict && m.Covers(&e.match) {
			e.port = port
			n++
		}
	}
	return n
}

// remove keeps the entries drop rejects and returns the others' ids in
// table order.
func (r *refTable) remove(drop func(*refEntry) bool) []uint64 {
	var kept []*refEntry
	var removed []uint64
	for _, e := range r.entries {
		if drop(e) {
			removed = append(removed, e.id)
		} else {
			kept = append(kept, e)
		}
	}
	r.entries = kept
	return removed
}

func (r *refTable) deleteFlows(m *openflow.Match, priority, outPort uint16, strict bool) []uint64 {
	return r.remove(func(e *refEntry) bool {
		if strict && (e.priority != priority || e.match != *m) || !strict && !m.Covers(&e.match) {
			return false
		}
		return outPort == openflow.PortNone || e.port == outPort
	})
}

func (r *refTable) expire(now time.Time) []uint64 {
	return r.remove(func(e *refEntry) bool {
		if e.hardTimeout > 0 && now.Sub(e.created) >= time.Duration(e.hardTimeout)*time.Second {
			return true
		}
		ref := e.created
		if e.lastUsed != 0 {
			ref = time.Unix(0, e.lastUsed)
		}
		return e.idleTimeout > 0 && now.Sub(ref) >= time.Duration(e.idleTimeout)*time.Second
	})
}

func (r *refTable) lookup(key *openflow.Match, nowNanos int64) *refEntry {
	for _, e := range r.entries {
		if e.match.Covers(key) {
			e.packets++
			e.lastUsed = nowNanos
			return e
		}
	}
	return nil
}

// modelGen draws matches and packet keys from a universe small enough that
// duplicates, overlaps and equal-priority runs are common. Priorities come
// from four neighbouring entries of modelPriorities, starting at window:
// as the window moves, the bands it leaves drain and the ones it reaches
// fill.
type modelGen struct {
	r      *rand.Rand
	window int
}

var modelPriorities = []uint16{0, 1, 2, 132, 400, 500, 0xffff}

func (g modelGen) addr(a byte) [4]byte {
	return [4]byte{10, a, byte(g.r.Intn(2)), byte(1 + g.r.Intn(2))}
}

func (g modelGen) match() openflow.Match {
	m := openflow.MatchAll()
	if g.r.Intn(4) == 0 {
		m.Wildcards &^= openflow.WildcardInPort
		m.InPort = uint16(1 + g.r.Intn(3))
	}
	if g.r.Intn(5) == 0 {
		return m
	}
	m.Wildcards &^= openflow.WildcardDlType
	m.DlType = uint16(pkt.EtherTypeIPv4)
	bits := []int{0, 8, 16, 24, 31, 32}
	// The address is not masked to the prefix: two matches selecting the
	// same packets can still differ as raw Match values.
	m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4(g.addr(byte(g.r.Intn(2)))), bits[g.r.Intn(len(bits))]))
	if g.r.Intn(3) == 0 {
		m.SetNwSrcPrefix(netip.PrefixFrom(netip.AddrFrom4(g.addr(9)), bits[g.r.Intn(len(bits))]))
	}
	return m
}

func (g modelGen) key() openflow.Match {
	return openflow.Match{
		InPort: uint16(1 + g.r.Intn(3)),
		DlType: uint16(pkt.EtherTypeIPv4),
		NwSrc:  g.addr(9),
		NwDst:  g.addr(byte(g.r.Intn(2))),
	}
}

func (g modelGen) priority() uint16 {
	return modelPriorities[(g.window+g.r.Intn(4))%len(modelPriorities)]
}
func (g modelGen) port() uint16    { return uint16(1 + g.r.Intn(4)) }
func (g modelGen) timeout() uint16 { return []uint16{0, 0, 1, 2}[g.r.Intn(4)] }

func ids(es []*flowEntry) []uint64 {
	var out []uint64
	for _, e := range es {
		out = append(out, e.cookie)
	}
	return out
}

// checkBands fails t unless tb's bands are well formed: none empty, their
// priorities strictly descending, and each one's entries of its priority in
// ascending seq order, as many in all as tb counts. It returns the bands'
// priorities.
func checkBands(t *testing.T, step int, tb *flowTable) map[uint16]bool {
	t.Helper()
	prios := map[uint16]bool{}
	n := 0
	for i, b := range tb.bands {
		if len(b.entries) == 0 {
			t.Fatalf("step %d: band %d (priority %d) is empty", step, i, b.priority)
		}
		if i > 0 && tb.bands[i-1].priority <= b.priority {
			t.Fatalf("step %d: band %d priority %d after %d", step, i, b.priority, tb.bands[i-1].priority)
		}
		for j, e := range b.entries {
			if e.priority != b.priority || j > 0 && b.entries[j-1].seq >= e.seq {
				t.Fatalf("step %d: band %d (priority %d) slot %d holds priority %d seq %d", step, i, b.priority, j, e.priority, e.seq)
			}
		}
		prios[b.priority] = true
		n += len(b.entries)
	}
	if n != tb.n {
		t.Fatalf("step %d: bands hold %d entries, table counts %d", step, n, tb.n)
	}
	return prios
}

// TestFlowTableMatchesReference runs random interleavings of every table
// mutation, expiry on a fake clock, and packet lookups against refTable, and
// after every step compares the winner for each probe key, the length, the
// snapshot order and counters, and each step's removed set or overlap
// verdict, and checks the bands (checkBands) and the strict index
// (checkStrict). Add-replace, MODIFY_STRICT and DELETE_STRICT mostly name an
// installed identity, and an add-replace may be followed by a strict modify
// or delete of the same identity. Priorities are drawn from a window that
// moves every few hundred steps, so bands are created, emptied and
// re-created; each seed must re-create at least one.
func TestFlowTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			g := &modelGen{r: rand.New(rand.NewSource(seed))}
			tb, ref := newFlowTable(), &refTable{}
			now := time.Date(2013, 8, 12, 0, 0, 0, 0, time.UTC)
			probes := make([]openflow.Match, 12)
			for i := range probes {
				probes[i] = g.key()
			}
			var id uint64
			newEntry := func(m openflow.Match, prio uint16) (*flowEntry, *refEntry) {
				id++
				port, idle, hard := g.port(), g.timeout(), g.timeout()
				return &flowEntry{match: m, priority: prio, cookie: id, idleTimeout: idle, hardTimeout: hard,
						actions: []openflow.Action{&openflow.ActionOutput{Port: port}}, created: now},
					&refEntry{id: id, match: m, priority: prio, port: port, idleTimeout: idle, hardTimeout: hard, created: now}
			}
			lookup := func(step int, key *openflow.Match) {
				t.Helper()
				nowNanos := now.UnixNano()
				actions, ok := tb.lookupFlushed(key, 1, 64, nowNanos)
				want := ref.lookup(key, nowNanos)
				if ok != (want != nil) {
					t.Fatalf("step %d: lookup %v hit=%v, reference hit=%v", step, key, ok, want != nil)
				}
				if !ok {
					return
				}
				if got := tb.cachedEntry(key).flow.cookie; got != want.id || outPortOf(t, actions) != want.port {
					t.Fatalf("step %d: lookup %v won flow %d to port %d, reference flow %d to port %d",
						step, key, got, outPortOf(t, actions), want.id, want.port)
				}
			}
			bands, emptied, recreated := map[uint16]bool{}, map[uint16]bool{}, 0
			for step := 0; step < 3000; step++ {
				g.window = step / 300
				var gotRemoved, wantRemoved []uint64
				switch op := g.r.Intn(20); {
				case op < 7: // add, one in three with the overlap check
					checkOverlap := op < 2
					e, re := newEntry(g.match(), g.priority())
					if err := tb.add(e, checkOverlap); (err == nil) != ref.add(re, checkOverlap) {
						t.Fatalf("step %d: add %v prio %d check=%v refused=%v, reference disagrees",
							step, &e.match, e.priority, checkOverlap, err != nil)
					}
				case op < 9: // duplicate add of an installed flow, then maybe a strict op on it
					if len(ref.entries) > 0 {
						ex := ref.entries[g.r.Intn(len(ref.entries))]
						m, prio := ex.match, ex.priority
						e, re := newEntry(m, prio)
						checkOverlap := op == 8
						if err := tb.add(e, checkOverlap); (err == nil) != ref.add(re, checkOverlap) {
							t.Fatalf("step %d: duplicate add refused=%v, reference disagrees", step, err != nil)
						}
						switch g.r.Intn(3) {
						case 0:
							port := g.port()
							got := tb.modify(&m, prio, []openflow.Action{&openflow.ActionOutput{Port: port}}, true)
							if want := ref.modify(&m, prio, port, true); got != want {
								t.Fatalf("step %d: MODIFY_STRICT after add-replace changed %d flows, reference %d", step, got, want)
							}
						case 1:
							gotRemoved = ids(tb.deleteFlows(&m, prio, openflow.PortNone, true))
							wantRemoved = ref.deleteFlows(&m, prio, openflow.PortNone, true)
						}
					}
				case op < 12: // modify, strict on an installed flow or loose
					strict := op < 11
					m, prio := g.match(), g.priority()
					if strict && len(ref.entries) > 0 && g.r.Intn(4) != 0 {
						ex := ref.entries[g.r.Intn(len(ref.entries))]
						m, prio = ex.match, ex.priority
					}
					port := g.port()
					got := tb.modify(&m, prio, []openflow.Action{&openflow.ActionOutput{Port: port}}, strict)
					if want := ref.modify(&m, prio, port, strict); got != want {
						t.Fatalf("step %d: modify strict=%v changed %d flows, reference %d", step, strict, got, want)
					}
				case op < 15: // delete, strict on an installed flow or loose, with and without out_port
					strict := op < 14
					m, prio := g.match(), g.priority()
					if strict && len(ref.entries) > 0 && g.r.Intn(4) != 0 {
						ex := ref.entries[g.r.Intn(len(ref.entries))]
						m, prio = ex.match, ex.priority
					}
					outPort := openflow.PortNone
					if g.r.Intn(2) == 0 {
						outPort = g.port()
					}
					gotRemoved = ids(tb.deleteFlows(&m, prio, outPort, strict))
					wantRemoved = ref.deleteFlows(&m, prio, outPort, strict)
				case op < 17: // the clock moves on, then expiry
					now = now.Add(time.Duration(g.r.Intn(2500)) * time.Millisecond)
					gotRemoved, wantRemoved = ids(tb.expire(now)), ref.expire(now)
				default: // a packet from outside the probe set
					key := g.key()
					lookup(step, &key)
				}
				if !slices.Equal(gotRemoved, wantRemoved) {
					t.Fatalf("step %d: removed %v, reference %v", step, gotRemoved, wantRemoved)
				}
				if got, want := tb.len(), len(ref.entries); got != want {
					t.Fatalf("step %d: table holds %d flows, reference %d", step, got, want)
				}
				for i, fi := range tb.snapshot(now) {
					re := ref.entries[i]
					if fi.Cookie != re.id || outPortOf(t, fi.Actions) != re.port || fi.Packets != re.packets {
						t.Fatalf("step %d: snapshot[%d] = flow %d port %d packets %d, reference flow %d port %d packets %d",
							step, i, fi.Cookie, outPortOf(t, fi.Actions), fi.Packets, re.id, re.port, re.packets)
					}
				}
				for i := range probes {
					lookup(step, &probes[i])
				}
				checkStrict(t, step, tb, ref)
				now := checkBands(t, step, tb)
				for p := range bands {
					emptied[p] = emptied[p] || !now[p]
				}
				for p := range now {
					if !bands[p] && emptied[p] {
						recreated++
					}
				}
				bands = now
			}
			if recreated == 0 {
				t.Fatal("no band was emptied and re-created")
			}
		})
	}
}

// checkStrict fails t unless tb's strict index holds exactly the reference's
// identities, each under its hash and resolving to the entry the reference
// mirrors.
func checkStrict(t *testing.T, step int, tb *flowTable, ref *refTable) {
	t.Helper()
	if tb.strict.n != len(ref.entries) {
		t.Fatalf("step %d: strict index holds %d entries, reference %d", step, tb.strict.n, len(ref.entries))
	}
	for _, re := range ref.entries {
		e := tb.strict.find(strictHash(&re.match, re.priority), &re.match, re.priority)
		if e == nil || e.cookie != re.id {
			t.Fatalf("step %d: strict index lost flow %d (prio %d %v)", step, re.id, re.priority, &re.match)
		}
	}
}

// TestStrictIndexCollisions indexes several identities under one hash whose
// home is the last slot, so their run wraps round, behind them two under
// hashes homed inside that run and one homed just past it, and then
// replaces and removes entries at the head, the middle and the end of the
// run. After every step each indexed identity resolves to its entry,
// removed ones to nothing, and every slot holds an indexed entry or nothing.
func TestStrictIndexCollisions(t *testing.T) {
	var x strictIndex
	type idx struct {
		h uint64
		e *flowEntry
	}
	var live []idx
	entry := func(port uint16, prio uint16) *flowEntry {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardInPort
		m.InPort = port
		return &flowEntry{match: m, priority: prio}
	}
	check := func(what string, gone ...idx) {
		t.Helper()
		for _, l := range live {
			if got := x.find(l.h, &l.e.match, l.e.priority); got != l.e {
				t.Fatalf("%s: identity (port %d, prio %d) resolves to %v, want its entry", what, l.e.match.InPort, l.e.priority, got)
			}
		}
		for _, g := range gone {
			if got := x.find(g.h, &g.e.match, g.e.priority); got != nil {
				t.Fatalf("%s: removed identity (port %d, prio %d) still resolves", what, g.e.match.InPort, g.e.priority)
			}
		}
		held := 0
		for _, s := range x.slots {
			if s.e != nil {
				held++
			}
		}
		if held != len(live) || x.n != len(live) {
			t.Fatalf("%s: %d slots held, index counts %d, want %d", what, held, x.n, len(live))
		}
	}
	drop := func(i int) idx {
		l := live[i]
		x.remove(l.h, l.e)
		live = slices.Delete(live, i, i+1)
		return l
	}

	const h = 63 // the last of the first 64 slots
	for i, prio := range []uint16{100, 100, 200, 100} {
		e := entry(uint16(1+i), prio)
		x.insert(h, e)
		live = append(live, idx{h, e})
	}
	// Homed at slots 0 and 1, where the wrapped run already sits, and at
	// slot 5, just past the run: a removal must not shift that one back.
	for i, hh := range []uint64{64, 1, 5} {
		e := entry(uint16(10+i), 100)
		x.insert(hh, e)
		live = append(live, idx{hh, e})
	}
	check("insert")
	if got := x.find(h, &live[0].e.match, 300); got != nil {
		t.Fatal("an identity differing only in priority resolves")
	}

	// Replace in the middle of the run: same slot, new entry.
	old := live[2].e
	slot := x.slot(h, old)
	repl := entry(old.match.InPort, old.priority)
	x.replace(h, old, repl)
	live[2].e = repl
	check("replace middle")
	if x.slot(h, repl) != slot {
		t.Fatalf("replacement moved from slot %d to %d", slot, x.slot(h, repl))
	}

	gone := []idx{drop(0)} // the head of the run
	check("remove head", gone...)
	gone = append(gone, drop(1)) // the middle
	check("remove middle", gone...)
	gone = append(gone, drop(2)) // homed at 0, displaced
	check("remove displaced", gone...)
	e := entry(20, 100)
	x.insert(h, e)
	live = append(live, idx{h, e})
	check("insert after removals", gone...)
	for len(live) > 0 {
		gone = append(gone, drop(len(live)-1)) // the end of the run first
		check("drain", gone...)
	}
}

// TestFlowModAddAllocBudget pins what an rf-shaped FLOW_MOD costs the switch
// on a 4096-flow table: a decoded add (output plus both MAC rewrites)
// followed by its DELETE_STRICT allocates the entry, which holds its actions
// inline, and the removed list, and nothing more.
func TestFlowModAddAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	sw := New(Config{DPID: 0xBE, Name: "alloc"})
	for _, fm := range rfShapedFlowMods(4096) {
		sw.handleFlowMod(fm, sw.clk.Now())
	}
	decoy := rfShapedFlowMods(1)[0]
	decoy.Match.SetNwDstPrefix(netip.MustParsePrefix("172.30.0.0/30"))
	decoy.Actions = []openflow.Action{decoy.Actions[2], decoy.Actions[0], decoy.Actions[1]}
	del := *decoy
	del.Command, del.Actions = openflow.FlowModDeleteStrict, nil
	decoded := func(m openflow.Message) *openflow.FlowMod {
		got, err := openflow.NewDecoder(bytes.NewReader(m.AppendTo(nil))).Decode()
		if err != nil {
			t.Fatal(err)
		}
		return got.(*openflow.FlowMod)
	}
	add, rm := decoded(decoy), decoded(&del)
	objects, size := allocsPerRun(200, func() {
		sw.handleFlowMod(add, sw.clk.Now())
		sw.handleFlowMod(rm, sw.clk.Now())
	})
	if objects > 2 || size > 256 {
		t.Fatalf("rf-shaped add + DELETE_STRICT on 4096 flows = %.1f allocs, %.0f B; want ≤ 2 (the entry and the removed list) and ≤ 256 B",
			objects, size)
	}
	if n := sw.NumFlows(); n != 4096 {
		t.Fatalf("table holds %d flows, want 4096", n)
	}
	sw.handleFlowMod(add, sw.clk.Now())
	for _, fi := range sw.FlowTable() {
		if fi.Match == decoy.Match && !openflow.ActionsEqual(fi.Actions, decoy.Actions) {
			t.Fatalf("installed actions %v, want %v", fi.Actions, decoy.Actions)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well as objects:
// one allocation of a whole-table slice is one object.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestFlowModStrictAllocBudget pins a strict flow-mod's cost on a full
// table: an add of a made entry and its DELETE_STRICT among 4096 flows
// allocate the removed list and nothing else (the strict index neither grows
// nor keeps tombstones), not a copy of the table's 32 KiB of pointers; an
// expiry that removes nothing allocates nothing.
func TestFlowModStrictAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	tb := newFlowTable()
	for i := 0; i < 4096; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = uint16(pkt.EtherTypeIPv4)
		m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24))
		if err := tb.add(tableEntry(m, modelPriorities[i%len(modelPriorities)], 2), false); err != nil {
			t.Fatal(err)
		}
	}
	decoy := openflow.MatchAll()
	decoy.Wildcards &^= openflow.WildcardDlType
	decoy.DlType = uint16(pkt.EtherTypeIPv4)
	decoy.SetNwDstPrefix(netip.MustParsePrefix("172.30.0.0/30"))
	e := tableEntry(decoy, 132, 2)
	objects, bytes := allocsPerRun(200, func() {
		*e = flowEntry{match: decoy, priority: 132, actions: e.actions}
		if err := tb.add(e, false); err != nil {
			t.Fatal(err)
		}
		if removed := tb.deleteFlows(&decoy, 132, openflow.PortNone, true); len(removed) != 1 {
			t.Fatalf("DELETE_STRICT removed %d flows, want 1", len(removed))
		}
	})
	if objects > 1 || bytes > 8 {
		t.Fatalf("add + DELETE_STRICT on 4096 flows = %.1f allocs, %.0f B; want ≤ 1 (the removed list) and ≤ 8 B", objects, bytes)
	}
	if n := tb.len(); n != 4096 {
		t.Fatalf("table holds %d flows, want 4096", n)
	}
	now := time.Now()
	if objects, _ := allocsPerRun(100, func() {
		if removed := tb.expire(now); len(removed) != 0 {
			t.Fatalf("expiry removed %d flows without timeouts", len(removed))
		}
	}); objects != 0 {
		t.Fatalf("expiry that removes nothing = %.1f allocs, want 0", objects)
	}
}
