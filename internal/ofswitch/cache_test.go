package ofswitch

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// tableEntry builds a flow entry for direct flowTable tests.
func tableEntry(m openflow.Match, prio uint16, outPort uint16) *flowEntry {
	return &flowEntry{
		match: m, priority: prio,
		actions: []openflow.Action{&openflow.ActionOutput{Port: outPort}},
		created: time.Now(),
	}
}

// lookupFlushed is lookupN for one run with its hits flushed at once: what
// a burst carrying that run leaves counted once handleBatch returns.
func (t *flowTable) lookupFlushed(key *openflow.Match, n, nBytes uint64, nowNanos int64) ([]openflow.Action, bool) {
	var h hitTally
	p, ok := t.lookupN(key, n, nBytes, nowNanos, &h)
	t.flushHits(&h)
	if !ok {
		return nil, false
	}
	return p.actions, true
}

func exactKeyFor(t testing.TB, inPort uint16) openflow.Match {
	t.Helper()
	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.9.0.9", 1000, 2000, "k")
	key, err := openflow.ExtractKey(inPort, frame)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func outPortOf(t testing.TB, actions []openflow.Action) uint16 {
	t.Helper()
	for _, a := range actions {
		if o, ok := a.(*openflow.ActionOutput); ok {
			return o.Port
		}
	}
	t.Fatal("no output action")
	return 0
}

// TestMicroflowCacheHitPath proves the second lookup of a microflow is a
// cache hit resolving to the same actions, with counters accumulating on
// the shared flow entry.
func TestMicroflowCacheHitPath(t *testing.T) {
	tb := newFlowTable()
	key := exactKeyFor(t, 1)
	if err := tb.add(tableEntry(openflow.MatchAll(), 10, 2), false); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	a1, ok := tb.lookupFlushed(&key, 1, 100, now)
	if !ok || outPortOf(t, a1) != 2 {
		t.Fatalf("first lookup = %v, %v", a1, ok)
	}
	if tb.cacheHitCount() != 0 {
		t.Fatal("first lookup must be a classifier fill, not a hit")
	}
	if tb.cachedEntry(&key) == nil {
		t.Fatal("lookup did not fill the cache")
	}
	a2, ok := tb.lookupFlushed(&key, 1, 50, now)
	if !ok || outPortOf(t, a2) != 2 {
		t.Fatalf("second lookup = %v, %v", a2, ok)
	}
	if tb.cacheHitCount() != 1 {
		t.Fatalf("cacheHits = %d, want 1", tb.cacheHitCount())
	}
	fi := tb.snapshot(time.Now())
	if len(fi) != 1 || fi[0].Packets != 2 || fi[0].Bytes != 150 {
		t.Fatalf("snapshot counters = %+v", fi)
	}
}

// TestMicroflowCacheInvalidation drives every table mutation kind and
// checks that the next lookup after each one re-classifies instead of
// serving the stale pre-mutation resolution.
func TestMicroflowCacheInvalidation(t *testing.T) {
	key := exactKeyFor(t, 1)
	now := time.Now().UnixNano()

	warm := func(t *testing.T, tb *flowTable, wantPort uint16) {
		t.Helper()
		actions, ok := tb.lookupFlushed(&key, 1, 10, now)
		if !ok || outPortOf(t, actions) != wantPort {
			t.Fatalf("warm lookup = %v, %v (want port %d)", actions, ok, wantPort)
		}
		if tb.cachedEntry(&key) == nil {
			t.Fatal("cache not filled")
		}
	}

	t.Run("add", func(t *testing.T) {
		tb := newFlowTable()
		if err := tb.add(tableEntry(openflow.MatchAll(), 10, 2), false); err != nil {
			t.Fatal(err)
		}
		warm(t, tb, 2)
		// A higher-priority flow covering the same microflow must win
		// immediately — the OF 1.0 barrier contract.
		if err := tb.add(tableEntry(openflow.MatchAll(), 100, 3), false); err != nil {
			t.Fatal(err)
		}
		if tb.cachedEntry(&key) != nil {
			t.Fatal("add did not invalidate the cache")
		}
		actions, ok := tb.lookupFlushed(&key, 1, 10, now)
		if !ok || outPortOf(t, actions) != 3 {
			t.Fatalf("post-add lookup = %v, %v", actions, ok)
		}
	})

	t.Run("modify", func(t *testing.T) {
		tb := newFlowTable()
		if err := tb.add(tableEntry(openflow.MatchAll(), 10, 2), false); err != nil {
			t.Fatal(err)
		}
		warm(t, tb, 2)
		m := openflow.MatchAll()
		if n := tb.modify(&m, 0, []openflow.Action{&openflow.ActionOutput{Port: 7}}, false); n != 1 {
			t.Fatalf("modify touched %d flows", n)
		}
		if tb.cachedEntry(&key) != nil {
			t.Fatal("modify did not invalidate the cache")
		}
		actions, ok := tb.lookupFlushed(&key, 1, 10, now)
		if !ok || outPortOf(t, actions) != 7 {
			t.Fatalf("post-modify lookup = %v, %v", actions, ok)
		}
	})

	t.Run("delete", func(t *testing.T) {
		tb := newFlowTable()
		if err := tb.add(tableEntry(openflow.MatchAll(), 10, 2), false); err != nil {
			t.Fatal(err)
		}
		warm(t, tb, 2)
		m := openflow.MatchAll()
		if removed := tb.deleteFlows(&m, 0, openflow.PortNone, false); len(removed) != 1 {
			t.Fatalf("deleted %d flows", len(removed))
		}
		if tb.cachedEntry(&key) != nil {
			t.Fatal("delete did not invalidate the cache")
		}
		if _, ok := tb.lookupFlushed(&key, 1, 10, now); ok {
			t.Fatal("lookup matched a deleted flow")
		}
	})

	t.Run("expire", func(t *testing.T) {
		tb := newFlowTable()
		e := tableEntry(openflow.MatchAll(), 10, 2)
		e.hardTimeout = 1
		if err := tb.add(e, false); err != nil {
			t.Fatal(err)
		}
		warm(t, tb, 2)
		if removed := tb.expire(e.created.Add(2 * time.Second)); len(removed) != 1 {
			t.Fatalf("expired %d flows", len(removed))
		}
		if tb.cachedEntry(&key) != nil {
			t.Fatal("expire did not invalidate the cache")
		}
		if _, ok := tb.lookupFlushed(&key, 1, 10, now); ok {
			t.Fatal("lookup matched an expired flow")
		}
	})
}

// TestTableMissNotCached proves the punt path bypasses the cache: a miss
// must not leave a cache line, so a subsequently installed flow takes
// effect on the very next packet.
func TestTableMissNotCached(t *testing.T) {
	tb := newFlowTable()
	key := exactKeyFor(t, 1)
	if _, ok := tb.lookupFlushed(&key, 1, 10, time.Now().UnixNano()); ok {
		t.Fatal("lookup matched an empty table")
	}
	for way := uint32(0); way < mfWays; way++ {
		if tb.shardFor(key.InPort).slots[uint32(key.KeyHash())&mfCacheMask^way].Load() != nil {
			t.Fatal("miss left a cache line")
		}
	}
	if err := tb.add(tableEntry(openflow.MatchAll(), 1, 2), false); err != nil {
		t.Fatal(err)
	}
	if actions, ok := tb.lookupFlushed(&key, 1, 10, time.Now().UnixNano()); !ok || outPortOf(t, actions) != 2 {
		t.Fatalf("lookup after install = %v, %v", actions, ok)
	}
}

// TestIdleTimeoutFedByCachedHits drives traffic through the cached fast
// path and checks the idle-timeout accounting still sees it: the flow must
// survive while packets flow and expire only after they stop.
func TestIdleTimeoutFedByCachedHits(t *testing.T) {
	clk := clock.Scaled(25) // 1 protocol second = 40ms wall
	h := newHarness(t, clk)
	fm := &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		Priority: 5, IdleTimeout: 2, BufferID: openflow.NoBuffer,
		OutPort: openflow.PortNone, Flags: openflow.FlowModFlagSendFlowRem,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	h.send(fm)
	h.send(&openflow.BarrierRequest{})
	h.expect(openflow.TypeBarrierReply)

	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 1, 2, "ka")
	// ~6 protocol seconds of steady traffic against a 2s idle timeout,
	// refreshed every ~0.5 protocol seconds.
	for i := 0; i < 12; i++ {
		h.h1.Send(frame)
		time.Sleep(20 * time.Millisecond)
	}
	if n := h.sw.NumFlows(); n != 1 {
		t.Fatalf("flow idled out under steady cached traffic (flows=%d)", n)
	}
	if hits := h.sw.table.cacheHitCount(); hits == 0 {
		t.Fatal("traffic did not exercise the microflow cache")
	}
	// Stop the traffic: now it must idle out, with the cached packets in
	// the flow-removed totals.
	fr := h.expect(openflow.TypeFlowRemoved).(*openflow.FlowRemoved)
	if fr.Reason != openflow.FlowRemovedIdleTimeout {
		t.Fatalf("reason = %d", fr.Reason)
	}
	if fr.PacketCount != 12 {
		t.Fatalf("flow-removed packets = %d, want 12", fr.PacketCount)
	}
}

// TestSnapshotActionsAreDeepCopies pins the satellite fix: a snapshot taken
// before a loose modify must keep showing the pre-modify actions, and
// mutating a snapshot must never write through to the live table.
func TestSnapshotActionsAreDeepCopies(t *testing.T) {
	tb := newFlowTable()
	if err := tb.add(tableEntry(openflow.MatchAll(), 10, 2), false); err != nil {
		t.Fatal(err)
	}
	snap := tb.snapshot(time.Now())
	m := openflow.MatchAll()
	tb.modify(&m, 0, []openflow.Action{&openflow.ActionOutput{Port: 9}}, false)
	if got := outPortOf(t, snap[0].Actions); got != 2 {
		t.Fatalf("snapshot changed under a concurrent modify: port %d", got)
	}
	// Writing into the snapshot's action must not leak into the table.
	snap2 := tb.snapshot(time.Now())
	snap2[0].Actions[0].(*openflow.ActionOutput).Port = 1234
	if got := outPortOf(t, tb.snapshot(time.Now())[0].Actions); got != 9 {
		t.Fatalf("snapshot mutation leaked into the live table: port %d", got)
	}
}

// TestDataplaneHammer is the -race stress: every port forwards its own
// microflow in bursts of one, one goroutine per port as the cables deliver,
// while a mutator storms the table with add/modify/delete and a stats reader
// snapshots — no locks on the hit path means the race detector is the real
// reviewer here.
func TestDataplaneHammer(t *testing.T) {
	const ports = 4
	sw := New(Config{DPID: 0x99, Name: "hammer"})
	n := netemu.NewNetwork(nil)
	t.Cleanup(n.Close)
	frames := make([][]byte, ports)
	for p := 1; p <= ports; p++ {
		a, _ := n.NewCable(netemu.CableOpts{NameA: fmt.Sprintf("hammer:%d", p), MACA: pkt.LocalMAC(uint64(p))})
		if err := sw.AttachPort(uint16(p), a); err != nil {
			t.Fatal(err)
		}
		frames[p-1] = udpFrame(pkt.LocalMAC(uint64(p)), pkt.LocalMAC(0xEE),
			fmt.Sprintf("10.0.%d.1", p), "10.99.0.1", uint16(1000+p), 5004, "hammer")
	}
	base := openflow.MatchAll()
	base.Wildcards &^= openflow.WildcardDlType
	base.DlType = uint16(pkt.EtherTypeIPv4)
	base.SetNwDstPrefix(netip.MustParsePrefix("10.99.0.0/16"))
	if err := sw.table.add(&flowEntry{match: base, priority: 5, created: time.Now(),
		actions: []openflow.Action{&openflow.ActionOutput{Port: 42}}}, false); err != nil {
		t.Fatal(err)
	}

	var workers sync.WaitGroup
	for p := 1; p <= ports; p++ {
		workers.Add(1)
		go func(port int) {
			defer workers.Done()
			burst := [][]byte{frames[port-1]}
			for i := 0; i < 3000; i++ {
				sw.batchIn(uint16(port), burst)
			}
		}(p)
	}
	workers.Add(1)
	go func() { // flow-mod storm
		defer workers.Done()
		for i := 0; i < 500; i++ {
			m := base
			e := &flowEntry{match: m, priority: uint16(10 + i%3), created: time.Now(),
				actions: []openflow.Action{&openflow.ActionOutput{Port: uint16(i%4 + 1)}}}
			_ = sw.table.add(e, false)
			sw.table.modify(&m, e.priority, []openflow.Action{&openflow.ActionOutput{Port: 2}}, true)
			if i%3 == 2 {
				sw.table.deleteFlows(&m, e.priority, openflow.PortNone, true)
			}
		}
	}()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // stats reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = sw.FlowTable()
				_, _, _ = sw.table.stats()
			}
		}
	}()
	workers.Wait()
	close(stop)
	reader.Wait()

	lookups, matched, _ := sw.table.stats()
	if lookups < ports*3000 || matched == 0 {
		t.Fatalf("lookups=%d matched=%d", lookups, matched)
	}
}

// TestMultipathResolvedAtCacheFill proves ECMP select groups are resolved to
// concrete OF 1.0 actions at classify time: the published cache line carries
// no multipath action, a microflow's bucket choice is stable across lookups,
// and distinct microflows spread over the equal-cost buckets.
func TestMultipathResolvedAtCacheFill(t *testing.T) {
	tb := newFlowTable()
	mp := &openflow.ActionMultipath{Buckets: []openflow.MultipathBucket{
		{DlSrc: pkt.LocalMAC(0x10), DlDst: pkt.LocalMAC(0x20), Port: 2},
		{DlSrc: pkt.LocalMAC(0x11), DlDst: pkt.LocalMAC(0x21), Port: 3},
	}}
	if err := tb.add(&flowEntry{match: openflow.MatchAll(), priority: 10,
		actions: []openflow.Action{mp}, created: time.Now()}, false); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()

	key := exactKeyFor(t, 1)
	want := mp.Bucket(key.KeyHash())
	a1, ok := tb.lookupFlushed(&key, 1, 100, now)
	if !ok {
		t.Fatal("lookup miss")
	}
	if got := outPortOf(t, a1); got != want.Port {
		t.Fatalf("fill chose port %d, want bucket port %d", got, want.Port)
	}
	ce := tb.cachedEntry(&key)
	if ce == nil {
		t.Fatal("lookup did not fill the cache")
	}
	var src, dst *pkt.MAC
	for _, a := range ce.plan.actions {
		switch act := a.(type) {
		case *openflow.ActionMultipath:
			t.Fatal("cache line still carries an unresolved multipath action")
		case *openflow.ActionSetDlSrc:
			src = &act.Addr
		case *openflow.ActionSetDlDst:
			dst = &act.Addr
		}
	}
	if src == nil || dst == nil || *src != want.DlSrc || *dst != want.DlDst {
		t.Fatalf("resolved rewrites %v/%v, want %v/%v", src, dst, want.DlSrc, want.DlDst)
	}
	a2, ok := tb.lookupFlushed(&key, 1, 50, now)
	if !ok || tb.cacheHitCount() != 1 {
		t.Fatalf("second lookup ok=%v cacheHits=%d, want hit", ok, tb.cacheHitCount())
	}
	if got := outPortOf(t, a2); got != want.Port {
		t.Fatalf("cached hit chose port %d, want %d — flow reordered", got, want.Port)
	}

	// Distinct microflows must cover both buckets, each stably per its own
	// key hash.
	seen := map[uint16]bool{}
	for sport := uint16(1000); sport < 1032; sport++ {
		frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2),
			"10.0.0.1", "10.9.0.9", sport, 2000, "k")
		k, err := openflow.ExtractKey(1, frame)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := tb.lookupFlushed(&k, 1, 10, now)
		if !ok {
			t.Fatal("lookup miss")
		}
		p := outPortOf(t, a)
		if wantBk := mp.Bucket(k.KeyHash()); p != wantBk.Port {
			t.Fatalf("sport %d: port %d, want bucket port %d", sport, p, wantBk.Port)
		}
		seen[p] = true
	}
	if !seen[2] || !seen[3] {
		t.Fatalf("32 microflows used only ports %v; want both equal-cost buckets", seen)
	}
}

// TestDeleteFlowsMatchesMultipathOutPort pins the OFPFF delete out_port
// filter against select groups: a delete filtered to a port reachable only
// through a multipath bucket must still remove the flow.
func TestDeleteFlowsMatchesMultipathOutPort(t *testing.T) {
	tb := newFlowTable()
	mp := &openflow.ActionMultipath{Buckets: []openflow.MultipathBucket{
		{DlSrc: pkt.LocalMAC(1), DlDst: pkt.LocalMAC(2), Port: 7},
		{DlSrc: pkt.LocalMAC(1), DlDst: pkt.LocalMAC(3), Port: 8},
	}}
	if err := tb.add(&flowEntry{match: openflow.MatchAll(), priority: 10,
		actions: []openflow.Action{mp}, created: time.Now()}, false); err != nil {
		t.Fatal(err)
	}
	m := openflow.MatchAll()
	if removed := tb.deleteFlows(&m, 0, 9, false); len(removed) != 0 {
		t.Fatalf("delete filtered to port 9 removed %d flows", len(removed))
	}
	if removed := tb.deleteFlows(&m, 0, 8, false); len(removed) != 1 {
		t.Fatalf("delete filtered to bucket port 8 removed %d flows, want 1", len(removed))
	}
}
