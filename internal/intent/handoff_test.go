package intent

// Ownership-handoff coverage: when a shard re-homes from one controller
// replica to another, the old owner's store must Retain-drop the shard's
// items (no teardowns — the new master re-declares them) and from then on
// exactly one reconciler writes the switch's desired state, even across a
// server epoch bump that forces a full re-sync.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/rpcconf"
)

func TestRetainDropsWithoutTeardown(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	rec := NewReconciler(clk, store, snd, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()

	store.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 4), rpcconf.SwitchDown(1))
	store.Declare(SwitchKey(2), rpcconf.SwitchUp(2, 4), rpcconf.SwitchDown(2))
	eventually(t, func() bool { return snd.has(1) && snd.has(2) }, "switches never converged")

	if n := store.Retain(func(k Key) bool { return k.DPID != 2 }); n != 1 {
		t.Fatalf("Retain dropped %d entries, want 1", n)
	}
	if !store.Converged() {
		t.Fatal("store not converged after Retain")
	}
	if got := snd.sendCount(rpcconf.KindSwitchDown); got != 0 {
		t.Fatalf("Retain issued %d teardowns, want 0", got)
	}
	// The dropped switch still exists on the server — the new owner's
	// reconciler is responsible for it now.
	if !snd.has(2) {
		t.Fatal("retained-away switch was torn down")
	}
}

func TestRetainDropsWedgedDeletingEntry(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	rec := NewReconciler(clk, store, snd, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()

	store.Declare(SwitchKey(7), rpcconf.SwitchUp(7, 2), rpcconf.SwitchDown(7))
	eventually(t, func() bool { return snd.has(7) }, "switch never converged")

	// The owner loses its switch connectivity, then the item is removed:
	// the teardown can never be delivered.
	snd.mu.Lock()
	snd.failAll = true
	snd.mu.Unlock()
	store.Remove(SwitchKey(7))
	if store.Converged() {
		t.Fatal("store converged with a teardown pending")
	}

	// Ownership transfer: the wedged deleting entry must be droppable too,
	// or the partitioned replica's store wedges Converged forever.
	if n := store.Retain(func(Key) bool { return false }); n != 1 {
		t.Fatalf("Retain dropped %d entries, want 1", n)
	}
	if !store.Converged() {
		t.Fatal("store still not converged after dropping the wedged teardown")
	}
}

// TestHandoffEpochResyncScopedToNewOwner is the fake-clock unit suite for
// the handoff contract: after a shard moves from replica A to replica B, a
// server epoch bump must trigger a re-sync from B's reconciler only — A has
// forgotten the item and stays silent.
func TestHandoffEpochResyncScopedToNewOwner(t *testing.T) {
	clk := clock.NewFake()
	storeA, storeB := NewStore(), NewStore()
	sndA, sndB := newFakeSender(), newFakeSender()
	recA := NewReconciler(clk, storeA, sndA, WithResyncProbe(time.Second))
	recB := NewReconciler(clk, storeB, sndB, WithResyncProbe(time.Second))
	recA.Run()
	recB.Run()
	defer recA.Stop()
	defer recB.Stop()

	up, down := rpcconf.SwitchUp(3, 4), rpcconf.SwitchDown(3)
	storeA.Declare(SwitchKey(3), up, down)
	eventually(t, func() bool { return sndA.has(3) }, "A never configured the switch")
	upsA := sndA.sendCount(rpcconf.KindSwitchUp)

	// Handoff A -> B.
	storeA.Retain(func(Key) bool { return false })
	storeB.Declare(SwitchKey(3), up, down)
	eventually(t, func() bool { return sndB.has(3) }, "B never configured the switch")

	// B's server restarts (epoch bump, acked state lost).
	sndB.clearState()
	sndB.setEpoch(2)
	advanceUntil(t, clk, 100*time.Millisecond,
		func() bool { return sndB.has(3) }, "B never re-synced after the epoch bump")
	if got := storeB.Statistics().Resyncs; got != 1 {
		t.Fatalf("B recorded %d resyncs, want 1", got)
	}

	// A must have stayed silent through all of it: no new sends, converged.
	if got := sndA.sendCount(rpcconf.KindSwitchUp); got != upsA {
		t.Fatalf("old owner kept writing after handoff: %d -> %d switch-ups", upsA, got)
	}
	if got := sndA.sendCount(rpcconf.KindSwitchDown); got != 0 {
		t.Fatalf("old owner issued %d teardowns", got)
	}
	if !storeA.Converged() {
		t.Fatal("old owner's store not converged after handoff")
	}
}

// sharedLog records which replica wrote the switch last — the arbiter for
// the exactly-one-writer assertion.
type sharedLog struct {
	mu     sync.Mutex
	writes int
	last   int
}

func (l *sharedLog) record(replica int) {
	l.mu.Lock()
	l.writes++
	l.last = replica
	l.mu.Unlock()
}

func (l *sharedLog) snapshot() (int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writes, l.last
}

// loggingSender tags every successful switch-up apply with its replica ID.
type loggingSender struct {
	*fakeSender
	replica int
	log     *sharedLog
}

func (s *loggingSender) Send(m *rpcconf.Message) error {
	if err := s.fakeSender.Send(m); err != nil {
		return err
	}
	if m.Kind == rpcconf.KindSwitchUp {
		s.log.record(s.replica)
	}
	return nil
}

// TestHandoffRaceHammer bounces one switch's desired state between two
// store/reconciler pairs hundreds of times on the system clock (run under
// -race), with concurrent epoch bumps, and requires the system to quiesce to
// exactly one writer: the final owner's store converged and writing, the
// loser's store empty and silent.
func TestHandoffRaceHammer(t *testing.T) {
	clk := clock.System()
	log := &sharedLog{}
	stores := [2]*Store{NewStore(), NewStore()}
	senders := [2]*loggingSender{
		{fakeSender: newFakeSender(), replica: 0, log: log},
		{fakeSender: newFakeSender(), replica: 1, log: log},
	}
	var recs [2]*Reconciler
	for i := range stores {
		recs[i] = NewReconciler(clk, stores[i], senders[i],
			WithResyncProbe(2*time.Millisecond))
		recs[i].Run()
		defer recs[i].Stop()
	}

	up, down := rpcconf.SwitchUp(9, 4), rpcconf.SwitchDown(9)
	rng := rand.New(rand.NewSource(1))
	owner := 0
	stores[owner].Declare(SwitchKey(9), up, down)
	const handoffs = 300
	for i := 0; i < handoffs; i++ {
		next := 1 - owner
		// Transfer: old owner forgets, new owner declares. Deliberately no
		// synchronization with the reconciler goroutines.
		stores[owner].Retain(func(Key) bool { return false })
		stores[next].Declare(SwitchKey(9), up, down)
		owner = next
		if rng.Intn(10) == 0 {
			// Server epoch bump mid-handoff: both reconcilers observe it on
			// their next contact; only the current owner may re-sync.
			senders[owner].setEpoch(uint64(2 + i))
		}
		if rng.Intn(5) == 0 {
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}

	loser := 1 - owner
	eventually(t, func() bool {
		return stores[owner].Converged() && senders[owner].has(9) && stores[loser].Converged()
	}, "system never quiesced after the handoff storm")

	// Quiesced: no further writes from anyone, and the last writer is the
	// final owner.
	writes1, _ := log.snapshot()
	time.Sleep(50 * time.Millisecond)
	writes2, last := log.snapshot()
	if writes2 != writes1 {
		t.Fatalf("writes kept flowing after quiesce: %d -> %d", writes1, writes2)
	}
	if last != owner {
		t.Fatalf("last writer was replica %d, want final owner %d", last, owner)
	}
	if st := stores[loser].Statistics(); st.Desired != 0 || st.Deleting != 0 {
		t.Fatalf("loser still tracks state: %+v", st)
	}
}
