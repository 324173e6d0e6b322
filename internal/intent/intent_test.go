package intent

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/rpcconf"
)

// fakeSender is a scriptable rf-server stand-in: it applies successful
// messages into a state map and fails on demand, exposing a mutable epoch.
type fakeSender struct {
	mu      sync.Mutex
	fail    int // fail this many sends, then succeed
	failAll bool
	epoch   uint64
	applied map[rpcconf.Kind][]rpcconf.Message
	state   map[uint64]bool // dpid present (switch-up/down)
	order   []rpcconf.Kind
}

func newFakeSender() *fakeSender {
	return &fakeSender{
		epoch:   1,
		applied: make(map[rpcconf.Kind][]rpcconf.Message),
		state:   make(map[uint64]bool),
	}
}

func (f *fakeSender) Send(m *rpcconf.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAll || f.fail > 0 {
		if f.fail > 0 {
			f.fail--
		}
		return errors.New("fake: injected delivery failure")
	}
	f.applied[m.Kind] = append(f.applied[m.Kind], *m)
	f.order = append(f.order, m.Kind)
	switch m.Kind {
	case rpcconf.KindSwitchUp:
		f.state[m.DPID] = true
	case rpcconf.KindSwitchDown:
		delete(f.state, m.DPID)
	}
	return nil
}

func (f *fakeSender) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *fakeSender) setEpoch(e uint64) {
	f.mu.Lock()
	f.epoch = e
	f.mu.Unlock()
}

func (f *fakeSender) clearState() {
	f.mu.Lock()
	f.state = make(map[uint64]bool)
	f.mu.Unlock()
}

func (f *fakeSender) has(dpid uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state[dpid]
}

func (f *fakeSender) sendCount(k rpcconf.Kind) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.applied[k])
}

func eventually(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// advanceUntil steps the fake clock by step until cond holds, tracking the
// total fake time advanced.
func advanceUntil(t *testing.T, clk *clock.Fake, step time.Duration, cond func() bool, msg string) time.Duration {
	t.Helper()
	var advanced time.Duration
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return advanced
		}
		clk.Advance(step)
		advanced += step
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
	return advanced
}

func TestDeclareConvergesAndIsIdempotent(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	rec := NewReconciler(clk, store, snd, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()

	store.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 4), rpcconf.SwitchDown(1))
	eventually(t, store.Converged, "declared switch never converged")
	if !snd.has(1) {
		t.Fatal("switch not applied")
	}
	// Level-triggered no-op: re-declaring the identical item sends nothing.
	store.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 4), rpcconf.SwitchDown(1))
	time.Sleep(20 * time.Millisecond)
	if got := snd.sendCount(rpcconf.KindSwitchUp); got != 1 {
		t.Fatalf("sends after idempotent redeclare = %d, want 1", got)
	}
	// A *changed* declaration re-applies.
	store.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 5), rpcconf.SwitchDown(1))
	eventually(t, func() bool { return snd.sendCount(rpcconf.KindSwitchUp) == 2 },
		"changed declaration never re-applied")
	st := store.Statistics()
	if st.Desired != 1 || st.Acked != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryGatedOnClockWithBackoff(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	snd.fail = 1
	rec := NewReconciler(clk, store, snd, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()

	store.Declare(SwitchKey(2), rpcconf.SwitchUp(2, 1), rpcconf.SwitchDown(2))
	eventually(t, func() bool { return store.Statistics().Failures == 1 },
		"first attempt never failed")
	// Retry must wait for *clock* time, not wall time.
	time.Sleep(50 * time.Millisecond)
	if store.Statistics().Sends != 1 {
		t.Fatalf("retried with a frozen clock: sends = %d", store.Statistics().Sends)
	}
	advanceUntil(t, clk, 25*time.Millisecond, store.Converged, "retry never converged")
	if st := store.Statistics(); st.Sends != 2 {
		t.Fatalf("sends = %d, want exactly 2 (one failure, one retry)", st.Sends)
	}
}

func TestBackoffGrowsExponentially(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	snd.failAll = true
	base := DefaultBackoffBase
	rec := NewReconciler(clk, store, snd, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()

	store.Declare(SwitchKey(3), rpcconf.SwitchUp(3, 1), rpcconf.SwitchDown(3))
	eventually(t, func() bool { return store.Statistics().Sends == 1 }, "first send missing")
	// Attempts 2..4 come after backoffs of base, 2*base and 4*base: the
	// fake time needed to reach 4 sends is at least base+2*base+4*base,
	// well under the DefaultBackoffMax cap.
	advanced := advanceUntil(t, clk, base/4,
		func() bool { return store.Statistics().Sends >= 4 }, "retries stalled")
	if min := 7 * base; advanced < min {
		t.Fatalf("4 attempts after only %v of fake time, want >= %v (exponential backoff)", advanced, min)
	}
	// Recovery: stop failing, advance, converge.
	snd.mu.Lock()
	snd.failAll = false
	snd.mu.Unlock()
	advanceUntil(t, clk, base, store.Converged, "never converged after recovery")
}

func TestApplyOrderSwitchesBeforeLinksAndHosts(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	// Declare in the worst order before the reconciler starts.
	gw := netip.MustParsePrefix("10.1.0.1/24")
	a := netip.MustParsePrefix("172.16.0.1/30")
	b := netip.MustParsePrefix("172.16.0.2/30")
	store.Declare(HostKey(1, 3), rpcconf.HostUp(1, 3, gw), rpcconf.HostDown(1, 3))
	store.Declare(LinkKey(1, 1, 2, 1), rpcconf.LinkUp(1, 1, 2, 1, a, b), rpcconf.LinkDown(1, 1, 2, 1))
	store.Declare(SwitchKey(2), rpcconf.SwitchUp(2, 2), rpcconf.SwitchDown(2))
	store.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 2), rpcconf.SwitchDown(1))

	rec := NewReconciler(clk, store, snd, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()
	eventually(t, store.Converged, "never converged")

	snd.mu.Lock()
	order := append([]rpcconf.Kind(nil), snd.order...)
	snd.mu.Unlock()
	want := []rpcconf.Kind{rpcconf.KindSwitchUp, rpcconf.KindSwitchUp,
		rpcconf.KindLinkUp, rpcconf.KindHostUp}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSwitchUpReappliesItsLinksAndHosts: the link and host items of a switch
// whose VM was re-created are sent again, although they stayed acknowledged
// throughout. The VM is re-created by a teardown that went out between a
// Remove and a re-Declare (a switch session flap), or when a Retain dropped
// the switch and a re-home declared it again.
func TestSwitchUpReappliesItsLinksAndHosts(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	rec := NewReconciler(clk, store, snd, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()
	gw := netip.MustParsePrefix("10.1.0.1/24")
	a := netip.MustParsePrefix("172.16.0.1/30")
	b := netip.MustParsePrefix("172.16.0.2/30")
	declareSwitch := func(dpid uint64) {
		store.Declare(SwitchKey(dpid), rpcconf.SwitchUp(dpid, 3), rpcconf.SwitchDown(dpid))
	}
	declareSwitch(1)
	declareSwitch(2)
	store.Declare(LinkKey(1, 1, 2, 1), rpcconf.LinkUp(1, 1, 2, 1, a, b), rpcconf.LinkDown(1, 1, 2, 1))
	store.Declare(HostKey(1, 3), rpcconf.HostUp(1, 3, gw), rpcconf.HostDown(1, 3))
	sent := func(links, hosts int) func() bool {
		return func() bool {
			return store.Converged() && snd.sendCount(rpcconf.KindLinkUp) == links &&
				snd.sendCount(rpcconf.KindHostUp) == hosts
		}
	}
	eventually(t, sent(1, 1), "initial declarations never converged")

	store.Remove(SwitchKey(1))
	eventually(t, func() bool { return store.Converged() && !snd.has(1) }, "switch 1 never torn down")
	declareSwitch(1)
	eventually(t, sent(2, 2), "link and host of the re-created switch 1 not re-sent")

	store.Retain(func(k Key) bool { return k != SwitchKey(2) })
	declareSwitch(2)
	eventually(t, sent(3, 2), "link of the re-declared switch 2 not re-sent")
}

// ackAll plays a server that acknowledges everything: it claims the due
// items and completes each, in apply order, until nothing is due.
func ackAll(s *Store) {
	for {
		batch, _ := s.due(time.Time{})
		if len(batch) == 0 {
			return
		}
		for _, w := range batch {
			s.complete(w, nil, 1, time.Time{})
		}
	}
}

// TestChangedDeclareCountsRedeclared: Stats.Redeclared counts acknowledged
// items a changed Declare reopened, and nothing else.
func TestChangedDeclareCountsRedeclared(t *testing.T) {
	s := NewStore()
	s.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 4), rpcconf.SwitchDown(1))
	ackAll(s)
	s.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 4), rpcconf.SwitchDown(1)) // unchanged
	if st := s.Statistics(); st.Redeclared != 0 || st.Acked != 1 {
		t.Fatalf("unchanged Declare: %+v", st)
	}
	s.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 5), rpcconf.SwitchDown(1))
	s.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 6), rpcconf.SwitchDown(1)) // not acked: not reopened
	if st := s.Statistics(); st.Redeclared != 1 || st.Acked != 0 || st.Reapplied != 0 {
		t.Fatalf("changed Declare: %+v, want Redeclared 1", st)
	}
	ackAll(s)
	if st := s.Statistics(); st.Redeclared != 1 || st.Acked != 1 {
		t.Fatalf("after the re-send: %+v", st)
	}
}

// TestSwitchUpCountsReapplied: Stats.Reapplied counts the acknowledged link
// and host items of a switch an acknowledged switch-up reopened.
func TestSwitchUpCountsReapplied(t *testing.T) {
	s := NewStore()
	gw := netip.MustParsePrefix("10.1.0.1/24")
	a := netip.MustParsePrefix("172.16.0.1/30")
	b := netip.MustParsePrefix("172.16.0.2/30")
	for dpid := uint64(1); dpid <= 2; dpid++ {
		s.Declare(SwitchKey(dpid), rpcconf.SwitchUp(dpid, 3), rpcconf.SwitchDown(dpid))
		s.Declare(HostKey(dpid, 3), rpcconf.HostUp(dpid, 3, gw), rpcconf.HostDown(dpid, 3))
	}
	s.Declare(LinkKey(1, 1, 2, 1), rpcconf.LinkUp(1, 1, 2, 1, a, b), rpcconf.LinkDown(1, 1, 2, 1))
	ackAll(s)
	if st := s.Statistics(); st.Reapplied != 0 || st.Acked != 5 {
		t.Fatalf("cold start: %+v", st)
	}
	s.Remove(SwitchKey(1))
	ackAll(s)
	s.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 3), rpcconf.SwitchDown(1))
	ackAll(s)
	// Switch 1's host and the link reopened; switch 2's host did not.
	if st := s.Statistics(); st.Reapplied != 2 || st.Redeclared != 0 || st.Acked != 5 {
		t.Fatalf("switch 1 re-created: %+v, want Reapplied 2", st)
	}
}

func TestFlapStormConvergesToFinalState(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	rec := NewReconciler(clk, store, snd, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()

	// A switch flapping 50 times while the reconciler races the storm.
	for i := 0; i < 50; i++ {
		store.Declare(SwitchKey(7), rpcconf.SwitchUp(7, 2), rpcconf.SwitchDown(7))
		store.Remove(SwitchKey(7))
	}
	store.Declare(SwitchKey(7), rpcconf.SwitchUp(7, 2), rpcconf.SwitchDown(7))
	eventually(t, func() bool { return store.Converged() && snd.has(7) },
		"flap storm never settled on declared state")

	// And the mirror storm ending in removal.
	for i := 0; i < 50; i++ {
		store.Remove(SwitchKey(7))
		store.Declare(SwitchKey(7), rpcconf.SwitchUp(7, 2), rpcconf.SwitchDown(7))
	}
	store.Remove(SwitchKey(7))
	eventually(t, func() bool { return store.Converged() && !snd.has(7) },
		"flap storm never settled on removal")
	if st := store.Statistics(); st.Desired != 0 || st.Deleting != 0 {
		t.Fatalf("stats after removal = %+v", st)
	}
}

func TestRemoveBeforeAnySendDropsSilently(t *testing.T) {
	store := NewStore()
	store.Declare(SwitchKey(9), rpcconf.SwitchUp(9, 1), rpcconf.SwitchDown(9))
	store.Remove(SwitchKey(9))
	if !store.Converged() {
		t.Fatal("unsent item left a tombstone")
	}
	if st := store.Statistics(); st.Desired != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerRestartTriggersResync(t *testing.T) {
	clk := clock.NewFake()
	store := NewStore()
	snd := newFakeSender()
	probe := 10 * time.Second
	rec := NewReconciler(clk, store, snd, WithResyncProbe(probe))
	rec.Run()
	defer rec.Stop()

	store.Declare(SwitchKey(1), rpcconf.SwitchUp(1, 2), rpcconf.SwitchDown(1))
	store.Declare(SwitchKey(2), rpcconf.SwitchUp(2, 2), rpcconf.SwitchDown(2))
	eventually(t, store.Converged, "initial declarations never converged")

	// The server "restarts": state gone, epoch changed. Nothing else will
	// ever poke the store — only the idle probe can notice.
	snd.clearState()
	snd.setEpoch(2)
	advanceUntil(t, clk, time.Second,
		func() bool { return store.Converged() && snd.has(1) && snd.has(2) },
		"desired state never re-synced after server restart")
	if st := store.Statistics(); st.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", st.Resyncs)
	}
}
