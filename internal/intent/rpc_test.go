package intent

// The reconciler over the real rpcconf client and server: the client makes
// one attempt per send, so every retry, re-sync and recovery from loss
// below is the reconciler's.

import (
	"net"
	"sync"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/ctlkit"
	"routeflow/internal/rpcconf"
)

// rpcServer is one rf-server incarnation on its own listener. It counts
// switch-up applies per datapath, and a switch-down forgets the datapath.
type rpcServer struct {
	l *ctlkit.MemListener
	s *rpcconf.Server

	mu  sync.Mutex
	ups map[uint64]int
}

func newRPCServer() *rpcServer {
	v := &rpcServer{l: ctlkit.NewMemListener("rpc"), ups: make(map[uint64]int)}
	v.s = rpcconf.NewServer(func(m *rpcconf.Message) error {
		v.mu.Lock()
		defer v.mu.Unlock()
		switch m.Kind {
		case rpcconf.KindSwitchUp:
			v.ups[m.DPID]++
		case rpcconf.KindSwitchDown:
			delete(v.ups, m.DPID)
		}
		return nil
	})
	go v.s.Serve(v.l)
	return v
}

func (v *rpcServer) applies(dpid uint64) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ups[dpid]
}

func (v *rpcServer) has(dpid uint64) bool { return v.applies(dpid) > 0 }

func (v *rpcServer) close() {
	v.l.Close()
	v.s.Stop()
}

// rpcTarget dials whichever incarnation is current, as a deployment's
// dialer does across an rf-server restart.
type rpcTarget struct {
	mu  sync.Mutex
	cur *rpcServer
}

func (tg *rpcTarget) dial() (net.Conn, error) {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	return tg.cur.l.Dial()
}

// restart replaces the current incarnation with a fresh one (new epoch,
// empty state) and stops the old one, which closes the client's connection
// under it.
func (tg *rpcTarget) restart() *rpcServer {
	next := newRPCServer()
	tg.mu.Lock()
	old := tg.cur
	tg.cur = next
	tg.mu.Unlock()
	old.close()
	return next
}

// TestReconcilerOverRealRPC drives the reconciler through the real rpcconf
// client/server pair, restarts the server (fresh epoch, empty state) and
// checks the probe-driven re-sync repopulates it.
func TestReconcilerOverRealRPC(t *testing.T) {
	target := &rpcTarget{cur: newRPCServer()}
	client := rpcconf.NewClient(target.dial, nil)
	defer client.Close()

	store := NewStore()
	rec := NewReconciler(clock.System(), store, client,
		WithResyncProbe(20*time.Millisecond))
	rec.Run()
	defer rec.Stop()

	store.Declare(SwitchKey(0xAA), rpcconf.SwitchUp(0xAA, 4), rpcconf.SwitchDown(0xAA))
	eventually(t, store.Converged, "never converged over real RPC")

	next := target.restart()
	defer next.close()
	eventually(t, func() bool { return next.has(0xAA) },
		"restarted server never re-synced from desired state")
	eventually(t, store.Converged, "store never reconverged after restart")
}

// TestIdleReconcilerResyncsAfterRestartWithinProbePlusBackoff restarts the
// server under an idle reconciler on a fake clock. The first probe after the
// restart fails on the connection the old incarnation closed; the next one
// must follow one backoff step later, not a probe period later, so the new
// incarnation holds the desired state within DefaultResyncProbe +
// DefaultBackoffBase of fake time.
func TestIdleReconcilerResyncsAfterRestartWithinProbePlusBackoff(t *testing.T) {
	clk := clock.NewFake()
	target := &rpcTarget{cur: newRPCServer()}
	client := rpcconf.NewClient(target.dial, clk)
	defer client.Close()

	store := NewStore()
	rec := NewReconciler(clk, store, client)
	rec.Run()
	defer rec.Stop()

	store.Declare(SwitchKey(0xAA), rpcconf.SwitchUp(0xAA, 4), rpcconf.SwitchDown(0xAA))
	eventually(t, store.Converged, "never converged over real RPC")

	next := target.restart()
	defer next.close()
	// Step the clock only while the reconciler waits on its timer (the only
	// one on this clock), so the fake time counted is the time it waited.
	const step = 10 * time.Millisecond
	var advanced time.Duration
	deadline := time.Now().Add(10 * time.Second)
	for !next.has(0xAA) {
		if time.Now().After(deadline) {
			t.Fatalf("no re-sync after %v of fake time: %+v", advanced, store.Statistics())
		}
		if clk.Pending() == 0 {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		clk.Advance(step)
		advanced += step
	}
	if limit := DefaultResyncProbe + DefaultBackoffBase; advanced > limit {
		t.Fatalf("re-synced after %v of fake time, want <= %v (one probe period plus one backoff step)",
			advanced, limit)
	}
}

// TestReconcilerConvergesThroughLossInjector sends 20 switches through a
// LossInjector that drops 40% of the client's frames, cutting the connection
// each time. Every switch is applied at least once and the store converges:
// a send that loses its frame fails, and the reconciler retries it on its
// backoff schedule as a fresh send.
func TestReconcilerConvergesThroughLossInjector(t *testing.T) {
	clk := clock.NewFake()
	srv := newRPCServer()
	defer srv.close()
	li := rpcconf.NewLossInjector(0.4, 42)
	client := rpcconf.NewClient(li.Dialer(func() (net.Conn, error) { return srv.l.Dial() }), clk)
	defer client.Close()

	store := NewStore()
	rec := NewReconciler(clk, store, client, WithResyncProbe(0))
	rec.Run()
	defer rec.Stop()

	const n = 20
	for dpid := uint64(1); dpid <= n; dpid++ {
		store.Declare(SwitchKey(dpid), rpcconf.SwitchUp(dpid, 1), rpcconf.SwitchDown(dpid))
	}
	advanceUntil(t, clk, DefaultBackoffBase, store.Converged, "store never converged through 40% loss")
	for dpid := uint64(1); dpid <= n; dpid++ {
		if srv.applies(dpid) < 1 {
			t.Fatalf("switch %d acknowledged but never applied", dpid)
		}
	}
	if st := store.Statistics(); st.Failures == 0 || st.Acked != n {
		t.Fatalf("stats = %+v, want %d acked after some failures", st, n)
	}
}
