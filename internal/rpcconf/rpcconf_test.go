package rpcconf

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/ctlkit"
)

func pipeRig(t *testing.T, h Handler) (*Client, *Server) {
	t.Helper()
	l := ctlkit.NewMemListener("rpc")
	t.Cleanup(func() { l.Close() })
	srv := NewServer(h)
	go srv.Serve(l)
	t.Cleanup(srv.Stop)
	c := NewClient(func() (net.Conn, error) { return l.Dial() }, nil)
	t.Cleanup(c.Close)
	return c, srv
}

func TestSwitchUpDelivery(t *testing.T) {
	var mu sync.Mutex
	var got []*Message
	c, srv := pipeRig(t, func(m *Message) error {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
		return nil
	})
	if err := c.Send(SwitchUp(0xA, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(SwitchDown(0xA)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("messages = %d", len(got))
	}
	if got[0].Kind != KindSwitchUp || got[0].DPID != 0xA || got[0].Ports != 4 {
		t.Fatalf("msg0 = %+v", got[0])
	}
	if got[1].Kind != KindSwitchDown {
		t.Fatalf("msg1 = %+v", got[1])
	}
	if srv.Applied() != 2 {
		t.Fatalf("applied = %d", srv.Applied())
	}
}

func TestLinkUpCarriesAddresses(t *testing.T) {
	var got *Message
	c, _ := pipeRig(t, func(m *Message) error { got = m; return nil })
	a := netip.MustParsePrefix("172.16.0.1/30")
	b := netip.MustParsePrefix("172.16.0.2/30")
	if err := c.Send(LinkUp(1, 2, 3, 4, a, b)); err != nil {
		t.Fatal(err)
	}
	pa, err := got.AAddrPrefix()
	if err != nil || pa != a {
		t.Fatalf("aAddr = %v, %v", pa, err)
	}
	pb, err := got.BAddrPrefix()
	if err != nil || pb != b {
		t.Fatalf("bAddr = %v, %v", pb, err)
	}
	if got.ADPID != 1 || got.APort != 2 || got.BDPID != 3 || got.BPort != 4 {
		t.Fatalf("endpoints = %+v", got)
	}
}

func TestLinkDown(t *testing.T) {
	var got *Message
	c, _ := pipeRig(t, func(m *Message) error { got = m; return nil })
	if err := c.Send(LinkDown(9, 1, 8, 2)); err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindLinkDown || got.ADPID != 9 || got.BDPID != 8 {
		t.Fatalf("msg = %+v", got)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	c, srv := pipeRig(t, func(m *Message) error {
		return errors.New("vm creation failed")
	})
	err := c.Send(SwitchUp(1, 1))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v", err)
	}
	if srv.Applied() != 0 {
		t.Fatal("failed message counted as applied")
	}
}

func TestClientRedialsAfterServerConnLoss(t *testing.T) {
	l := ctlkit.NewMemListener("rpc")
	defer l.Close()
	var applied int
	srv := NewServer(func(m *Message) error { applied++; return nil })
	go srv.Serve(l)
	defer srv.Stop()

	var dialCount int
	c := NewClient(func() (net.Conn, error) {
		dialCount++
		return l.Dial()
	}, nil)
	defer c.Close()

	if err := c.Send(SwitchUp(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Kill the client's connection under it; the next send must redial.
	c.Close()
	if err := c.Send(SwitchUp(2, 1)); err != nil {
		t.Fatal(err)
	}
	if dialCount < 2 {
		t.Fatalf("dials = %d, want >= 2", dialCount)
	}
	if applied != 2 {
		t.Fatalf("applied = %d", applied)
	}
}

// TestSendToUnreachableServerDialsOnce pins the one-attempt contract: a Send
// that cannot dial returns the dial error after exactly one dial, without
// arming or sleeping on the clock. Retrying belongs to the reconciler.
func TestSendToUnreachableServerDialsOnce(t *testing.T) {
	clk := clock.NewFake()
	dials := 0
	refused := errors.New("connection refused")
	c := NewClient(func() (net.Conn, error) {
		dials++
		return nil, refused
	}, clk)
	done := make(chan error, 1)
	go func() { done <- c.Send(SwitchUp(1, 1)) }()
	select {
	case err := <-done:
		if !errors.Is(err, refused) {
			t.Fatalf("err = %v, want the dial error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Send still blocked after %d dials: it is waiting on the clock", dials)
	}
	if dials != 1 {
		t.Fatalf("dials = %d, want exactly 1", dials)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("Send armed %d timers on the clock, want 0", n)
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	var seqs []uint64
	c, _ := pipeRig(t, func(m *Message) error {
		seqs = append(seqs, m.Seq)
		return nil
	})
	for i := 0; i < 5; i++ {
		if err := c.Send(SwitchUp(uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("seqs = %v", seqs)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	var mu sync.Mutex
	seen := map[uint64]bool{}
	c, _ := pipeRig(t, func(m *Message) error {
		mu.Lock()
		seen[m.Seq] = true
		mu.Unlock()
		return nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Send(SwitchUp(uint64(i), 2)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if len(seen) != 16 {
		t.Fatalf("distinct seqs = %d", len(seen))
	}
}

func TestEpochSurvivesInAcksAndChangesOnRestart(t *testing.T) {
	l1 := ctlkit.NewMemListener("rpc1")
	defer l1.Close()
	srv1 := NewServer(func(m *Message) error { return nil })
	go srv1.Serve(l1)

	l2 := ctlkit.NewMemListener("rpc2")
	defer l2.Close()
	srv2 := NewServer(func(m *Message) error { return nil })
	go srv2.Serve(l2)
	defer srv2.Stop()

	var mu sync.Mutex
	target := l1
	c := NewClient(func() (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		return target.Dial()
	}, nil)
	defer c.Close()

	if c.Epoch() != 0 {
		t.Fatal("epoch before first ack")
	}
	if err := c.Send(Probe()); err != nil {
		t.Fatal(err)
	}
	e1 := c.Epoch()
	if e1 != srv1.Epoch() || e1 == 0 {
		t.Fatalf("epoch = %d, want server's %d", e1, srv1.Epoch())
	}
	// "Restart": the first incarnation dies, a fresh one takes over.
	mu.Lock()
	target = l2
	mu.Unlock()
	srv1.Stop()
	// The first send after the restart finds the connection srv1 closed and
	// fails without retrying; the next one dials the new incarnation.
	if err := c.Send(Probe()); err == nil {
		t.Fatal("send on the dead incarnation's connection succeeded")
	}
	if c.Epoch() != e1 {
		t.Fatalf("a failed send changed the epoch to %d", c.Epoch())
	}
	if err := c.Send(Probe()); err != nil {
		t.Fatal(err)
	}
	if e2 := c.Epoch(); e2 == e1 || e2 != srv2.Epoch() {
		t.Fatalf("epoch after restart = %d, want %d (was %d)", e2, srv2.Epoch(), e1)
	}
}

// TestStaleAndDuplicateSeqHandling pins the server's total-order contract:
// a duplicate of an applied message is acked without re-applying, an
// out-of-order stale message (zombie handler after a redial) is skipped,
// and a retry of a *failed* apply is re-applied, not deduplicated.
func TestStaleAndDuplicateSeqHandling(t *testing.T) {
	l := ctlkit.NewMemListener("rpc")
	defer l.Close()
	var mu sync.Mutex
	var applied []uint64
	failNext := false
	srv := NewServer(func(m *Message) error {
		mu.Lock()
		defer mu.Unlock()
		if failNext {
			failNext = false
			return errors.New("transient apply failure")
		}
		applied = append(applied, m.DPID)
		return nil
	})
	go srv.Serve(l)
	defer srv.Stop()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(seq, dpid uint64) ack {
		m := SwitchUp(dpid, 1)
		m.Seq = seq
		if err := writeFrame(conn, m); err != nil {
			t.Fatal(err)
		}
		var a ack
		if err := readFrame(conn, &a); err != nil {
			t.Fatal(err)
		}
		return a
	}

	if a := exchange(1, 0xA); a.Err != "" {
		t.Fatalf("seq 1: %v", a.Err)
	}
	if a := exchange(1, 0xA); a.Err != "" { // duplicate retry: ack, no re-apply
		t.Fatalf("dup seq 1: %v", a.Err)
	}
	if a := exchange(3, 0xC); a.Err != "" {
		t.Fatalf("seq 3: %v", a.Err)
	}
	if a := exchange(2, 0xB); a.Err != "" { // zombie: skipped silently
		t.Fatalf("stale seq 2: %v", a.Err)
	}
	mu.Lock()
	failNext = true
	mu.Unlock()
	if a := exchange(4, 0xD); a.Err == "" { // first attempt fails...
		t.Fatal("expected transient failure")
	}
	if a := exchange(4, 0xD); a.Err != "" { // ...retry must re-apply
		t.Fatalf("retry of failed seq 4: %v", a.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []uint64{0xA, 0xC, 0xD}
	if len(applied) != len(want) {
		t.Fatalf("applied = %x, want %x", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("applied = %x, want %x", applied, want)
		}
	}
	if srv.Applied() != 3 {
		t.Fatalf("Applied() = %d, want 3", srv.Applied())
	}
	if n := srv.Deduplicated(); n != 2 {
		t.Fatalf("Deduplicated() = %d, want 2 (the duplicate of seq 1 and the stale seq 2)", n)
	}
}

// TestReplayedSeqIsCounted pins that a dedup discard is not silent: a
// replayed sequence number is acked as a success, applied once, and counted.
func TestReplayedSeqIsCounted(t *testing.T) {
	l := ctlkit.NewMemListener("rpc")
	defer l.Close()
	srv := NewServer(func(m *Message) error { return nil })
	go srv.Serve(l)
	defer srv.Stop()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	m := SwitchUp(0xA, 1)
	m.Seq = 7
	for i := 0; i < 2; i++ {
		if err := writeFrame(conn, m); err != nil {
			t.Fatal(err)
		}
		var a ack
		if err := readFrame(conn, &a); err != nil {
			t.Fatal(err)
		}
		if a.Err != "" || a.Seq != 7 {
			t.Fatalf("delivery %d acked %+v, want seq 7 without error", i+1, a)
		}
	}
	if srv.Applied() != 1 || srv.Deduplicated() != 1 {
		t.Fatalf("Applied() = %d, Deduplicated() = %d; want 1 and 1", srv.Applied(), srv.Deduplicated())
	}
}

func TestBadFrameRejected(t *testing.T) {
	l := ctlkit.NewMemListener("rpc")
	defer l.Close()
	srv := NewServer(func(m *Message) error { return nil })
	go srv.Serve(l)
	defer srv.Stop()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header announcing 2 MiB must close the connection.
	if _, err := conn.Write([]byte{0x00, 0x20, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept oversized-frame connection open")
	}
}

// TestLossInjectorRateChange pins the variable-rate loss contract behind RPC
// loss bursts: rate 1 drops every write on an already-handed-out
// connection, dropping the rate to 0 makes redials lossless again, and a
// zero rate consumes no randomness (so lossless scenarios stay
// deterministic regardless of write counts).
func TestLossInjectorRateChange(t *testing.T) {
	l := ctlkit.NewMemListener("rpc")
	defer l.Close()
	srv := NewServer(func(m *Message) error { return nil })
	go srv.Serve(l)
	defer srv.Stop()

	li := NewLossInjector(0, 7)
	dial := li.Dialer(func() (net.Conn, error) { return l.Dial() })
	c := NewClient(dial, nil)
	defer c.Close()
	if err := c.Send(Probe()); err != nil {
		t.Fatalf("lossless send: %v", err)
	}
	if li.Rate() != 0 {
		t.Fatalf("rate = %v, want 0", li.Rate())
	}

	li.SetRate(1.0) // total loss: the send must fail
	if err := c.Send(Probe()); err == nil {
		t.Fatal("send succeeded under 100% loss")
	}
	li.SetRate(0)
	if err := c.Send(Probe()); err != nil {
		t.Fatalf("send after clearing the burst: %v", err)
	}
}
