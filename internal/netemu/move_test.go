package netemu

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/clock"
)

// TestMovedBufferIsNotCopied pins what a move is: the frame the far receiver
// sees sits in the memory the relay saw it in, patched in place by the relay,
// and both cables count it like any other frame.
func TestMovedBufferIsNotCopied(t *testing.T) {
	n := NewNetwork(clock.System())
	defer n.Close()
	src, relay := n.NewCable(CableOpts{NameA: "src", NameB: "relay"})
	out, sink := n.NewCable(CableOpts{NameA: "out", NameB: "sink"})
	var at atomic.Pointer[byte]
	relay.SetBurstReceiver(func(b *Burst) {
		at.Store(&b.Frames[0][0])
		b.Frames[0][0] = 'M' // what a MAC rewrite does
		out.SendBurst(b.Frames, []*Buffer{b.Take(0)})
	})
	type seen struct {
		at    *byte
		frame []byte
	}
	got := make(chan seen, 1)
	sink.SetReceiver(func(f []byte) { got <- seen{&f[0], append([]byte(nil), f...)} })
	frame := []byte("moved, not copied")
	if !src.Send(frame) {
		t.Fatal("send refused")
	}
	select {
	case s := <-got:
		if want := append([]byte("M"), frame[1:]...); !bytes.Equal(s.frame, want) {
			t.Fatalf("sink got %q, want %q", s.frame, want)
		}
		if s.at != at.Load() {
			t.Fatal("the frame changed memory between the relay and the sink: it was copied")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("moved frame never delivered")
	}
	want := Stats{TxPackets: 1, TxBytes: uint64(len(frame))}
	if st := out.Stats(); st != want {
		t.Fatalf("moving endpoint's stats %+v, want %+v", st, want)
	}
	want = Stats{RxPackets: 1, RxBytes: uint64(len(frame))}
	if st := sink.Stats(); st != want {
		t.Fatalf("sink's stats %+v, want %+v", st, want)
	}
}

// TestBurstWithoutBuffersHasNothingToTake: a burst that did not come off a
// cable hands out no buffers, so whoever forwards it copies.
func TestBurstWithoutBuffersHasNothingToTake(t *testing.T) {
	b := &Burst{Frames: [][]byte{{1}, {2}}}
	if b.Take(0) != nil || b.Take(1) != nil {
		t.Fatal("Take on a burst built outside the cable returned a buffer")
	}
}

// TestMovedBufferDeadlineRestamped: a buffer carries the deadline of the
// cable it last crossed, and a send stamps it afresh — a buffer that arrived
// over a cable without latency (no deadline) waits out the latency of the
// cable it is moved into, and one that arrived with a deadline does not bring
// it along into a cable without latency.
func TestMovedBufferDeadlineRestamped(t *testing.T) {
	const lat = 40 * time.Millisecond
	for _, tc := range []struct {
		name        string
		first, next time.Duration
	}{
		{"into a latency cable", 0, lat},
		{"out of a latency cable", lat, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork(clock.System())
			defer n.Close()
			src, relay := n.NewCable(CableOpts{NameA: "src", NameB: "relay", Latency: tc.first})
			out, sink := n.NewCable(CableOpts{NameA: "out", NameB: "sink", Latency: tc.next})
			relayed := make(chan time.Time, 1)
			var due atomic.Pointer[time.Time]
			relay.SetBurstReceiver(func(b *Burst) {
				fb := b.Take(0)
				relayed <- time.Now()
				out.SendBurst(b.Frames, []*Buffer{fb})
			})
			arrived := make(chan time.Time, 1)
			sink.SetBurstReceiver(func(b *Burst) {
				d := b.bufs[0].due
				due.Store(&d)
				arrived <- time.Now()
			})
			src.Send([]byte{1})
			var hop time.Duration
			select {
			case at := <-arrived:
				hop = at.Sub(<-relayed)
			case <-time.After(2 * time.Second):
				t.Fatal("moved frame never delivered")
			}
			if tc.next > 0 && hop < tc.next-5*time.Millisecond {
				t.Fatalf("moved frame crossed a %v cable in %v: it kept the deadline it came with", tc.next, hop)
			}
			if tc.next == 0 && !due.Load().IsZero() {
				t.Fatalf("moved frame crossed a cable without latency with deadline %v", due.Load())
			}
		})
	}
}

// TestRefusedMovedBufferIsRecycled: a moved buffer the cable refuses — link
// down, loss draw, full ring — goes back to the pool like a refused copy
// does. A leak would show as the pool allocating a fresh buffer for every
// frame sent into the relay, so a warm relay that allocates nothing per
// refused burst is recycling them. (AllocsPerRun counts mallocs of the whole
// process, delivery goroutines included.)
func TestRefusedMovedBufferIsRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const burstLen = 32
	hold := make(chan struct{})
	defer close(hold)
	for _, tc := range []struct {
		name  string
		opts  CableOpts
		setup func(out, sink *Endpoint)
	}{
		{"link down", CableOpts{}, func(out, _ *Endpoint) { out.SetLinkUp(false) }},
		{"loss draw", CableOpts{LossRate: 0.999999999, Seed: 1}, func(_, sink *Endpoint) {
			sink.SetReceiver(func([]byte) {})
		}},
		{"full ring", CableOpts{InboxDepth: 4}, func(out, sink *Endpoint) {
			// The delivery goroutine is held with the ring empty, so the
			// warm-up fills it and it stays full.
			entered := make(chan struct{})
			sink.SetReceiver(func([]byte) { close(entered); <-hold })
			out.Send([]byte{0})
			<-entered
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork(clock.System())
			defer n.Close()
			tc.opts.NameA, tc.opts.NameB = "out", "sink"
			out, sink := n.NewCable(tc.opts)
			tc.setup(out, sink)
			m := newMover(t, out)
			batch := make([][]byte, burstLen)
			for i := range batch {
				batch[i] = make([]byte, 1514)
			}
			for i := 0; i < 8; i++ { // warm the pool
				m.send(batch)
			}
			before := out.Stats().Drops
			avg := testing.AllocsPerRun(200, func() {
				if got := m.send(batch); got != 0 {
					t.Fatalf("%d frames accepted, want every one refused", got)
				}
			})
			if refused := out.Stats().Drops - before; refused != 201*burstLen {
				t.Fatalf("%d frames counted as dropped, want %d", refused, 201*burstLen)
			}
			if avg > 0 {
				t.Fatalf("%.1f allocations per burst of %d refused moved frames: they are not going back to the pool", avg, burstLen)
			}
		})
	}
}
