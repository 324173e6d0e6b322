package netemu

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/clock"
)

// ringFrame tags a frame with its sender and that sender's sequence number.
func ringFrame(sender, seq uint32) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b, sender)
	binary.BigEndian.PutUint32(b[4:], seq)
	return b
}

// eventually polls cond until it holds; after five seconds it fails the test
// with what() as the reason.
func eventually(t *testing.T, cond func() bool, what func() string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// mover is a sender that moves buffers the way a forwarding switch does: what
// it is given goes down a feeder cable whose receiver takes the buffer of
// every frame of every burst and sends those on through out.
type mover struct {
	t       *testing.T
	feed    *Endpoint
	relayed chan [2]int // per relayed burst: its frames, and how many of them out accepted
}

func newMover(t *testing.T, out *Endpoint) *mover {
	feed, relay := out.net.NewCable(CableOpts{NameA: "feed", NameB: "relay"})
	m := &mover{t: t, feed: feed, relayed: make(chan [2]int, 1)}
	var bufs [MaxBurst]*Buffer
	relay.SetBurstReceiver(func(b *Burst) {
		n := len(b.Frames)
		for i := range b.Frames {
			if bufs[i] = b.Take(i); bufs[i] == nil || b.Take(i) != nil {
				t.Errorf("frame %d of a delivered burst: no buffer to take, or one to take twice", i)
			}
		}
		accepted := out.SendBurst(b.Frames, bufs[:n])
		clear(bufs[:n])
		m.relayed <- [2]int{n, accepted}
	})
	return m
}

// send moves frames through out, in order, and returns how many out accepted
// once the last of them has been relayed.
func (m *mover) send(frames [][]byte) (accepted int) {
	for len(frames) > 0 {
		n := min(len(frames), DefaultInboxDepth) // what the feeder holds for sure
		if got := m.feed.SendBatch(frames[:n]); got != n {
			m.t.Errorf("feeder cable accepted %d of %d frames", got, n)
		}
		frames = frames[n:]
		for n > 0 {
			r := <-m.relayed
			n -= r[0]
			accepted += r[1]
		}
	}
	return accepted
}

// ringSenders runs k goroutines that each push frames into a, mixing Send
// and SendBatch of random sizes (some beyond MaxBurst), until each has
// offered perSender frames. Odd-numbered senders move their frames into a
// (see mover) instead of having a copy them, so moved and copied bursts
// interleave in the ring. With credits, sender s takes one from credits[s]
// per frame before sending it and the receiver gives one back per frame
// delivered, so s never has more than cap(credits[s]) frames unaccounted
// for. It returns how many frames the calls reported as accepted.
func ringSenders(t *testing.T, a *Endpoint, k, perSender int, credits []chan struct{}) (accepted int64) {
	var acc atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		sendBatch := a.SendBatch
		if s%2 == 1 {
			sendBatch = newMover(t, a).send
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s) + 1))
			for seq := 0; seq < perSender; {
				n := 1
				switch rng.Intn(4) {
				case 0:
					n = 1 + rng.Intn(100)
				case 1:
					n = 1 + rng.Intn(8)
				}
				n = min(n, perSender-seq)
				if credits != nil {
					n = min(n, cap(credits[s]))
					for i := 0; i < n; i++ {
						<-credits[s]
					}
				}
				if n == 1 && s%2 == 0 && rng.Intn(2) == 0 {
					if a.Send(ringFrame(uint32(s), uint32(seq))) {
						acc.Add(1)
					}
				} else {
					batch := make([][]byte, n)
					for i := range batch {
						batch[i] = ringFrame(uint32(s), uint32(seq+i))
					}
					acc.Add(int64(sendBatch(batch)))
				}
				seq += n
			}
		}(s)
	}
	wg.Wait()
	return acc.Load()
}

// ringReceiver installs on b a batch receiver that stalls at random and
// checks what the ring owes every sender: frames of one sender arrive in the
// order sent, none twice (a sequence number never repeats or goes back).
type ringReceiver struct {
	t         *testing.T
	mu        sync.Mutex
	last      []int64 // per sender: last sequence number seen, -1 before any
	delivered atomic.Int64
	onFrame   func(sender uint32)
}

func newRingReceiver(t *testing.T, b *Endpoint, k int) *ringReceiver {
	r := &ringReceiver{t: t, last: make([]int64, k)}
	for i := range r.last {
		r.last[i] = -1
	}
	rng := rand.New(rand.NewSource(99)) // used by the delivery goroutine only
	b.SetBatchReceiver(func(frames [][]byte) {
		switch rng.Intn(8) {
		case 0:
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		case 1:
			runtime.Gosched()
		}
		if len(frames) > MaxBurst {
			t.Errorf("burst of %d frames, MaxBurst is %d", len(frames), MaxBurst)
		}
		r.mu.Lock()
		for _, f := range frames {
			s, seq := binary.BigEndian.Uint32(f), int64(binary.BigEndian.Uint32(f[4:]))
			if seq <= r.last[s] {
				t.Errorf("sender %d: frame %d delivered after frame %d", s, seq, r.last[s])
			}
			r.last[s] = seq
		}
		r.mu.Unlock()
		r.delivered.Add(int64(len(frames)))
		if r.onFrame != nil {
			for _, f := range frames {
				r.onFrame(binary.BigEndian.Uint32(f))
			}
		}
	})
	return r
}

// await waits until want frames have been delivered.
func (r *ringReceiver) await(want int64) {
	r.t.Helper()
	eventually(r.t, func() bool { return r.delivered.Load() >= want }, func() string {
		return fmt.Sprintf("%d of %d accepted frames delivered", r.delivered.Load(), want)
	})
}

// TestRingConcurrentSendersModel floods a small ring from several senders
// while the receiver stalls: whatever is lost, every frame is either
// delivered once and in its sender's order or counted as dropped.
func TestRingConcurrentSendersModel(t *testing.T) {
	n := NewNetwork(clock.System())
	defer n.Close()
	a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b", InboxDepth: 16})
	const k, perSender = 4, 3000
	r := newRingReceiver(t, b, k)
	accepted := ringSenders(t, a, k, perSender, nil)
	r.await(accepted)
	time.Sleep(5 * time.Millisecond) // anything delivered beyond what was accepted would show now
	st := a.Stats()
	if got := r.delivered.Load(); got != accepted || uint64(got) != st.TxPackets {
		t.Fatalf("delivered %d, calls accepted %d, TxPackets %d", got, accepted, st.TxPackets)
	}
	if uint64(accepted)+st.Drops != k*perSender {
		t.Fatalf("delivered %d + drops %d != sent %d", accepted, st.Drops, k*perSender)
	}
	if st.Drops == 0 {
		t.Fatal("a 16-frame ring under four flooding senders never overflowed: the test exercised nothing")
	}
	if rx := b.Stats(); rx.RxPackets != uint64(accepted) || rx.RxBytes != 8*uint64(accepted) || st.TxBytes != rx.RxBytes {
		t.Fatalf("byte and packet counters disagree: tx %+v rx %+v", st, rx)
	}
}

// TestRingDropsOnlyWhenFull is the other half of the model: senders that
// together never have more frames outstanding than the ring holds lose
// nothing, however the receiver stalls.
func TestRingDropsOnlyWhenFull(t *testing.T) {
	n := NewNetwork(clock.System())
	defer n.Close()
	const k, perSender, window = 4, 3000, 8
	a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b", InboxDepth: k * window})
	credits := make([]chan struct{}, k)
	for s := range credits {
		credits[s] = make(chan struct{}, window) // one slot per credit of sender s
		for i := 0; i < window; i++ {
			credits[s] <- struct{}{}
		}
	}
	r := newRingReceiver(t, b, k)
	r.onFrame = func(sender uint32) { credits[sender] <- struct{}{} }
	accepted := ringSenders(t, a, k, perSender, credits)
	if st := a.Stats(); accepted != k*perSender || st.Drops != 0 {
		t.Fatalf("ring never held more than its depth, yet %d of %d accepted and %d dropped", accepted, k*perSender, st.Drops)
	}
	r.await(accepted)
}

// TestRingFillsExactly pins where the boundary sits: with the delivery
// goroutine held inside a callback, the ring takes exactly InboxDepth frames,
// a burst that straddles the boundary is accepted up to it, and what was
// accepted comes out in order once the receiver moves again.
func TestRingFillsExactly(t *testing.T) {
	n := NewNetwork(clock.System())
	defer n.Close()
	const depth = 10
	a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b", InboxDepth: depth})
	entered, release := make(chan struct{}), make(chan struct{})
	var got []byte
	done := make(chan struct{})
	b.SetReceiver(func(f []byte) {
		if f[0] == 0 {
			close(entered)
			<-release
			return
		}
		got = append(got, f[0])
		if len(got) == depth {
			close(done)
		}
	})
	a.Send([]byte{0})
	<-entered // frame 0 is out of the ring and the delivery goroutine is held
	for i := 1; i <= 7; i++ {
		if !a.Send([]byte{byte(i)}) {
			t.Fatalf("send %d refused with %d of %d slots used", i, i-1, depth)
		}
	}
	if n := a.SendBatch([][]byte{{8}, {9}, {10}, {11}, {12}}); n != 3 {
		t.Fatalf("burst of 5 into 3 free slots: %d accepted", n)
	}
	if a.Send([]byte{13}) {
		t.Fatal("send accepted by a full ring")
	}
	if st := a.Stats(); st.Drops != 3 || st.TxPackets != 1+depth {
		t.Fatalf("stats %+v, want 3 drops and %d sent", st, 1+depth)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("only %v came out of the ring", got)
	}
	for i, v := range got {
		if int(v) != i+1 {
			t.Fatalf("ring delivered %v", got)
		}
	}
}

// TestRingNoLostWakeup sends each frame into an idle (or just going idle)
// receiver: the wake token is only put on the empty-to-non-empty edge, so a
// frame pushed between the delivery goroutine's last pop and its wait must
// still get it moving.
func TestRingNoLostWakeup(t *testing.T) {
	_, a, b := newPair(t)
	got := make(chan struct{}, 1)
	b.SetReceiver(func([]byte) { got <- struct{}{} })
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	for i := 0; i < 10000; i++ {
		if !a.Send([]byte{1}) {
			t.Fatalf("round %d: send refused", i)
		}
		timeout.Reset(2 * time.Second)
		select {
		case <-got:
		case <-timeout.C:
			t.Fatalf("round %d: frame never delivered, wake-up lost", i)
		}
		if i%3 == 0 {
			runtime.Gosched() // vary where the delivery goroutine is when the next frame lands
		}
	}
}

// TestCloseWithQueuedFrames closes a network whose rings still hold frames
// and whose delivery goroutine is busy: Close returns at once, and the
// goroutines end without draining what was queued.
func TestCloseWithQueuedFrames(t *testing.T) {
	before := runtime.NumGoroutine()
	n := NewNetwork(clock.System())
	a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b"})
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	b.SetBatchReceiver(func([][]byte) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
	})
	a.Send([]byte{0})
	<-entered
	for i := 0; i < 200; i++ {
		a.Send([]byte{1})
	}
	n.Close()
	close(release)
	eventually(t, func() bool { return runtime.NumGoroutine() <= before }, func() string {
		return fmt.Sprintf("%d goroutines before, %d after Close", before, runtime.NumGoroutine())
	})
	if c := calls.Load(); c != 1 {
		t.Fatalf("%d deliveries after Close, want the queued frames left undelivered", c-1)
	}
}

// TestLinkCutDiscardsQueuedFrames pins the delivery half of link-down: a
// frame accepted while the link was up and still in the ring when it is cut
// is discarded and counted by the receiving endpoint, not delivered —
// whether its buffer was filled by this cable or moved into it.
func TestLinkCutDiscardsQueuedFrames(t *testing.T) {
	for _, moved := range []bool{false, true} {
		t.Run(fmt.Sprintf("moved=%v", moved), func(t *testing.T) {
			_, a, b := newPair(t)
			sendBatch := a.SendBatch
			if moved {
				sendBatch = newMover(t, a).send
			}
			entered, release := make(chan struct{}), make(chan struct{})
			var calls atomic.Int32
			b.SetReceiver(func([]byte) {
				if calls.Add(1) == 1 {
					close(entered)
					<-release
				}
			})
			a.Send([]byte{0})
			<-entered
			if n := sendBatch([][]byte{{1}, {2}, {3}, {4}, {5}}); n != 5 {
				t.Fatalf("%d of 5 frames accepted on an up link", n)
			}
			a.SetLinkUp(false)
			close(release)
			eventually(t, func() bool { return b.Stats().Drops == 5 }, func() string {
				return fmt.Sprintf("receiver counted %d drops, want the 5 queued frames", b.Stats().Drops)
			})
			if c := calls.Load(); c != 1 {
				t.Fatalf("%d frames delivered over a cut link", c-1)
			}
		})
	}
}

// TestLossDrawsFollowSendOrder pins that the loss model cannot tell Send
// from SendBatch or a moved buffer from a copied one: with one seed, the
// frames that get through are the same whether they are sent one by one, in
// bursts of any size, or moved in from another cable.
func TestLossDrawsFollowSendOrder(t *testing.T) {
	const frames = 300
	survivors := func(burstLen func() int, moved bool) string {
		n := NewNetwork(clock.System())
		defer n.Close()
		a, b := n.NewCable(CableOpts{NameA: "a", NameB: "b", LossRate: 0.3, Seed: 42})
		sendBatch := a.SendBatch
		if moved {
			sendBatch = newMover(t, a).send
		}
		var mu sync.Mutex
		got := make([]byte, frames)
		for i := range got {
			got[i] = '0'
		}
		var delivered atomic.Int64
		b.SetReceiver(func(f []byte) {
			mu.Lock()
			got[binary.BigEndian.Uint32(f[4:])] = '1'
			mu.Unlock()
			delivered.Add(1)
		})
		sent := 0
		for i := 0; i < frames; {
			k := min(burstLen(), frames-i)
			if k == 0 {
				if a.Send(ringFrame(0, uint32(i))) {
					sent++
				}
				i++
				continue
			}
			batch := make([][]byte, k)
			for j := range batch {
				batch[j] = ringFrame(0, uint32(i+j))
			}
			sent += sendBatch(batch)
			i += k
		}
		eventually(t, func() bool { return delivered.Load() >= int64(sent) }, func() string {
			return fmt.Sprintf("%d of %d accepted frames delivered", delivered.Load(), sent)
		})
		mu.Lock()
		defer mu.Unlock()
		return string(got)
	}
	rng := rand.New(rand.NewSource(5))
	single := survivors(func() int { return 0 }, false)
	if burst := survivors(func() int { return rng.Intn(100) }, false); burst != single {
		t.Fatalf("loss pattern depends on how frames are sent:\nSend:      %s\nSendBatch: %s", single, burst)
	}
	if moved := survivors(func() int { return 1 + rng.Intn(100) }, true); moved != single {
		t.Fatalf("loss pattern depends on whose buffer a frame is in:\nSend:  %s\nmoved: %s", single, moved)
	}
}
