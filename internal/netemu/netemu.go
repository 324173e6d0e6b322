// Package netemu emulates the physical network the paper runs on: switches,
// hosts and the cables between them. It replaces the OFELIA testbed's Linux
// network namespaces with in-process endpoints exchanging byte-accurate
// Ethernet frames over cables that can model latency, loss and failure.
// Everything above this layer — OpenFlow switching, discovery, routing — is
// real protocol code; only the physical medium is simulated.
//
// Delivery model: each endpoint has a bounded inbox drained by one goroutine,
// so receivers run concurrently with senders and frames on one cable arrive
// in order. A full inbox drops frames (like a real NIC ring), which keeps the
// system deadlock-free by construction. The burst is the unit of
// synchronisation on both sides of the inbox: a send of any size puts its
// frames into the ring under one lock and wakes the delivery goroutine at
// most once, and the delivery goroutine takes whatever has accumulated (up
// to MaxBurst) under one lock and hands the whole burst to the receiver in
// one callback.
//
// Buffer ownership: a frame in flight lives in one pooled Buffer, filled once
// (a Host builds its frame in it, Send copies the caller's bytes into it).
// The receiver of the burst that carries it may take the buffer (Burst.Take)
// and send it on as it is (Endpoint.SendBurst), so a frame that crosses
// several cables is filled by the host that sends it and recycled after the
// host that receives it, not copied at every crossing.
package netemu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/pkt"
)

// DefaultInboxDepth is the per-endpoint receive queue length.
const DefaultInboxDepth = 512

// MaxBurst bounds how many frames one delivery callback can carry; it also
// bounds how long a batch receiver can hold the delivery goroutine before
// later frames get their latency deadlines re-checked.
const MaxBurst = 64

// Network owns cables and endpoint delivery goroutines.
type Network struct {
	clk clock.Clock

	mu     sync.Mutex
	eps    []*Endpoint
	closed bool
}

// NewNetwork returns an empty network using clk for latency modelling.
func NewNetwork(clk clock.Clock) *Network {
	if clk == nil {
		clk = clock.System()
	}
	return &Network{clk: clk}
}

// CableOpts configures one cable.
type CableOpts struct {
	NameA, NameB string        // endpoint labels (Name, String)
	MACA, MACB   pkt.MAC       // endpoint hardware addresses
	Latency      time.Duration // one-way delay, applied per frame
	LossRate     float64       // probability per frame, [0,1)
	Seed         int64         // RNG seed for loss decisions
	InboxDepth   int           // defaults to DefaultInboxDepth
}

// Buffer is a pooled in-flight frame. A copying send fills one from the
// pool, the peer's deliverLoop hands its bytes to the receiver and recycles
// it unless the receiver took it — steady-state frame delivery allocates
// nothing (the emulated analogue of a NIC ring reusing descriptors). due is
// the frame's delivery deadline on a latency-modelled cable (zero when the
// cable has no latency): deadlines are stamped at every send, so frames in
// flight overlap like bits on a real pipe instead of queueing one full
// latency behind each other.
//
// Outside this package a Buffer can only be had from Burst.Take, and it has
// exactly one owner at a time: the cable it is queued in, the delivery
// goroutine handing it to a receiver, or the receiver that took it.
type Buffer struct {
	b   []byte
	due time.Time
}

var framePool = sync.Pool{New: func() any { return new(Buffer) }}

// Release returns a taken buffer to the pool unsent. Its frame is dead from
// here on.
func (fb *Buffer) Release() { framePool.Put(fb) }

// Burst is one delivery: the frames that had accumulated in the inbox, oldest
// first, and the buffers behind them.
type Burst struct {
	Frames [][]byte
	// bufs[i] backs Frames[i] until it is taken; a burst built outside this
	// package has none and Take on it reports nil.
	bufs []*Buffer
}

// Take makes the caller the owner of the buffer behind Frames[i]: the cable
// will not recycle it, and Frames[i] stays valid for as long as the caller
// holds the buffer. The caller must hand it to SendBurst or Release it before
// the callback returns. Take reports nil when there is no buffer to take —
// it was taken already, or the burst did not come off a cable — and then
// Frames[i] remains the cable's. Only the goroutine running the callback may
// call it.
func (b *Burst) Take(i int) *Buffer {
	if b.bufs == nil {
		return nil
	}
	fb := b.bufs[i]
	b.bufs[i] = nil
	return fb
}

// Endpoint is one side of a cable. Owners attach a receiver; Send transmits
// toward the peer.
type Endpoint struct {
	net     *Network
	name    string
	mac     pkt.MAC
	peer    *Endpoint
	stop    chan struct{}
	stopped sync.Once

	// The inbox is a ring of frames in flight toward this endpoint: the
	// peer's sends push at the tail, deliverLoop pops at the head, each a
	// whole burst per lock. wake holds one token, put there by the push that
	// finds the ring empty; deliverLoop waits on it only after a pop that
	// found nothing, so a push either is seen by the next pop or leaves a
	// token.
	inMu   sync.Mutex
	ring   []*Buffer
	head   int // index of the oldest queued frame
	queued int
	wake   chan struct{}

	latency time.Duration
	loss    float64
	// Loss decisions draw from an atomic-stepped splitmix64 sequence: each
	// draw is one atomic add plus pure arithmetic, so loss-injected cables
	// never serialize concurrent senders behind a shared RNG lock. The
	// sequence is deterministic per seed; only the interleaving of draws
	// across racing senders varies (exactly as it did under the old mutex).
	lossSeed uint64
	lossSeq  atomic.Uint64

	recvMu  sync.RWMutex
	recv    func(*Burst)
	onState func(bool)

	up atomic.Bool // shared link state is the AND of both halves; we keep one flag per cable, see link

	link *linkState

	rxPackets, txPackets atomic.Uint64
	rxBytes, txBytes     atomic.Uint64
	drops                atomic.Uint64
}

// linkState is shared by the two endpoints of one cable.
type linkState struct {
	up atomic.Bool
}

// NewCable creates a cable and returns its two endpoints, initially up.
func (n *Network) NewCable(opts CableOpts) (*Endpoint, *Endpoint) {
	depth := opts.InboxDepth
	if depth <= 0 {
		depth = DefaultInboxDepth
	}
	ls := &linkState{}
	ls.up.Store(true)
	mk := func(name string, mac pkt.MAC, seedSalt int64) *Endpoint {
		e := &Endpoint{
			net:      n,
			name:     name,
			mac:      mac,
			stop:     make(chan struct{}),
			ring:     make([]*Buffer, depth),
			wake:     make(chan struct{}, 1),
			latency:  opts.Latency,
			loss:     opts.LossRate,
			lossSeed: splitmix64(uint64(opts.Seed ^ seedSalt)),
			link:     ls,
		}
		go e.deliverLoop()
		return e
	}
	a := mk(opts.NameA, opts.MACA, 0x517e)
	b := mk(opts.NameB, opts.MACB, 0x9e77)
	a.peer, b.peer = b, a
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		a.close()
		b.close()
		panic("netemu: NewCable on closed network")
	}
	n.eps = append(n.eps, a, b)
	return a, b
}

// Name returns the endpoint label.
func (e *Endpoint) Name() string { return e.name }

// MAC returns the endpoint hardware address.
func (e *Endpoint) MAC() pkt.MAC { return e.mac }

// LinkUp reports whether the cable is administratively up.
func (e *Endpoint) LinkUp() bool { return e.link.up.Load() }

// SetBurstReceiver installs the inbound handler (nil clears it; frames
// arriving with no receiver installed are dropped and counted). The delivery
// goroutine drains the inbox in bursts of up to MaxBurst frames and hands each
// to f in one callback, amortizing receiver-side locking and dispatch per
// burst instead of per frame.
//
// Ownership contract (like a kernel packet ring): the burst, its Frames slice
// and every frame in it are valid only for the duration of the callback,
// which may mutate each frame in place; all of it is recycled as soon as the
// callback returns, so a receiver that retains a frame must copy it. The one
// exception is a frame whose buffer the receiver took with Burst.Take: that
// frame is the receiver's until it sends the buffer on or releases it, which
// it must do before the callback returns.
func (e *Endpoint) SetBurstReceiver(f func(*Burst)) {
	e.recvMu.Lock()
	e.recv = f
	e.recvMu.Unlock()
}

// SetBatchReceiver installs a burst receiver that takes nothing: f sees the
// frames only, under the same contract.
func (e *Endpoint) SetBatchReceiver(f func(frames [][]byte)) {
	e.SetBurstReceiver(func(b *Burst) { f(b.Frames) })
}

// SetReceiver installs a burst receiver that takes nothing and sees one frame
// per call (nil clears it).
func (e *Endpoint) SetReceiver(f func(frame []byte)) {
	if f == nil {
		e.SetBurstReceiver(nil)
		return
	}
	e.SetBurstReceiver(func(b *Burst) {
		for _, frame := range b.Frames {
			f(frame)
		}
	})
}

// OnLinkState installs a callback fired on SetLinkUp transitions (both
// endpoints of the cable are notified).
func (e *Endpoint) OnLinkState(f func(up bool)) {
	e.recvMu.Lock()
	e.onState = f
	e.recvMu.Unlock()
}

// SetLinkUp raises or cuts the cable; both endpoints observe the change.
func (e *Endpoint) SetLinkUp(up bool) {
	if e.link.up.Swap(up) == up {
		return
	}
	for _, ep := range []*Endpoint{e, e.peer} {
		ep.recvMu.RLock()
		cb := ep.onState
		ep.recvMu.RUnlock()
		if cb != nil {
			cb(up)
		}
	}
}

// splitmix64 is the mixing function of the SplitMix64 generator; one round
// turns a sequence counter into a uniform 64-bit value, so loss draws need
// no shared generator state beyond an atomic counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lossDrop draws the next loss decision. Lock-free: one atomic add and pure
// arithmetic per draw.
func (e *Endpoint) lossDrop() bool {
	x := splitmix64(e.lossSeed + e.lossSeq.Add(1))
	return float64(x>>11)/(1<<53) < e.loss
}

// Send transmits one frame toward the peer. It never blocks; it reports
// false when the frame was dropped (link down, loss model, or full peer
// inbox). The frame is copied into a pooled buffer, so callers may reuse
// (or have been mutating) their slice. Send is SendBatch for a burst of one,
// without the burst's staging array (which costs a lone frame ~20 ns to
// clear).
func (e *Endpoint) Send(frame []byte) bool {
	fb := e.fill(frame, nil)
	return fb != nil && e.enqueueOne(fb)
}

// SendBatch is SendBurst with nothing moved: every frame is copied.
func (e *Endpoint) SendBatch(frames [][]byte) int { return e.SendBurst(frames, nil) }

// SendBurst transmits a burst of frames toward the peer in one call: the
// peer's inbox is locked once and its delivery goroutine woken at most once
// per MaxBurst frames, and counters and the deadline stamp are paid per
// burst. Link state and the loss model are consulted per frame, in order, so
// both behave as under Send. The return value is the number of frames
// accepted (link down accepts none, a full peer inbox or a loss draw drops
// individual frames).
//
// bufs is nil or as long as frames. Where bufs[i] is nil, frames[i] is copied
// like Send. Where it is not, it is the buffer taken from the burst being
// delivered to the caller, frames[i] is that buffer's frame (patched in place
// or untouched, not resliced), and the buffer itself is queued: the cable
// owns it from here on whether it accepts the frame or not, and the caller
// must not touch frames[i] again.
func (e *Endpoint) SendBurst(frames [][]byte, bufs []*Buffer) int {
	sent := 0
	for len(frames) > 0 {
		var stage [MaxBurst]*Buffer
		fbs := stage[:0]
		n := min(len(frames), MaxBurst)
		for i, frame := range frames[:n] {
			var moved *Buffer
			if bufs != nil {
				moved = bufs[i]
			}
			if fb := e.fill(frame, moved); fb != nil {
				fbs = append(fbs, fb)
			}
		}
		sent += e.enqueue(fbs)
		frames = frames[n:]
		if bufs != nil {
			bufs = bufs[n:]
		}
	}
	return sent
}

// fill admits one frame and returns the buffer that will carry it: moved
// itself when the caller gave one, otherwise a pooled buffer with a copy of
// frame. nil means refused, and a moved buffer recycled.
func (e *Endpoint) fill(frame []byte, moved *Buffer) *Buffer {
	if !e.admit() {
		if moved != nil {
			framePool.Put(moved)
		}
		return nil
	}
	if moved != nil {
		return moved
	}
	fb := framePool.Get().(*Buffer)
	fb.b = append(fb.b[:0], frame...)
	return fb
}

// admit makes the decisions of a send that need no buffer yet: link state,
// then the loss draw. A refusal is counted. Host builds its frames straight
// into a pooled buffer between admit and enqueue, which saves it the copy
// Send makes.
func (e *Endpoint) admit() bool {
	if !e.link.up.Load() || (e.loss > 0 && e.lossDrop()) {
		e.drops.Add(1)
		return false
	}
	return true
}

// enqueue stamps the delivery deadline on a burst of admitted frames and
// pushes it into the peer's inbox, which then owns what it accepted; frames
// a full inbox refused are dropped, counted and recycled. It returns the
// number accepted.
func (e *Endpoint) enqueue(fbs []*Buffer) int {
	if len(fbs) == 0 {
		return 0
	}
	var due time.Time
	if e.latency > 0 {
		due = e.net.clk.Now().Add(e.latency)
	}
	// An accepted buffer may be delivered, recycled and refilled by another
	// sender before push returns, so everything read from the buffers is read
	// here, and afterwards only from the ones that came back.
	var bytes uint64
	for _, fb := range fbs {
		fb.due = due
		bytes += uint64(len(fb.b))
	}
	n := e.peer.push(fbs)
	for _, fb := range fbs[n:] {
		bytes -= uint64(len(fb.b))
		framePool.Put(fb)
	}
	if n > 0 {
		e.txPackets.Add(uint64(n))
		e.txBytes.Add(bytes)
	}
	if n < len(fbs) {
		e.drops.Add(uint64(len(fbs) - n))
	}
	return n
}

// enqueueOne is enqueue for a single frame (Send, and what a Host builds).
func (e *Endpoint) enqueueOne(fb *Buffer) bool {
	one := [1]*Buffer{fb}
	return e.enqueue(one[:]) == 1
}

// push appends fbs to this endpoint's inbox, as many as fit, and returns how
// many it took (a prefix of fbs). It never blocks on the receiver.
func (e *Endpoint) push(fbs []*Buffer) int {
	e.inMu.Lock()
	n := min(len(fbs), len(e.ring)-e.queued)
	wasEmpty := e.queued == 0
	tail := e.head + e.queued
	if tail >= len(e.ring) {
		tail -= len(e.ring)
	}
	k := copy(e.ring[tail:], fbs[:n])
	copy(e.ring, fbs[k:n])
	e.queued += n
	e.inMu.Unlock()
	if wasEmpty && n > 0 {
		select {
		case e.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
	return n
}

// pop moves up to MaxBurst frames from the head of the inbox onto burst.
func (e *Endpoint) pop(burst []*Buffer) []*Buffer {
	e.inMu.Lock()
	n := min(e.queued, MaxBurst)
	for i := 0; i < n; i++ {
		burst = append(burst, e.ring[e.head])
		e.ring[e.head] = nil
		if e.head++; e.head == len(e.ring) {
			e.head = 0
		}
	}
	e.queued -= n
	e.inMu.Unlock()
	return burst
}

// deliverLoop drains the inbox in bursts: whatever has accumulated (up to
// MaxBurst), delivered together, and a wait on wake only when there was
// nothing. On a latency-modelled cable each frame carries its own send-time
// deadline, so the loop waits only for the head frame's deadline and then
// delivers every frame already due — a burst of N frames arrives ~Latency
// after it was sent, not N×Latency later the way a per-frame sleep
// serialized it.
func (e *Endpoint) deliverLoop() {
	burst := make([]*Buffer, 0, MaxBurst)
	out := Burst{Frames: make([][]byte, 0, MaxBurst)}
	for {
		select {
		case <-e.stop:
			return
		default:
		}
		burst = e.pop(burst[:0])
		if len(burst) == 0 {
			select {
			case <-e.wake:
			case <-e.stop:
				return
			}
			continue
		}
		for i := 0; i < len(burst); {
			n := len(burst) - i
			if !burst[i].due.IsZero() {
				if d := burst[i].due.Sub(e.net.clk.Now()); d > 0 {
					e.net.clk.Sleep(d)
				}
				// Deliver the prefix already due; frames sent later keep
				// their own deadlines and wait their remaining time on
				// the next pass.
				now := e.net.clk.Now()
				n = 1
				for i+n < len(burst) && !burst[i+n].due.After(now) {
					n++
				}
			}
			e.deliverFrames(burst[i:i+n], &out)
			i += n
		}
	}
}

// deliverFrames hands one due burst to the receiver in a single callback and
// recycles the buffers the receiver did not take. out is the delivery
// goroutine's Burst, reused for every callback.
func (e *Endpoint) deliverFrames(bufs []*Buffer, out *Burst) {
	e.recvMu.RLock()
	recv := e.recv
	e.recvMu.RUnlock()
	if recv == nil || !e.link.up.Load() {
		e.drops.Add(uint64(len(bufs)))
	} else {
		var bytes uint64
		fs := out.Frames[:0]
		for _, fb := range bufs {
			bytes += uint64(len(fb.b))
			fs = append(fs, fb.b)
		}
		e.rxPackets.Add(uint64(len(bufs)))
		e.rxBytes.Add(bytes)
		out.Frames, out.bufs = fs, bufs
		recv(out)
		// Frames must not outlive the callback: drop the aliases before the
		// buffers go back to the pool. Take left nil where a buffer went.
		clear(fs)
		out.bufs = nil
	}
	for _, fb := range bufs {
		if fb != nil {
			framePool.Put(fb)
		}
	}
}

func (e *Endpoint) close() { e.stopped.Do(func() { close(e.stop) }) }

// Stats is a snapshot of endpoint counters.
type Stats struct {
	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
	Drops                uint64
}

// Stats returns the endpoint counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		RxPackets: e.rxPackets.Load(), TxPackets: e.txPackets.Load(),
		RxBytes: e.rxBytes.Load(), TxBytes: e.txBytes.Load(),
		Drops: e.drops.Load(),
	}
}

// String describes the endpoint.
func (e *Endpoint) String() string {
	return fmt.Sprintf("ep(%s, %s)", e.name, e.mac)
}

// Clock returns the network's clock (components attached to endpoints share
// it).
func (n *Network) Clock() clock.Clock { return n.clk }

// Close stops all delivery goroutines. Endpoints become inert.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, e := range n.eps {
		e.close()
	}
}
