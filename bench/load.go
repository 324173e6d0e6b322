package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Load-generator constants. The window stays below the 512-frame inbox of a
// netemu cable, so a full window in one queue still loses nothing: zero loss
// is the expected state of every closed-loop phase.
const (
	windowSize  = 256
	creditBatch = 32
	// drainWait is how long after a phase's last send a datagram may still
	// arrive before it counts as lost.
	drainWait = 200 * time.Millisecond
)

var processStart = time.Now()

// nowNs is the stamp clock: monotonic nanoseconds since the process started.
func nowNs() int64 { return time.Since(processStart).Nanoseconds() }

// receiver is the checking end of a generated stream. accept runs on the
// sink's delivery goroutine; the generator reads results through snapshot.
type receiver struct {
	credits chan int // credit returns, creditBatch at a time

	mu    sync.Mutex
	phase uint8
	next  []uint32 // per flow: lowest sequence number still acceptable
	got   uint64   // datagrams of the current phase that passed every check
	bad   uint64   // datagrams that failed a check, any phase
	pend  int      // accepted since the last credit return
	// reorderOK accepts a datagram that arrives behind a later one of its
	// flow (a reroute overtakes what is still on the old path); duplicates
	// are then the sink's to catch.
	reorderOK bool
	latency   *samples // arrival minus stamp, when the phase records it
	// onAccept, if set, sees every accepted datagram (under mu).
	onAccept func(flow int, seq uint32, at int64)
}

func newReceiver(flows int) *receiver {
	// The channel holds a whole window of returns twice over, so accept
	// never blocks on it.
	return &receiver{credits: make(chan int, 2*windowSize/creditBatch), next: make([]uint32, flows)}
}

// begin starts a phase: datagrams stamped with any other phase are ignored
// from now on. latency may be nil.
func (r *receiver) begin(phase uint8, latency *samples) {
	r.mu.Lock()
	r.phase, r.got, r.pend, r.latency = phase, 0, 0, latency
	r.mu.Unlock()
	for len(r.credits) > 0 {
		<-r.credits
	}
}

// accept checks one arrived datagram: contentOK is the sink's verdict on the
// bytes; accept adds the phase and per-flow sequence checks.
func (r *receiver) accept(flow int, seq uint32, stamp int64, phase uint8, contentOK bool) {
	now := nowNs()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !contentOK || flow >= len(r.next) {
		r.bad++
		return
	}
	if phase != r.phase {
		return // a straggler from a phase already closed and accounted for
	}
	if seq >= r.next[flow] {
		r.next[flow] = seq + 1
	} else if !r.reorderOK {
		r.bad++ // duplicate or reordered within its flow
		return
	}
	r.got++
	if r.latency != nil {
		r.latency.add(now - stamp)
	}
	if r.onAccept != nil {
		r.onAccept(flow, seq, now)
	}
	if r.pend++; r.pend == creditBatch {
		r.pend = 0
		select {
		case r.credits <- creditBatch:
		default:
		}
	}
}

// resetCredits forgets arrivals not yet returned as credits. The caller
// knows the path is empty.
func (r *receiver) resetCredits() {
	r.mu.Lock()
	r.pend = 0
	r.mu.Unlock()
	for len(r.credits) > 0 {
		<-r.credits
	}
}

func (r *receiver) snapshot() (got, bad uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got, r.bad
}

// window is the closed loop's credit account: at most windowSize datagrams
// are in flight, and the generator blocks (it never spins) until the
// receiver hands credits back.
type window struct {
	avail    int
	inFlight int // sent and not yet covered by a returned credit
	maxSeen  int
	stalls   int    // times the generator had to block for credits
	lost     uint64 // datagrams written off so far
}

func newWindow() *window { return &window{avail: windowSize} }

func (w *window) take() {
	w.avail--
	w.inFlight++
	if w.inFlight > w.maxSeen {
		w.maxSeen = w.inFlight
	}
}

func (w *window) give(n int) {
	n = min(n, w.inFlight) // credits for datagrams already written off as lost
	w.avail += n
	w.inFlight -= n
}

// traffic is one generated stream: flows microflows from one generator
// goroutine to one receiver. send transmits one datagram and reports whether
// the first hop took it; flush, if set, pushes out what send has batched.
type traffic struct {
	flows int
	rx    *receiver
	send  func(flow int, seq uint32, stamp int64, phase uint8) bool
	flush func()
	// pick chooses the flow of the i-th datagram of a phase (round robin
	// when nil).
	pick func(i uint64) int

	// unbounded lifts the open loop's cap on datagrams in flight, for
	// streams that expect an outage: what a blackout swallows never arrives.
	unbounded bool

	seq   []uint32 // next sequence number per flow
	phase uint8
}

func newTraffic(flows int) *traffic {
	return &traffic{flows: flows, rx: newReceiver(flows), seq: make([]uint32, flows)}
}

// phaseResult is what one phase of a stream measured.
type phaseResult struct {
	sent, delivered, bad uint64
	wall, cpu            time.Duration
	busy                 time.Duration // closed loop: wall time of the segments, without the probes between them
	mallocs              uint64
	stalls               int
	maxInFlight          int
	// Closed loop, per segment: the probe's reading, delivered per second as
	// measured, and delivered per second and CPU ns per datagram as on the
	// undisturbed machine.
	segSlow, segRawPPS, segPPS, segCPUns []float64
	base, interval                       int64    // open loop: datagram i was due at base + i*interval on the stamp clock
	latency                              *samples // open loop: arrival minus due time
	late                                 *samples // open loop: how late the generator sent
}

func (p phaseResult) lost() uint64 { return p.sent - min(p.delivered, p.sent) }

func (t *traffic) sendNext(i uint64, stamp int64) bool {
	flow := int(i % uint64(t.flows))
	if t.pick != nil {
		flow = t.pick(i)
	}
	seq := t.seq[flow]
	t.seq[flow]++
	return t.send(flow, seq, stamp, t.phase)
}

func (t *traffic) doFlush() {
	if t.flush != nil {
		t.flush()
	}
}

// drain waits until everything sent has arrived or drainWait has passed.
func (t *traffic) drain(sent uint64) {
	deadline := time.Now().Add(drainWait)
	for time.Now().Before(deadline) {
		if got, _ := t.rx.snapshot(); got >= sent {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// segment is the slice the closed loop measures in. After each slice the
// generator lets the path run empty and times the speed probe (probe.go), so
// every slice is a closed-loop run of its own with a reading of the machine's
// speed taken right beside it. Goodput and CPU per datagram are reported as
// medians over the slices, each divided by its reading: a disturbance of the
// machine, short or long, moves the slice and its reading together.
const segment = 100 * time.Millisecond

// settle waits until every datagram sent so far has arrived or been written
// off, for at most drainWait, and returns how many have arrived. The path is
// then empty: the window and the receiver's credit account start afresh.
func (t *traffic) settle(sent uint64, w *window) uint64 {
	t.doFlush()
	deadline := time.Now().Add(drainWait)
	got, _ := t.rx.snapshot()
	for got+w.lost < sent && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		got, _ = t.rx.snapshot()
	}
	w.lost = sent - min(got, sent)
	t.rx.resetCredits()
	w.give(w.inFlight)
	return got
}

// closedLoop sends for d under the credit window, a segment at a time, and
// reports goodput figures. A window that stays shut for drainWait has lost
// datagrams: they are written off as lost and the window reopens, so a lossy
// warm-up cannot wedge the generator.
func (t *traffic) closedLoop(d time.Duration) phaseResult {
	t.phase++
	t.rx.begin(t.phase, nil)
	w := newWindow()
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	var res phaseResult
	_, bad0 := t.rx.snapshot()
	mallocs0, cpu0, start := mallocCount(), cpuTime(), time.Now()
	deadline := start.Add(d)
	var i uint64
	for segStart := start; segStart.Before(deadline); segStart = time.Now() {
		segEnd := segStart.Add(segment)
		if segEnd.After(deadline) {
			segEnd = deadline
		}
		segCPU, got0 := cpuTime(), res.delivered
		for ; i%creditBatch != 0 || time.Now().Before(segEnd); i++ {
			for w.avail == 0 {
				t.doFlush()
				select {
				case n := <-t.rx.credits:
					w.give(n)
					continue
				default:
				}
				w.stalls++
				timeout.Reset(drainWait)
				select {
				case n := <-t.rx.credits:
					w.give(n)
				case <-timeout.C:
					w.give(w.inFlight)
				}
			}
			t.sendNext(i, nowNs())
			w.take()
			res.sent++
		}
		res.delivered = t.settle(res.sent, w)
		wall, cpu := time.Since(segStart), cpuTime()-segCPU
		res.busy += wall
		slow := slowdown()
		if n := res.delivered - got0; n > 0 {
			res.segSlow = append(res.segSlow, slow)
			res.segRawPPS = append(res.segRawPPS, float64(n)/wall.Seconds())
			res.segPPS = append(res.segPPS, float64(n)/wall.Seconds()*slow)
			res.segCPUns = append(res.segCPUns, float64(cpu.Nanoseconds())/float64(n)/slow)
		}
	}
	res.wall, res.cpu = time.Since(start), cpuTime()-cpu0
	res.mallocs = mallocCount() - mallocs0
	var bad uint64
	res.delivered, bad = t.rx.snapshot()
	res.bad = bad - bad0
	res.stalls, res.maxInFlight = w.stalls, w.maxSeen
	return res
}

// openLoop sends rate datagrams per second for d, each stamped with the time
// it was due, whether or not earlier ones have arrived; the receiver times
// each from that stamp, so a stall shows in the latency of everything queued
// behind it. The generator reports its own lateness.
func (t *traffic) openLoop(rate float64, d time.Duration) phaseResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tightenTimerSlack()
	t.phase++
	n := int(rate * d.Seconds())
	res := phaseResult{latency: newSamples(n), late: newSamples(n), interval: int64(float64(time.Second) / rate)}
	t.rx.begin(t.phase, res.latency)
	_, bad0 := t.rx.snapshot()
	mallocs0, cpu0, start := mallocCount(), cpuTime(), time.Now()
	res.base = nowNs()
	var lost uint64 // datagrams written off so far
	for i := 0; i < n; {
		now := nowNs()
		due := res.base + int64(i)*res.interval
		if now < due {
			t.doFlush()
			threadSleep(time.Duration(due - now))
			continue
		}
		if i%creditBatch == 0 && !t.unbounded {
			// Open loop, but not past what the cables can queue: a generator
			// that was stalled (descheduled for tens of milliseconds, say)
			// catches up window by window instead of overrunning an inbox.
			// The wait counts as lateness like any other. What has not
			// arrived after drainWait never will: it is written off.
			waitUntil := now + int64(drainWait)
			for got, _ := t.rx.snapshot(); res.sent-got-lost > windowSize; got, _ = t.rx.snapshot() {
				if nowNs() > waitUntil {
					lost = res.sent - got
					break
				}
				threadSleep(50 * time.Microsecond)
			}
			now = nowNs()
		}
		res.late.add(now - due)
		t.sendNext(uint64(i), due)
		res.sent++
		i++
	}
	t.doFlush()
	t.drain(res.sent)
	res.wall, res.cpu = time.Since(start), cpuTime()-cpu0
	res.mallocs = mallocCount() - mallocs0
	var bad uint64
	res.delivered, bad = t.rx.snapshot()
	res.bad = bad - bad0
	t.rx.begin(t.phase, nil) // stop recording: stragglers must not touch the samples
	return res
}

// threadSleep blocks the calling thread in nanosleep(2). The Go runtime's
// own timers are rounded up to a millisecond whenever its threads idle in
// epoll, ten times the gap between two datagrams at the fixed rate; a thread
// of its own sleeping on a kernel timer wakes within tens of microseconds.
// The caller has locked its goroutine to the thread.
func threadSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the caller check the time again
}

// tightenTimerSlack asks the kernel not to round the calling thread's timers
// for power saving (the default slack is 50 us).
func tightenTimerSlack() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: the default only makes the generator later
}
