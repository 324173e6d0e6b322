// Package clock abstracts time so that every protocol timer in the system
// (OSPF hello/dead intervals, LLDP probe periods, VM boot delays, RPC
// retries) can run against a real clock, a scaled clock that compresses
// experiments, or a manually stepped fake clock for deterministic tests.
//
// The scaled clock is the reproduction's substitute for wall-clock hours:
// dividing every timer by a common factor preserves the ordering and the
// relative magnitudes of all protocol events, so convergence behaviour is
// unchanged while the experiment itself finishes quickly. Durations measured
// on a scaled clock are reported back in protocol time (multiplied by the
// factor) by the experiment harness.
//
// A scaled clock's timers and tickers are runtime timers with shrunken
// durations: they start no goroutine, and their channels deliver the wall
// time of the fire, not protocol time. The value a timer, ticker or After
// channel delivers is therefore not protocol time on every clock; a caller
// that needs the time of a fire reads Now.
package clock

import (
	"sync"
	"time"
)

// Clock is the time source used by every component in the system.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that fires after d of this clock's time.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks for d of this clock's time.
	Sleep(d time.Duration)
	// NewTicker returns a ticker firing every d of this clock's time.
	NewTicker(d time.Duration) Ticker
	// NewTimer returns a timer firing once after d of this clock's time.
	NewTimer(d time.Duration) Timer
	// Since returns the time elapsed on this clock since t.
	Since(t time.Time) time.Duration
}

// Ticker is the clock-agnostic analogue of time.Ticker.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Timer is the clock-agnostic analogue of time.Timer.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// System returns the real wall clock.
func System() Clock { return systemClock{} }

type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (systemClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (systemClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (systemClock) NewTicker(d time.Duration) Ticker       { return sysTicker{time.NewTicker(d)} }
func (systemClock) NewTimer(d time.Duration) Timer         { return sysTimer{time.NewTimer(d)} }

type sysTicker struct{ t *time.Ticker }

func (s sysTicker) C() <-chan time.Time { return s.t.C }
func (s sysTicker) Stop()               { s.t.Stop() }

type sysTimer struct{ t *time.Timer }

func (s sysTimer) C() <-chan time.Time        { return s.t.C }
func (s sysTimer) Stop() bool                 { return s.t.Stop() }
func (s sysTimer) Reset(d time.Duration) bool { return s.t.Reset(d) }

// Scaled returns a clock that runs factor times faster than the real clock:
// Sleep(10s) on a Scaled(100) clock blocks for 100ms of wall time, and Now
// advances 100 times faster from the moment the clock was created. A factor
// of 1 (or less) behaves like the system clock. Scale durations reported by
// components running on this clock back to protocol time with Unscale.
func Scaled(factor float64) Clock {
	if factor <= 1 {
		return System()
	}
	return &scaledClock{factor: factor, base: time.Now()}
}

type scaledClock struct {
	factor float64
	base   time.Time
}

func (c *scaledClock) Now() time.Time {
	real := time.Since(c.base)
	return c.base.Add(time.Duration(float64(real) * c.factor))
}

func (c *scaledClock) shrink(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	s := time.Duration(float64(d) / c.factor)
	if s <= 0 {
		s = time.Nanosecond
	}
	return s
}

func (c *scaledClock) After(d time.Duration) <-chan time.Time { return time.After(c.shrink(d)) }
func (c *scaledClock) Sleep(d time.Duration)                  { time.Sleep(c.shrink(d)) }
func (c *scaledClock) Since(t time.Time) time.Duration        { return c.Now().Sub(t) }

func (c *scaledClock) NewTicker(d time.Duration) Ticker {
	return sysTicker{time.NewTicker(c.shrink(d))}
}

func (c *scaledClock) NewTimer(d time.Duration) Timer {
	return scaledTimer{sysTimer{time.NewTimer(c.shrink(d))}, c}
}

// scaledTimer is a runtime timer whose Reset takes protocol time.
type scaledTimer struct {
	sysTimer
	clk *scaledClock
}

func (s scaledTimer) Reset(d time.Duration) bool { return s.t.Reset(s.clk.shrink(d)) }

// Fake is a manually stepped clock for deterministic tests. Time advances
// only through Advance or AdvanceTo; timers and tickers fire synchronously
// inside those calls, in timestamp order.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
	seq     int
}

// fakeWaiter is one timer or ticker. It is armed exactly while it is in its
// clock's waiter list: Stop and a one-shot fire take it out, Reset puts it
// back.
type fakeWaiter struct {
	clk    *Fake
	when   time.Time
	period time.Duration // 0 for one-shot timers
	ch     chan time.Time
	seq    int
	armed  bool // in clk.waiters
}

// NewFake returns a Fake clock starting at a fixed, arbitrary epoch so tests
// are reproducible.
func NewFake() *Fake {
	return &Fake{now: time.Date(2013, 8, 12, 0, 0, 0, 0, time.UTC)}
}

// Now returns the fake clock's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns the fake time elapsed since t.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// After returns a channel that fires when the fake clock passes now+d.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.NewTimer(d).C()
}

// Sleep blocks until the fake clock has been advanced past now+d by another
// goroutine. Calling Sleep from the same goroutine that drives Advance
// deadlocks by construction; tests should use separate goroutines.
func (f *Fake) Sleep(d time.Duration) { <-f.After(d) }

// NewTimer returns a one-shot timer on the fake clock.
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.addWaiterLocked(d, 0)
	return (*fakeTimer)(w)
}

// NewTicker returns a periodic ticker on the fake clock.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.addWaiterLocked(d, d)
	return (*fakeTicker)(w)
}

func (f *Fake) addWaiterLocked(d, period time.Duration) *fakeWaiter {
	f.seq++
	w := &fakeWaiter{
		clk:    f,
		when:   f.now.Add(d),
		period: period,
		ch:     make(chan time.Time, 1),
		seq:    f.seq,
	}
	f.armLocked(w)
	return w
}

func (f *Fake) armLocked(w *fakeWaiter) {
	w.armed = true
	f.waiters = append(f.waiters, w)
}

// Advance moves the fake clock forward by d, firing due timers and tickers
// in order.
func (f *Fake) Advance(d time.Duration) { f.AdvanceTo(f.Now().Add(d)) }

// AdvanceTo moves the fake clock to t (no-op if t is in the past), firing due
// timers and tickers in order.
func (f *Fake) AdvanceTo(t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		w := f.nextDueLocked(t)
		if w == nil {
			break
		}
		f.now = w.when
		select {
		case w.ch <- w.when:
		default: // receiver not keeping up; drop like time.Ticker does
		}
		if w.period > 0 {
			w.when = w.when.Add(w.period)
		} else {
			f.removeLocked(w)
		}
	}
	if t.After(f.now) {
		f.now = t
	}
}

func (f *Fake) nextDueLocked(limit time.Time) *fakeWaiter {
	var best *fakeWaiter
	for _, w := range f.waiters {
		if w.when.After(limit) {
			continue
		}
		if best == nil || w.when.Before(best.when) ||
			(w.when.Equal(best.when) && w.seq < best.seq) {
			best = w
		}
	}
	return best
}

// removeLocked disarms w if it is armed.
func (f *Fake) removeLocked(w *fakeWaiter) {
	if !w.armed {
		return
	}
	w.armed = false
	for i, cand := range f.waiters {
		if cand == w {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return
		}
	}
}

// Pending reports how many timers/tickers are armed; useful in tests.
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

type fakeTimer fakeWaiter

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Stop() bool {
	w := (*fakeWaiter)(t)
	w.clk.mu.Lock()
	defer w.clk.mu.Unlock()
	was := w.armed
	w.clk.removeLocked(w)
	return was
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	w := (*fakeWaiter)(t)
	w.clk.mu.Lock()
	defer w.clk.mu.Unlock()
	was := w.armed
	w.when = w.clk.now.Add(d)
	if !was {
		w.clk.armLocked(w)
	}
	return was
}

type fakeTicker fakeWaiter

func (t *fakeTicker) C() <-chan time.Time { return t.ch }

func (t *fakeTicker) Stop() {
	w := (*fakeWaiter)(t)
	w.clk.mu.Lock()
	defer w.clk.mu.Unlock()
	w.clk.removeLocked(w)
}
