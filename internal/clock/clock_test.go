package clock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSystemNowAdvances(t *testing.T) {
	c := System()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	if !c.Now().After(a) {
		t.Fatal("system clock did not advance")
	}
}

func TestSystemSince(t *testing.T) {
	c := System()
	start := c.Now()
	time.Sleep(time.Millisecond)
	if c.Since(start) <= 0 {
		t.Fatal("Since returned non-positive duration")
	}
}

func TestScaledFactorOneIsSystem(t *testing.T) {
	if _, ok := Scaled(1).(systemClock); !ok {
		t.Fatal("Scaled(1) should return the system clock")
	}
	if _, ok := Scaled(0).(systemClock); !ok {
		t.Fatal("Scaled(0) should return the system clock")
	}
}

func TestScaledSleepCompresses(t *testing.T) {
	c := Scaled(100)
	start := time.Now()
	c.Sleep(500 * time.Millisecond) // should take ~5ms of wall time
	wall := time.Since(start)
	if wall > 200*time.Millisecond {
		t.Fatalf("scaled sleep took %v wall time, want ~5ms", wall)
	}
}

func TestScaledNowRunsFast(t *testing.T) {
	c := Scaled(1000)
	a := c.Now()
	time.Sleep(5 * time.Millisecond)
	elapsed := c.Since(a)
	if elapsed < 1*time.Second {
		t.Fatalf("scaled clock advanced only %v in 5ms wall, want >= 1s", elapsed)
	}
}

func TestScaledTimerFires(t *testing.T) {
	c := Scaled(100)
	tm := c.NewTimer(time.Second)
	select {
	case <-tm.C():
	case <-time.After(2 * time.Second):
		t.Fatal("scaled timer did not fire")
	}
}

func TestScaledTickerFires(t *testing.T) {
	c := Scaled(100)
	tk := c.NewTicker(500 * time.Millisecond)
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-tk.C():
		case <-time.After(2 * time.Second):
			t.Fatalf("scaled ticker tick %d did not arrive", i)
		}
	}
}

func TestScaledAfter(t *testing.T) {
	c := Scaled(50)
	select {
	case <-c.After(200 * time.Millisecond):
	case <-time.After(2 * time.Second):
		t.Fatal("scaled After did not fire")
	}
}

func TestScaledTimerStopAndReset(t *testing.T) {
	c := Scaled(10)
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	tm.Reset(100 * time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(2 * time.Second):
		t.Fatal("reset timer did not fire")
	}
}

func TestFakeStartsAtFixedEpoch(t *testing.T) {
	a, b := NewFake(), NewFake()
	if !a.Now().Equal(b.Now()) {
		t.Fatal("two fake clocks should start at the same instant")
	}
}

func TestFakeAdvanceMovesNow(t *testing.T) {
	f := NewFake()
	start := f.Now()
	f.Advance(42 * time.Second)
	if got := f.Since(start); got != 42*time.Second {
		t.Fatalf("Since = %v, want 42s", got)
	}
}

func TestFakeAdvanceToPastIsNoop(t *testing.T) {
	f := NewFake()
	now := f.Now()
	f.AdvanceTo(now.Add(-time.Hour))
	if !f.Now().Equal(now) {
		t.Fatal("AdvanceTo into the past must not rewind the clock")
	}
}

func TestFakeTimerFiresOnAdvance(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(10 * time.Second)
	f.Advance(9 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired early")
	default:
	}
	f.Advance(time.Second)
	select {
	case ts := <-tm.C():
		if got := ts.Sub(NewFake().Now()); got != 10*time.Second {
			t.Fatalf("fired at +%v, want +10s", got)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestFakeTimerStop(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer should be true")
	}
	f.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Stop() {
		t.Fatal("second Stop should be false")
	}
}

func TestFakeTimerResetAfterFire(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(time.Second)
	f.Advance(time.Second)
	<-tm.C()
	if tm.Reset(time.Second) {
		t.Fatal("Reset after fire should report false")
	}
	f.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire again")
	}
}

// TestFakeTimerResetAfterStopFires: Reset re-arms a stopped timer, as it
// does a fired one, and the clock counts it as pending again.
func TestFakeTimerResetAfterStopFires(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop of an armed timer should report true")
	}
	if n := f.Pending(); n != 0 {
		t.Fatalf("pending after Stop = %d, want 0", n)
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset after Stop should report false")
	}
	if n := f.Pending(); n != 1 {
		t.Fatalf("pending after Reset = %d, want 1", n)
	}
	f.Advance(2 * time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("timer reset after Stop never fired")
	}
	if n := f.Pending(); n != 0 {
		t.Fatalf("pending after the fire = %d, want 0", n)
	}
}

func TestFakeTickerPeriodic(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(5 * time.Second)
	defer tk.Stop()
	for i := 1; i <= 4; i++ {
		f.Advance(5 * time.Second)
		select {
		case <-tk.C():
		default:
			t.Fatalf("tick %d missing", i)
		}
	}
}

func TestFakeTickerDropsWhenSlow(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Second)
	defer tk.Stop()
	f.Advance(10 * time.Second) // receiver never drains: only 1 buffered tick
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("got %d buffered ticks, want 1 (others dropped)", n)
	}
}

func TestFakeTickerStopRemovesWaiter(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Second)
	if f.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", f.Pending())
	}
	tk.Stop()
	if f.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", f.Pending())
	}
	tk.Stop() // idempotent
}

func TestFakeFiringOrder(t *testing.T) {
	f := NewFake()
	var order []int
	t1 := f.NewTimer(3 * time.Second)
	t2 := f.NewTimer(1 * time.Second)
	t3 := f.NewTimer(2 * time.Second)
	f.Advance(5 * time.Second)
	drain := func(id int, tm Timer) {
		select {
		case <-tm.C():
			order = append(order, id)
		default:
		}
	}
	// All have fired; the channel sends happened in timestamp order during
	// Advance. Verify each fired exactly once.
	drain(2, t2)
	drain(3, t3)
	drain(1, t1)
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 1 {
		t.Fatalf("fire order = %v, want [2 3 1]", order)
	}
}

func TestFakeSleepUnblocksOnAdvance(t *testing.T) {
	f := NewFake()
	done := make(chan struct{})
	go func() {
		f.Sleep(30 * time.Second)
		close(done)
	}()
	// Let the sleeper arm its timer.
	for f.Pending() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	f.Advance(30 * time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not unblock after Advance")
	}
}

// Property: for any sequence of positive advances, a fake timer fires exactly
// when cumulative time passes its deadline, never before.
func TestFakeTimerNeverFiresEarlyQuick(t *testing.T) {
	prop := func(deadlineMs uint16, stepsMs []uint8) bool {
		f := NewFake()
		deadline := time.Duration(deadlineMs%5000+1) * time.Millisecond
		tm := f.NewTimer(deadline)
		var cum time.Duration
		for _, s := range stepsMs {
			step := time.Duration(s%50+1) * time.Millisecond
			f.Advance(step)
			cum += step
			fired := false
			select {
			case <-tm.C():
				fired = true
			default:
			}
			if fired && cum < deadline {
				return false // fired early
			}
			if fired {
				return true
			}
		}
		return cum < deadline // if never fired, we must not have reached it
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ticker on a fake clock fires floor(total/period) times when
// advanced in one-period steps and drained after each step.
func TestFakeTickerCountQuick(t *testing.T) {
	prop := func(periodMs uint8, n uint8) bool {
		f := NewFake()
		period := time.Duration(periodMs%20+1) * time.Millisecond
		steps := int(n%30) + 1
		tk := f.NewTicker(period)
		defer tk.Stop()
		got := 0
		for i := 0; i < steps; i++ {
			f.Advance(period)
			select {
			case <-tk.C():
				got++
			default:
			}
		}
		return got == steps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
