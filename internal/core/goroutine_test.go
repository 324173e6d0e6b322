package core

import (
	"runtime"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/topo"
)

// goroutinesPerSwitch bounds what a converged deployment keeps running per
// switch: the reader and the writer of each openflow.Conn of its control
// sessions through FlowVisor to each controller, the controllers'
// keepalives, its cables' delivery loops, its OSPF timer loop and the
// switch's own loops. This ring reads 20.6 per switch. A timer is a runtime
// timer, never a goroutine of its own; timers that each kept a goroutine put
// it at about 28 per switch, and a per-session goroutine that watched for
// Stop at 21.6.
const goroutinesPerSwitch = 21

// TestConvergedRingGoroutineBudget: a converged Ring(8) on the scaled clock
// holds at most goroutinesPerSwitch goroutines per switch.
func TestConvergedRingGoroutineBudget(t *testing.T) {
	const n = 8
	before := runtime.NumGoroutine()
	d, err := NewDeployment(Options{Topology: topo.Ring(n), HostNodes: []int{0, n / 2}, Clock: clock.Scaled(25)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Settle: the fewest goroutines seen over a protocol-second, so that a
	// transient one (a flood, a reply in flight) is not counted.
	least := runtime.NumGoroutine()
	for range 20 {
		d.Clock().Sleep(50 * time.Millisecond)
		least = min(least, runtime.NumGoroutine())
	}
	perSwitch := float64(least-before) / n
	t.Logf("%d goroutines over %d switches: %.1f per switch", least-before, n, perSwitch)
	if perSwitch > goroutinesPerSwitch {
		t.Fatalf("%.1f goroutines per switch, budget %d", perSwitch, goroutinesPerSwitch)
	}
}
