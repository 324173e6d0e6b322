package routeflow

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"routeflow/internal/discovery"
	"routeflow/internal/ospf"
	"routeflow/internal/rf"
	"routeflow/internal/vnet"
)

// fastRun compresses time hard so facade tests stay quick.
var fastRun = []Option{WithTimeScale(400)}

func TestFacadeTopologies(t *testing.T) {
	if Ring(8).NumNodes() != 8 || PanEuropean().NumNodes() != 28 {
		t.Fatal("topology constructors broken")
	}
	if Line(3).NumLinks() != 2 || Star(4).NumLinks() != 3 || Grid(2, 2).NumLinks() != 4 {
		t.Fatal("generators broken")
	}
	if !Random(10, 15, 1).Connected() {
		t.Fatal("random disconnected")
	}
	if DPIDForNode(3) != 4 {
		t.Fatal("dpid mapping")
	}
	if HostSubnet(1).String() != "10.2.0.0/24" {
		t.Fatal("host subnet")
	}
}

func TestManualModelFacade(t *testing.T) {
	if DefaultManualModel().Total(28) != 7*time.Hour {
		t.Fatal("manual model")
	}
}

func TestRunFig3PointShape(t *testing.T) {
	row, err := runFig3Point(4, fastRun)
	if err != nil {
		t.Fatal(err)
	}
	if row.Switches != 4 {
		t.Fatalf("row = %+v", row)
	}
	if row.Auto <= 0 || row.AutoRouted < row.Auto {
		t.Fatalf("auto times inconsistent: %+v", row)
	}
	if row.Manual != 4*15*time.Minute {
		t.Fatalf("manual = %v", row.Manual)
	}
	// The paper's central claim: automatic is dramatically faster.
	if row.AutoRouted >= row.Manual {
		t.Fatalf("automatic (%v) not faster than manual (%v)", row.AutoRouted, row.Manual)
	}
}

func TestPrintFig3(t *testing.T) {
	var buf bytes.Buffer
	printFig3(&buf, []Fig3Row{{Switches: 4, Auto: 3 * time.Second,
		AutoRouted: 20 * time.Second, Manual: time.Hour}})
	out := buf.String()
	if !strings.Contains(out, "switches") || !strings.Contains(out, "180x") {
		t.Fatalf("fig3 output:\n%s", out)
	}
}

func TestDashboardFacade(t *testing.T) {
	dash := NewDashboard(Ring(3))
	if dash.GreenCount() != 0 || len(dash.Statuses()) != 3 {
		t.Fatal("dashboard facade broken")
	}
}

// TestRunDefaultsArePaperConditions: Run documents its zero configuration
// as the paper's conditions, which is what the packages default to when an
// option is left unset.
func TestRunDefaultsArePaperConditions(t *testing.T) {
	timers := DefaultExperimentTimers()
	if timers.Hello != ospf.DefaultHelloInterval || timers.Dead != ospf.DefaultDeadInterval ||
		timers.SPFDelay != ospf.DefaultSPFDelay {
		t.Fatalf("experiment timers %+v are not ospfd's defaults", timers)
	}
	if rf.DefaultBootDelay != 2*time.Second || discovery.DefaultProbeInterval != time.Second ||
		discovery.DefaultLinkTTL != 3*time.Second {
		t.Fatalf("boot %v, probe %v, link TTL %v: not the paper's 2 s, 1 s, 3 s",
			rf.DefaultBootDelay, discovery.DefaultProbeInterval, discovery.DefaultLinkTTL)
	}
}

// TestRunTakesNewOptions: the options given to Run reach the deployment it
// builds, and a scenario, which carries its own configuration, refuses them.
func TestRunTakesNewOptions(t *testing.T) {
	var mu sync.Mutex
	up := map[uint64]bool{}
	report, err := Run(Fig3Run{Sizes: []int{3}}, WithTimeScale(400),
		WithOnStatus(func(dpid uint64, st VMState) {
			mu.Lock()
			defer mu.Unlock()
			if st == vnet.StateUp {
				up[dpid] = true
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(report.Fig3) != 1 || len(up) != 3 {
		t.Fatalf("report %+v, %d switches reported up, want 3", report.Fig3, len(up))
	}
	if _, err := Run(ScenarioRun{Spec: ScenarioSpec{Name: "opts", Topology: Ring(3)}},
		WithTimeScale(400)); err == nil {
		t.Fatal("ScenarioRun accepted options")
	}
}

// TestShardingDividesSerializedApply is the distributed RF-controller's
// scaling gate: with the paper's per-message RPC server work modeled inside
// each replica's apply lock, four replicas configure an ASRing(4, 3) — 12
// switches in 4 shard groups — at least 1.5× faster than one, because one
// controller serializes that work across all 12 switches while each of four
// serves only its own shard. The modeled work (1 protocol-s per message) is
// large enough that host load, which a scaled clock reads as protocol time,
// cannot close the gap: ≈2.7× on an idle host, where 400 ms per message
// gave ≈1.9× and read 1.48× in a loaded -race run.
func TestShardingDividesSerializedApply(t *testing.T) {
	// Configured, not converged: the gate is about the apply path, and BGP
	// convergence would also expose it to the OpenConfirm wedge.
	configured := func(replicas int) time.Duration {
		d, err := New(ASRing(4, 3), WithTimeScale(25),
			WithReplicas(replicas), WithRPCApplyDelay(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		took, err := d.AwaitConfigured(30 * time.Minute)
		if err != nil {
			t.Fatalf("replicas=%d: %v", replicas, err)
		}
		return took
	}
	one, four := configured(1), configured(4)
	t.Logf("configured: 1 replica %v, 4 replicas %v (%.2fx)", one, four, float64(one)/float64(four))
	if float64(one) < 1.5*float64(four) {
		t.Fatalf("4 replicas configured in %v, 1 in %v: less than 1.5x faster", four, one)
	}
}
