package routeflow

// Tests of the public API: functional options build the same Options a
// struct literal does, New deploys, the Run dispatcher routes every spec
// variant, and ScenarioExitCode never lets an invariant violation exit 0.

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

func TestFunctionalOptionsMatchStructLiteral(t *testing.T) {
	g := Ring(4)
	want := Options{
		Topology:      g,
		Pool:          netip.MustParsePrefix("172.20.0.0/16"),
		HostNodes:     []int{0, 2},
		BootDelay:     time.Second,
		Timers:        DefaultExperimentTimers(),
		ProbeInterval: 100 * time.Millisecond,
		LinkTTL:       300 * time.Millisecond,
		RPCDropRate:   0.25,
		RPCDropSeed:   7,
		ResyncProbe:   150 * time.Millisecond,
		Cluster:       ClusterSpec{Replicas: 3, LeaseTTL: time.Second, LeaseRenew: 200 * time.Millisecond},
		RPCApplyDelay: 10 * time.Millisecond,
	}
	opts := []Option{
		WithPool(netip.MustParsePrefix("172.20.0.0/16")),
		WithHosts(0, 2),
		WithBootDelay(time.Second),
		WithTimers(DefaultExperimentTimers()),
		WithProbeInterval(100 * time.Millisecond),
		WithLinkTTL(300 * time.Millisecond),
		WithRPCDropRate(0.25, 7),
		WithResyncProbe(150 * time.Millisecond),
		WithCluster(ClusterSpec{Replicas: 3, LeaseTTL: time.Second, LeaseRenew: 200 * time.Millisecond}),
		WithRPCApplyDelay(10 * time.Millisecond),
	}
	got := Options{Topology: g}
	for _, o := range opts {
		o(&got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("functional options diverge from the struct literal:\ngot  %+v\nwant %+v", got, want)
	}

	// Later options override earlier ones, and the shorthands expand as
	// documented.
	var o Options
	WithReplicas(2)(&o)
	WithReplicas(4)(&o)
	if o.Cluster != (ClusterSpec{Replicas: 4}) {
		t.Fatalf("WithReplicas override = %+v", o.Cluster)
	}
	var scaled Options
	WithTimeScale(50)(&scaled)
	if scaled.Clock == nil {
		t.Fatal("WithTimeScale installed no clock")
	}
}

// TestNewAndDeprecatedShimBothDeploy builds a tiny ring through New and
// drives it to full configuration. The struct-literal NewDeployment shim it
// once also exercised is gone; the functional-options leg keeps its name.
func TestNewAndDeprecatedShimBothDeploy(t *testing.T) {
	t.Run("functional-options", func(t *testing.T) {
		d, err := New(Ring(3), WithTimeScale(400), WithHosts(0))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AwaitConfigured(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRunDispatcherFig3(t *testing.T) {
	report, err := Run(Fig3Run{Sizes: []int{4}}, WithTimeScale(400))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Fig3) != 1 || report.Fig3[0].Switches != 4 {
		t.Fatalf("report = %+v", report)
	}
	var buf bytes.Buffer
	report.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("switches")) {
		t.Fatalf("print:\n%s", buf.String())
	}
}

// TestRunDispatcherDemo runs the §3 demonstration: the stream that starts
// before the cold network is up reaches its client, timed on the
// deployment's clock. (At 10× the 28-switch boot also keeps up under -race.)
func TestRunDispatcherDemo(t *testing.T) {
	report, err := Run(DemoRun{}, WithTimeScale(10))
	if err != nil {
		t.Fatal(err)
	}
	demo := report.Demo
	if demo.Switches != 28 || len(demo.Streams) != 1 {
		t.Fatalf("demo = %+v", demo)
	}
	st := demo.Streams[0]
	if st.VideoStats.Frames == 0 || st.FirstVideo <= 0 || st.FirstVideo > demo.AllVideo {
		t.Fatalf("stream %+v against all video at %v", st, demo.AllVideo)
	}
}

func TestRunDispatcherScenario(t *testing.T) {
	report, err := Run(ScenarioRun{Spec: ScenarioSpec{
		Name:      "api-dispatch",
		Topology:  Ring(4),
		HostNodes: []int{0, 2},
		Seed:      1,
		Faults:    []ScenarioFault{{Kind: FaultLinkDown, Link: 0}, {Kind: FaultLinkUp, Link: 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Scenario == nil || !report.Scenario.AllOK() {
		t.Fatalf("scenario report = %+v", report.Scenario)
	}
	if code := ScenarioExitCode(report.Scenario, nil); code != 0 {
		t.Fatalf("exit code %d for a clean run", code)
	}
}

func TestRunDispatcherRejectsNilSpec(t *testing.T) {
	if _, err := Run(nil); err == nil {
		t.Fatal("nil spec accepted")
	}
}

// Regression for the rfchaos bug: a scenario whose invariants fail inside a
// settle retry completes without a harness error, and the old CLI path
// exited 0 on it. ScenarioExitCode must report 1 for every failure shape.
func TestScenarioExitCode(t *testing.T) {
	clean := &ScenarioResult{Phases: []ScenarioPhase{
		{Fault: "initial", Checks: []ScenarioCheck{{Name: "no-blackhole", OK: true}}},
	}}
	violated := &ScenarioResult{Phases: []ScenarioPhase{
		{Fault: "initial", Checks: []ScenarioCheck{{Name: "no-blackhole", OK: true}}},
		{Fault: "link-down 0", Checks: []ScenarioCheck{
			{Name: "no-loop", OK: true},
			{Name: "flow-consistency", OK: false, Detail: "node 2: stale flow"},
		}},
	}}
	for _, tc := range []struct {
		name string
		res  *ScenarioResult
		err  error
		want int
	}{
		{"all-ok", clean, nil, 0},
		{"invariant-violated", violated, nil, 1},
		{"harness-error", nil, errors.New("deploy failed"), 1},
		{"error-with-result", clean, errors.New("teardown failed"), 1},
		{"no-result-no-error", nil, nil, 1},
	} {
		if got := ScenarioExitCode(tc.res, tc.err); got != tc.want {
			t.Errorf("%s: exit code = %d, want %d", tc.name, got, tc.want)
		}
	}
}
