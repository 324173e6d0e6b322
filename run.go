package routeflow

import (
	"fmt"
	"io"

	"routeflow/internal/scenario"
)

// RunSpec selects one experiment for Run. The interface is sealed: the
// variants are Fig3Run, MultiASRun, DemoRun and ScenarioRun.
type RunSpec interface{ runSpec() }

// Fig3Run regenerates the paper's Fig. 3 series: automatic vs. manual
// configuration time over a sweep of ring sizes.
type Fig3Run struct {
	// Sizes are the ring sizes to sweep (default the paper's 4..28 step 4).
	Sizes []int
}

// MultiASRun runs the inter-domain scaling experiment: cold-boot time to
// full eBGP/iBGP convergence over a ring of ring-shaped ASes.
type MultiASRun struct {
	// ASCounts are the AS counts to sweep (default 2, 3, 4).
	ASCounts []int
	// ASSize is the per-AS switch count (default 3).
	ASSize int
}

// DemoRun reproduces the paper's §3 demonstration: the pan-European
// topology boots cold while video streams across it.
type DemoRun struct {
	// Streams lists (server node, client node) pairs, all started at t=0.
	// Empty runs the paper's single Lisbon → Stockholm stream.
	Streams [][2]int
}

// ScenarioRun executes one chaos scenario: build the deployment, inject the
// fault schedule, converge at every quiesce point and evaluate the invariant
// battery (no-blackhole, no-loop, flow-table consistency, stream
// continuity). The spec is self-contained (topology, fault schedule, timing,
// cluster), so Run refuses options alongside it. The same spec (same seed)
// produces a byte-identical event log.
type ScenarioRun struct {
	Spec ScenarioSpec
}

func (Fig3Run) runSpec()     {}
func (MultiASRun) runSpec()  {}
func (DemoRun) runSpec()     {}
func (ScenarioRun) runSpec() {}

// RunReport is the outcome of Run: exactly one section is populated,
// matching the spec variant that was executed.
type RunReport struct {
	Fig3     []Fig3Row
	MultiAS  []MultiASRow
	Demo     *DemoResult
	Scenario *ScenarioResult
}

// Print renders whichever section the executed spec produced.
func (r *RunReport) Print(w io.Writer) {
	switch {
	case r == nil:
	case r.Fig3 != nil:
		printFig3(w, r.Fig3)
	case r.MultiAS != nil:
		printMultiAS(w, r.MultiAS)
	case r.Demo != nil:
		printDemo(w, r.Demo)
	case r.Scenario != nil:
		printScenario(w, r.Scenario)
	}
}

// Run executes one experiment, the only way the CLIs, examples and tests
// run one. Every deployment it builds is New(topology, opts...): the
// options are New's, and the zero configuration is the paper's conditions
// (RFC OSPF timers, 1 s LLDP probes, a 2 s modeled VM boot) at a 50× time
// compression. The experiment's own topology and host attachments override
// any the options set.
//
//	report, err := routeflow.Run(routeflow.Fig3Run{Sizes: []int{4, 8}},
//	        routeflow.WithTimeScale(200), routeflow.WithReplicas(2))
//
// A scenario's error covers harness failures only; invariant violations
// are reported in RunReport.Scenario (see ScenarioExitCode).
func Run(spec RunSpec, opts ...Option) (*RunReport, error) {
	if _, ok := spec.(ScenarioRun); ok && len(opts) > 0 {
		return nil, fmt.Errorf("routeflow: a ScenarioRun is configured by its spec, not by options")
	}
	opts = append([]Option{WithTimeScale(50)}, opts...)
	switch s := spec.(type) {
	case Fig3Run:
		sizes := s.Sizes
		if len(sizes) == 0 {
			sizes = []int{4, 8, 12, 16, 20, 24, 28}
		}
		rows, err := sweep(sizes, func(n int) (Fig3Row, error) { return runFig3Point(n, opts) })
		return &RunReport{Fig3: rows}, err
	case MultiASRun:
		counts := s.ASCounts
		if len(counts) == 0 {
			counts = []int{2, 3, 4}
		}
		size := s.ASSize
		if size <= 0 {
			size = 3
		}
		rows, err := sweep(counts, func(n int) (MultiASRow, error) { return runMultiASPoint(n, size, opts) })
		return &RunReport{MultiAS: rows}, err
	case DemoRun:
		pairs := s.Streams
		if len(pairs) == 0 {
			g := PanEuropean()
			lisbon, _ := g.NodeByName("Lisbon")
			stockholm, _ := g.NodeByName("Stockholm")
			pairs = [][2]int{{lisbon.ID, stockholm.ID}}
		}
		ms, err := runDemo(pairs, opts)
		return &RunReport{Demo: &ms}, err
	case ScenarioRun:
		res, err := scenario.Run(s.Spec)
		return &RunReport{Scenario: res}, err
	case nil:
		return nil, fmt.Errorf("routeflow: Run needs a spec (Fig3Run, MultiASRun, DemoRun or ScenarioRun)")
	default:
		return nil, fmt.Errorf("routeflow: unknown run spec %T", spec)
	}
}

// sweep measures one experiment point per x, stopping at the first error.
func sweep[T any](xs []int, point func(int) (T, error)) ([]T, error) {
	rows := make([]T, 0, len(xs))
	for _, x := range xs {
		row, err := point(x)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScenarioExitCode maps a scenario outcome to a process exit status: 1 on a
// harness error or any failed invariant check, 0 only when the run
// completed and every check held. rfchaos routes every verdict through it
// so an invariant violation can never exit 0.
func ScenarioExitCode(res *ScenarioResult, err error) int {
	if err != nil || res == nil || !res.AllOK() {
		return 1
	}
	return 0
}
