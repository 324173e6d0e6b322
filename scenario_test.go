package routeflow

// The curated chaos suite: every named scenario is one table-driven subtest,
// which is also how CI runs them (one matrix leg per name, selected with
// -run 'TestCuratedScenario/^<name>$'). A scenario fails the test if the
// harness errors, if any quiesce point times out, or if any invariant —
// no-blackhole, no-loop, flow-table consistency, stream continuity — is
// violated.

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// runScenario runs spec through Run and fails t on a harness error.
func runScenario(t *testing.T, spec ScenarioSpec) *ScenarioResult {
	t.Helper()
	report, err := Run(ScenarioRun{Spec: spec})
	if err != nil {
		t.Fatalf("%s: harness error: %v", spec.Name, err)
	}
	return report.Scenario
}

func TestCuratedScenario(t *testing.T) {
	for _, spec := range CuratedScenarios() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res := runScenario(t, spec)
			if failed := res.FailedChecks(); len(failed) > 0 {
				t.Fatalf("invariants failed:\n  %s\nevent log:\n%s",
					strings.Join(failed, "\n  "), res.EventLog())
			}
			if res.InitialConverge <= 0 {
				t.Fatalf("no initial convergence recorded\n%s", res.EventLog())
			}
		})
	}
}

// TestCIMatrixCoversCuratedSuite guards against matrix drift: the CI test
// job skips ^TestCuratedScenario$ wholesale and the scenario job only runs
// the legs listed in .github/workflows/ci.yml — so a scenario added to
// Curated() but not to the matrix would silently run nowhere. This test
// (which the CI test job *does* run) fails until the two lists match.
func TestCIMatrixCoversCuratedSuite(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("reading workflow: %v", err)
	}
	workflow := string(data)
	i := strings.Index(workflow, "scenario:\n")
	if i < 0 {
		t.Fatal("workflow has no scenario matrix")
	}
	legs := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+- ([a-z0-9-]+)\s*$`).
		FindAllStringSubmatch(workflow[i:], -1) {
		legs[m[1]] = true
	}
	names := CuratedScenarioNames()
	for _, name := range names {
		if !legs[name] {
			t.Errorf("curated scenario %q missing from the CI matrix in .github/workflows/ci.yml", name)
		}
		delete(legs, name)
	}
	for leg := range legs {
		t.Errorf("CI matrix leg %q does not name a curated scenario", leg)
	}
	if len(names) < 10 {
		t.Fatalf("curated suite shrank to %d scenarios; the acceptance bar is 10", len(names))
	}
}

// TestScenarioPartitionIsHonest pins the partition contract end to end
// through the harness: the partition scenario's middle settle must report
// partitioned=true with every invariant (including honest cross-cut
// unreachability) green, and the final settle must report the heal.
func TestScenarioPartitionIsHonest(t *testing.T) {
	spec, ok := ScenarioByName("ring4-partition-heal")
	if !ok {
		t.Fatal("partition scenario missing from curated suite")
	}
	res := runScenario(t, spec)
	if failed := res.FailedChecks(); len(failed) > 0 {
		t.Fatalf("invariants failed: %v\n%s", failed, res.EventLog())
	}
	sawPartition, sawHeal := false, false
	for _, ph := range res.Phases {
		if ph.Fault == "link-down link=2" {
			sawPartition = ph.Partitioned
		}
		if ph.Fault == "link-up link=2" {
			sawHeal = !ph.Partitioned
		}
	}
	if !sawPartition {
		t.Fatalf("partition settle did not report partitioned=true\n%s", res.EventLog())
	}
	if !sawHeal {
		t.Fatalf("heal settle did not report partitioned=false\n%s", res.EventLog())
	}
}

// TestInterDomainScenarioDeterministicEventLog pins the acceptance bar for
// the inter-domain chaos family: the same curated multi-AS scenario run
// twice produces a byte-identical event log — BGP session churn, damping and
// best-path re-selection must never leak timing into the log.
func TestInterDomainScenarioDeterministicEventLog(t *testing.T) {
	run := func() *ScenarioResult {
		spec, ok := ScenarioByName("multias3-border-down-up")
		if !ok {
			t.Fatal("multias3-border-down-up missing from curated suite")
		}
		res := runScenario(t, spec)
		if failed := res.FailedChecks(); len(failed) > 0 {
			t.Fatalf("invariants failed: %v\n%s", failed, res.EventLog())
		}
		return res
	}
	if a, b := run().EventLog(), run().EventLog(); a != b {
		t.Fatalf("same spec, different event logs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestTEScenarioDeterministicEventLog pins the acceptance bar for the
// traffic-engineering chaos family: a curated TE scenario — a Zipf fleet
// hammering the dataplane, the optimizer migrating pins, a master kill mid
// run — twice produces a byte-identical event log. TE decisions and fleet
// traffic are wall-clock-dependent and must never leak into the log; only
// the scheduled faults and invariant verdicts may appear.
func TestTEScenarioDeterministicEventLog(t *testing.T) {
	run := func() *ScenarioResult {
		spec, ok := ScenarioByName("grid9-te-master-kill")
		if !ok {
			t.Fatal("grid9-te-master-kill missing from curated suite")
		}
		res := runScenario(t, spec)
		if failed := res.FailedChecks(); len(failed) > 0 {
			t.Fatalf("invariants failed: %v\n%s", failed, res.EventLog())
		}
		return res
	}
	if a, b := run().EventLog(), run().EventLog(); a != b {
		t.Fatalf("same spec, different event logs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestScenarioDeterministicEventLog is the seed-sweep determinism gate: the
// same spec (same seed, seed-derived schedule) run twice produces a
// byte-identical event log.
func TestScenarioDeterministicEventLog(t *testing.T) {
	mk := func() ScenarioSpec {
		return ScenarioSpec{
			Name:         "determinism-probe",
			Topology:     Ring(4),
			HostNodes:    []int{0, 2},
			Seed:         42,
			RandomFaults: 2,
		}
	}
	first := runScenario(t, mk())
	if failed := first.FailedChecks(); len(failed) > 0 {
		t.Fatalf("run 1 invariants failed: %v\n%s", failed, first.EventLog())
	}
	second := runScenario(t, mk())
	if a, b := first.EventLog(), second.EventLog(); a != b {
		t.Fatalf("same seed, different event logs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	// A different seed must yield a different schedule (and thus log).
	diff := mk()
	diff.Seed = 1042
	third := runScenario(t, diff)
	if third.EventLog() == first.EventLog() {
		t.Fatal("different seeds produced identical event logs — the schedule ignores the seed")
	}
}

// TestMasterKillScenarioDeterministicEventLog pins the acceptance bar for
// the distributed-controller chaos family: the curated master-kill scenario
// — a replica crash racing the initial convergence, lease lapse, shard
// adoption by the survivor — must hold every invariant and produce a
// byte-identical event log across runs of the same seed.
func TestMasterKillScenarioDeterministicEventLog(t *testing.T) {
	run := func() *ScenarioResult {
		spec, ok := ScenarioByName("ring6-master-kill-midconverge")
		if !ok {
			t.Fatal("ring6-master-kill-midconverge missing from curated suite")
		}
		res := runScenario(t, spec)
		if failed := res.FailedChecks(); len(failed) > 0 {
			t.Fatalf("invariants failed: %v\n%s", failed, res.EventLog())
		}
		return res
	}
	if a, b := run().EventLog(), run().EventLog(); a != b {
		t.Fatalf("same spec, different event logs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
