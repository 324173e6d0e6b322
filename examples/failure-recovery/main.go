// failure-recovery goes beyond the paper: after the framework configures a
// ring automatically, the network is subjected to a scripted chaos scenario
// — a link dies (traffic reroutes), the surviving path is also cut (an
// honest partition), everything heals — with the harness's invariants
// (no-blackhole, no-loop, flow-table consistency) checked at every quiesce
// point. It demonstrates that the automatically built control plane keeps
// operating the network through failures, and reports them honestly.
package main

import (
	"fmt"
	"log"
	"os"

	"routeflow"
)

func main() {
	spec := routeflow.ScenarioSpec{
		Name:      "example-failure-recovery",
		Topology:  routeflow.Ring(4),
		HostNodes: []int{0, 2},
		Seed:      1,
		Faults: []routeflow.ScenarioFault{
			// Cut one link: OSPF detects the dead neighbor, reconverges, and
			// the RF-controller reinstalls flows for the surviving path.
			{Kind: routeflow.FaultLinkDown, Link: 0},
			// Cut the surviving path too: the network partitions. The harness
			// must converge *as a partition* — hosts 0 and 2 honestly
			// unreachable — rather than wedge or pretend.
			{Kind: routeflow.FaultLinkDown, Link: 2},
			// Heal both links; full connectivity must return.
			{Kind: routeflow.FaultLinkUp, Link: 0, NoSettle: true},
			{Kind: routeflow.FaultLinkUp, Link: 2},
		},
	}
	report, err := routeflow.Run(routeflow.ScenarioRun{Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	report.Print(os.Stdout)
	if code := routeflow.ScenarioExitCode(report.Scenario, err); code != 0 {
		os.Exit(code)
	}
	fmt.Println("failure, partition and recovery all handled — control plane stayed honest")
}
