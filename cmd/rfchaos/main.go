// Command rfchaos runs chaos scenarios against the automatic-configuration
// system: curated named scenarios, or a seed-derived random fault storm on
// any generated topology.
//
//	rfchaos -list                         # name every curated scenario
//	rfchaos -run ring4-partition-heal     # run one curated scenario
//	rfchaos -all                          # run the whole curated suite
//	rfchaos -topo grid -n 3 -h 3 -faults 5 -seed 99   # seeded random storm
//
// Exit status is non-zero when any invariant fails — the CLI equivalent of
// the CI scenario gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"routeflow"
)

func main() {
	list := flag.Bool("list", false, "list curated scenarios and exit")
	run := flag.String("run", "", "run one curated scenario by name")
	all := flag.Bool("all", false, "run the whole curated suite")
	kind := flag.String("topo", "ring", "ring | grid | fattree | paneu | random | asring (ad-hoc storm)")
	n := flag.Int("n", 4, "node count (ring/random), grid width, fat-tree k, or AS count (asring)")
	h := flag.Int("h", 3, "grid height, or switches per AS (asring)")
	m := flag.Int("m", 0, "link count for random (default n+n/2)")
	faults := flag.Int("faults", 3, "random fault count for the ad-hoc storm")
	seed := flag.Int64("seed", 1, "seed for the ad-hoc storm")
	replicas := flag.Int("replicas", 1, "rf-controller replicas for the ad-hoc storm")
	flag.Parse()

	switch {
	case *list:
		for _, spec := range routeflow.CuratedScenarios() {
			if spec.Description != "" {
				fmt.Printf("%-36s %s\n", spec.Name, spec.Description)
			} else {
				fmt.Println(spec.Name)
			}
		}
	case *run != "":
		spec, ok := routeflow.ScenarioByName(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "rfchaos: unknown scenario %q (try -list)\n", *run)
			os.Exit(1)
		}
		os.Exit(runOne(spec))
	case *all:
		status := 0
		for _, spec := range routeflow.CuratedScenarios() {
			if runOne(spec) != 0 {
				status = 1
			}
		}
		os.Exit(status)
	default:
		os.Exit(runOne(adhocSpec(*kind, *n, *h, *m, *faults, *replicas, *seed)))
	}
}

func adhocSpec(kind string, n, h, m, faults, replicas int, seed int64) routeflow.ScenarioSpec {
	var g *routeflow.Topology
	hosts := []int{}
	switch kind {
	case "ring":
		g = routeflow.Ring(n)
		hosts = []int{0, n / 2}
	case "grid":
		g = routeflow.Grid(n, h)
		hosts = []int{0, n*h - 1}
	case "fattree":
		g = routeflow.FatTree(n)
		edges := routeflow.FatTreeEdges(n)
		hosts = []int{edges[0], edges[len(edges)-1]}
	case "paneu":
		g = routeflow.PanEuropean()
		hosts = []int{0, 27}
	case "random":
		links := m
		if links == 0 {
			links = n + n/2
		}
		g = routeflow.Random(n, links, seed)
		hosts = []int{0, n - 1}
	case "asring":
		// n ASes of h switches each (clamped like ASRing itself clamps);
		// hosts in the first and second AS so the storm exercises
		// inter-domain paths.
		if n < 2 {
			n = 2
		}
		if h < 1 {
			h = 1
		}
		g = routeflow.ASRing(n, h)
		hosts = []int{1 % h, h + h/2}
	default:
		fmt.Fprintf(os.Stderr, "rfchaos: unknown topology %q\n", kind)
		os.Exit(1)
	}
	spec := routeflow.ScenarioSpec{
		Name:         fmt.Sprintf("adhoc-%s", g.Name()),
		Topology:     g,
		HostNodes:    hosts,
		Seed:         seed,
		RandomFaults: faults,
	}
	if replicas > 1 {
		spec.Cluster = routeflow.ClusterSpec{Replicas: replicas}
	}
	return spec
}

func runOne(spec routeflow.ScenarioSpec) int {
	report, err := routeflow.Run(routeflow.ScenarioRun{Spec: spec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfchaos: %s: %v\n", spec.Name, err)
	}
	report.Print(os.Stdout)
	// The verdict is the exit status: any failed invariant — including one
	// caught inside a settle retry — must surface as non-zero.
	return routeflow.ScenarioExitCode(report.Scenario, err)
}
