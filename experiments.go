package routeflow

import (
	"fmt"
	"io"
	"time"

	"routeflow/internal/scenario"
	"routeflow/internal/stream"
)

// deploy is how every experiment builds its deployment: New with the
// caller's options, except that the topology and the host attachments are
// the experiment's own, so they are applied last.
func deploy(g *Topology, hosts []int, opts []Option) (*Deployment, error) {
	return New(g, append(opts[:len(opts):len(opts)], WithHosts(hosts...))...)
}

// Fig3Row is one point of the paper's Fig. 3: the time to configure
// RouteFlow on a ring of Switches switches, automatically (measured on this
// implementation, protocol time) and manually (the paper's administrator
// model).
type Fig3Row struct {
	Switches   int
	Auto       time.Duration
	AutoRouted time.Duration // extension: until OSPF fully converged
	Manual     time.Duration
}

// runFig3Point measures one ring size.
func runFig3Point(n int, opts []Option) (Fig3Row, error) {
	d, err := deploy(Ring(n), nil, opts)
	if err != nil {
		return Fig3Row{}, err
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		return Fig3Row{}, err
	}
	auto, err := d.AwaitConfigured(30 * time.Minute)
	if err != nil {
		return Fig3Row{}, fmt.Errorf("ring-%d: %w", n, err)
	}
	routed, err := d.AwaitConverged(30 * time.Minute)
	if err != nil {
		return Fig3Row{}, fmt.Errorf("ring-%d convergence: %w", n, err)
	}
	return Fig3Row{
		Switches:   n,
		Auto:       auto,
		AutoRouted: routed,
		Manual:     DefaultManualModel().Total(n),
	}, nil
}

func printFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintf(w, "%-10s %-16s %-18s %-16s %s\n",
		"switches", "auto(config)", "auto(converged)", "manual", "speedup")
	for _, r := range rows {
		speedup := float64(r.Manual) / float64(r.AutoRouted)
		fmt.Fprintf(w, "%-10d %-16s %-18s %-16s %.0fx\n",
			r.Switches, round(r.Auto), round(r.AutoRouted), r.Manual, speedup)
	}
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Millisecond) }

// MultiASRow is one point of the inter-domain scaling experiment: the time
// for a ring of ring-shaped ASes to cold-boot to full inter-domain
// convergence — the Fig. 3 methodology lifted from one flat OSPF domain to
// eBGP-joined autonomous systems.
type MultiASRow struct {
	ASes        int
	SwitchesPer int
	Switches    int
	Configured  time.Duration // every switch green (VM up)
	Converged   time.Duration // OSPF Full + BGP Established + routes everywhere
	ManualEquiv time.Duration // the administrator model for the same fabric
}

// runMultiASPoint measures one AS count: an ASRing(asCount, asSize) deploys
// cold and the row records protocol time to configured and to full
// inter-domain convergence (every VM holding routes to every reachable host
// subnet, BGP sessions Established on every border and iBGP mesh).
func runMultiASPoint(asCount, asSize int, opts []Option) (MultiASRow, error) {
	g := ASRing(asCount, asSize)
	var hosts []int
	for i := 0; i < asCount; i++ {
		// One host per AS, on its last switch: ASRing's border routers sit
		// at nodes 0 and asSize/2 of each ring, so asSize-1 is interior
		// whenever the AS has three or more switches.
		hosts = append(hosts, i*asSize+asSize-1)
	}
	d, err := deploy(g, hosts, opts)
	if err != nil {
		return MultiASRow{}, err
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		return MultiASRow{}, err
	}
	row := MultiASRow{ASes: asCount, SwitchesPer: asSize, Switches: g.NumNodes(),
		ManualEquiv: DefaultManualModel().Total(g.NumNodes())}
	if row.Configured, err = d.AwaitConfigured(30 * time.Minute); err != nil {
		return row, fmt.Errorf("asring-%dx%d: %w", asCount, asSize, err)
	}
	if row.Converged, err = d.AwaitConverged(30 * time.Minute); err != nil {
		return row, fmt.Errorf("asring-%dx%d convergence: %w", asCount, asSize, err)
	}
	return row, nil
}

func printMultiAS(w io.Writer, rows []MultiASRow) {
	fmt.Fprintf(w, "%-6s %-10s %-16s %-18s %-16s %s\n",
		"ASes", "switches", "auto(config)", "auto(converged)", "manual", "speedup")
	for _, r := range rows {
		speedup := float64(r.ManualEquiv) / float64(r.Converged)
		fmt.Fprintf(w, "%-6d %-10d %-16s %-18s %-16s %.0fx\n",
			r.ASes, r.Switches, round(r.Configured), round(r.Converged), r.ManualEquiv, speedup)
	}
}

// StreamResult is one stream of the demonstration.
type StreamResult struct {
	ServerNode, ClientNode int
	FirstVideo             time.Duration // cold start → first frame at this client
	VideoStats             VideoStats
}

// DemoResult is the outcome of the §3 demonstration.
type DemoResult struct {
	Switches   int
	Links      int
	Configured time.Duration
	Converged  time.Duration
	// AllVideo is the cold start → the moment every stream has delivered
	// its first frame (the slowest stream bounds it).
	AllVideo time.Duration
	Streams  []StreamResult
}

// runDemo is the §3 demonstration: a cold pan-European network with one
// video stream per (server, client) pair, all started at t=0, and the time
// until every stream reaches its client, configuration included. With
// several pairs it exercises the dataplane the way the paper's testbed
// audience did — several flows crossing the 28-switch core at once.
func runDemo(pairs [][2]int, opts []Option) (DemoResult, error) {
	g := PanEuropean()
	hostSet := map[int]bool{}
	var hostNodes []int
	for _, p := range pairs {
		for _, n := range []int{p[0], p[1]} {
			if !hostSet[n] {
				hostSet[n] = true
				hostNodes = append(hostNodes, n)
			}
		}
	}
	d, err := deploy(g, hostNodes, opts)
	if err != nil {
		return DemoResult{}, err
	}
	defer d.Close()

	clk := d.Clock()
	clients := make([]*stream.Client, len(pairs))
	for i, p := range pairs {
		srvHost, ok := d.Host(p[0])
		if !ok {
			return DemoResult{}, fmt.Errorf("routeflow: no host at server node %d", p[0])
		}
		cliHost, ok := d.Host(p[1])
		if !ok {
			return DemoResult{}, fmt.Errorf("routeflow: no host at client node %d", p[1])
		}
		client, err := stream.NewClient(cliHost, 0, clk)
		if err != nil {
			return DemoResult{}, err
		}
		defer client.Close()
		clients[i] = client
		server, err := stream.NewServer(stream.ServerConfig{
			Host: srvHost, Dst: cliHost.Addr(), Clock: clk,
		})
		if err != nil {
			return DemoResult{}, err
		}
		// Cold start: stream first, then bring the network up — the paper's
		// ordering ("At the start of the experiment, we stream a video
		// clip").
		server.Start()
		defer server.Stop()
	}

	startAt := clk.Now()
	if err := d.Start(); err != nil {
		return DemoResult{}, err
	}
	res := DemoResult{Switches: g.NumNodes(), Links: g.NumLinks(),
		Streams: make([]StreamResult, len(pairs))}
	if res.Configured, err = d.AwaitConfigured(time.Hour); err != nil {
		return res, err
	}
	if res.Converged, err = d.AwaitConverged(time.Hour); err != nil {
		return res, err
	}
	for i, c := range clients {
		if err := c.AwaitFirstFrame(time.Hour); err != nil {
			return res, fmt.Errorf("stream %d→%d: %w", pairs[i][0], pairs[i][1], err)
		}
	}
	res.AllVideo = d.Elapsed()
	// Let a little video accumulate for the delivery statistics.
	<-clk.After(5 * time.Second)
	for i, c := range clients {
		st := c.Stats()
		res.Streams[i] = StreamResult{
			ServerNode: pairs[i][0], ClientNode: pairs[i][1],
			FirstVideo: st.FirstFrame.Sub(startAt), VideoStats: st,
		}
	}
	return res, nil
}

func printDemo(w io.Writer, ms *DemoResult) {
	fmt.Fprintf(w, "pan-European demo: %d switches, %d links, %d stream(s)\n",
		ms.Switches, ms.Links, len(ms.Streams))
	fmt.Fprintf(w, "  all switches configured (green):  %v\n", round(ms.Configured))
	fmt.Fprintf(w, "  OSPF fully converged:             %v\n", round(ms.Converged))
	fmt.Fprintf(w, "  every stream delivering:          %v (paper: ~4 min)\n", round(ms.AllVideo))
	for _, st := range ms.Streams {
		fmt.Fprintf(w, "  stream %d→%d: first frame %v, frames %d (gaps %d)\n",
			st.ServerNode, st.ClientNode, round(st.FirstVideo),
			st.VideoStats.Frames, st.VideoStats.Gaps)
	}
	fmt.Fprintf(w, "  manual configuration equivalent:  %v (paper: ~7 h)\n",
		DefaultManualModel().Total(ms.Switches))
}

// Chaos / scenario harness (internal/scenario re-exported).

type (
	// ScenarioSpec describes one chaos scenario: a topology, a scripted or
	// seed-derived fault schedule, and the invariants evaluated at every
	// quiesce point.
	ScenarioSpec = scenario.Spec
	// ScenarioFault is one scheduled fault of a scenario.
	ScenarioFault = scenario.Fault
	// ScenarioResult is the structured outcome of a scenario run, including
	// the deterministic event log.
	ScenarioResult = scenario.Result
	// ScenarioPhase is the outcome of one quiesce point.
	ScenarioPhase = scenario.Phase
	// ScenarioCheck is one invariant verdict.
	ScenarioCheck = scenario.Check
)

// Scenario fault kinds. The replica kinds need a clustered spec
// (Spec.Cluster.Replicas > 1).
const (
	FaultLinkDown         = scenario.FaultLinkDown
	FaultLinkUp           = scenario.FaultLinkUp
	FaultLinkFlap         = scenario.FaultLinkFlap
	FaultSwitchCrash      = scenario.FaultSwitchCrash
	FaultServerRestart    = scenario.FaultServerRestart
	FaultRPCLoss          = scenario.FaultRPCLoss
	FaultReplicaKill      = scenario.FaultReplicaKill
	FaultReplicaPartition = scenario.FaultReplicaPartition
	FaultReplicaHeal      = scenario.FaultReplicaHeal
)

// CuratedScenarios returns the named scenario suite CI gates on.
func CuratedScenarios() []ScenarioSpec { return scenario.Curated() }

// CuratedScenarioNames lists the curated scenario names in suite order.
func CuratedScenarioNames() []string { return scenario.Names() }

// ScenarioByName returns a fresh spec for one curated scenario.
func ScenarioByName(name string) (ScenarioSpec, bool) { return scenario.ByName(name) }

// RandomFaultSchedule derives a deterministic fault schedule from a seed —
// the generator behind ScenarioSpec.RandomFaults, exposed for tools.
func RandomFaultSchedule(g *Topology, n int, seed int64) []ScenarioFault {
	return scenario.RandomSchedule(g, n, seed)
}

func printScenario(w io.Writer, r *ScenarioResult) {
	fmt.Fprintf(w, "=== scenario %s (seed %d) ===\n", r.Name, r.Seed)
	for _, line := range r.Events {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "phases (protocol time since start):\n")
	for _, ph := range r.Phases {
		status := "converged"
		if ph.Converged == 0 {
			status = "DID NOT CONVERGE"
		}
		fmt.Fprintf(w, "  %-40s %-18s t=%v partitioned=%v\n",
			ph.Fault, status, round(ph.Converged), ph.Partitioned)
	}
	for i, st := range r.Streams {
		fmt.Fprintf(w, "stream %d: frames=%d gaps=%d\n", i, st.Frames, st.Gaps)
	}
	if failed := r.FailedChecks(); len(failed) > 0 {
		fmt.Fprintf(w, "FAILED checks:\n")
		for _, f := range failed {
			fmt.Fprintf(w, "  %s\n", f)
		}
	} else {
		fmt.Fprintf(w, "all invariants held\n")
	}
}
