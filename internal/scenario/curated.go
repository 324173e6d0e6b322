package scenario

import (
	"time"

	"routeflow/internal/core"
	"routeflow/internal/quagga"
	"routeflow/internal/topo"
)

// gentle widens a spec's timers for larger fabrics: at grid/fat-tree scale
// under the race detector, 20ms hellos would miss dead intervals on a loaded
// single-core runner and read scheduler noise as link loss.
func gentle(s Spec) Spec {
	s.ProbeInterval = 50 * time.Millisecond
	s.LinkTTL = 300 * time.Millisecond
	s.Timers = quagga.Timers{
		Hello:    60 * time.Millisecond,
		Dead:     300 * time.Millisecond,
		SPFDelay: 10 * time.Millisecond,
		// BGP hold is the same order as discovery's link-loss detection
		// (LinkTTL), so a cut border session dies by whichever fires first —
		// hold expiry or the administrative neighbor teardown. Flap damping
		// charges both paths, and its state survives the teardown.
		BGPHold:         300 * time.Millisecond,
		BGPConnectRetry: 75 * time.Millisecond,
	}
	s.ConvergeTimeout = 120 * time.Second
	return s
}

// slowDetect widens discovery's link TTL past the BGP hold time, so a cut
// border link deterministically expires its session (hold timer) before the
// control plane can deconfigure the neighbor.
func slowDetect(s Spec) Spec {
	s.LinkTTL = 3 * s.Timers.BGPHold
	return s
}

// damped slows the flap-damping penalty decay so a scripted flap storm
// reliably drives an eBGP peer over the suppress threshold.
func damped(s Spec) Spec {
	s.Timers.BGPDampHalfLife = 8 * time.Second
	return s
}

// multiASMixed stitches a ring AS and a grid AS with two redundant border
// links — the mixed-generator composite of the inter-domain family.
func multiASMixed() *topo.Graph {
	g, err := topo.MultiAS("multias-ring+grid", []topo.ASMember{
		{ASN: 64512, Graph: topo.Ring(4)},
		{ASN: 64513, Graph: topo.Grid(2, 2)},
	}, []topo.BorderLink{
		{AIndex: 0, ANode: 0, BIndex: 1, BNode: 0},
		{AIndex: 0, ANode: 2, BIndex: 1, BNode: 3},
	})
	if err != nil {
		panic(err) // unreachable: the composite is statically valid
	}
	return g
}

// Curated returns the named scenario suite CI gates on: ≥10 scenarios
// spanning link failure and flap storms, partitions, switch crashes,
// rf-server restarts (steady-state and mid-convergence), RPC loss bursts
// and stream continuity. Specs are rebuilt on every call, so runs never
// share topology state.
func Curated() []Spec {
	return []Spec{
		{
			// The plain failover: one ring link dies, traffic reroutes the
			// long way, the link returns, the network re-optimizes. Telemetry
			// rides along: the monitoring program must follow the reroute and
			// the flow views must conserve counters across the move.
			Name:        "ring4-link-down-up",
			Description: "single ring link fails and returns; reroute then re-optimize",
			Topology:    topo.Ring(4), HostNodes: []int{0, 2}, Seed: 1,
			Telemetry: true,
			Faults: []Fault{
				{Kind: FaultLinkDown, Link: 0},
				{Kind: FaultLinkUp, Link: 0},
			},
		},
		{
			// A flap storm: five down/up cycles paced past LinkTTL, settling
			// once at the end — the declarative pipeline must converge to the
			// final state no matter how the churn interleaved.
			Name:        "ring4-link-flap-storm",
			Description: "five down/up cycles on one link; converge to the final state",
			Topology:    topo.Ring(4), HostNodes: []int{0, 2}, Seed: 2,
			Faults: []Fault{
				{Kind: FaultLinkFlap, Link: 0, Count: 5},
			},
		},
		{
			// The last path between the host pair dies: the network must
			// converge *as a partition* (quiesced, honestly unreachable
			// across the cut — the PR's bugfix regression), then heal.
			Name:        "ring4-partition-heal",
			Description: "last path dies: honest partition, then heal",
			Topology:    topo.Ring(4), HostNodes: []int{0, 2}, Seed: 3,
			Faults: []Fault{
				{Kind: FaultLinkDown, Link: 0, NoSettle: true},
				{Kind: FaultLinkDown, Link: 2},
				{Kind: FaultLinkUp, Link: 0, NoSettle: true},
				{Kind: FaultLinkUp, Link: 2},
			},
		},
		{
			// A transit switch crashes: flow table gone, control session cut.
			// The dialer reconnects, discovery re-learns it, the reconciler
			// rebuilds its VM and flows.
			// Telemetry rides along: the reboot zeroes the monitor's absolute
			// counters, so the view must re-baseline (an export below the
			// applied level) without ever double counting or running backward.
			Name:        "ring5-switch-crash",
			Description: "transit switch reboots; VM and flows are rebuilt",
			Topology:    topo.Ring(5), HostNodes: []int{0, 3}, Seed: 4,
			Telemetry: true,
			Faults: []Fault{
				{Kind: FaultSwitchCrash, Node: 2},
			},
		},
		{
			// rf-server restart at steady state: only the idle epoch probe
			// can notice; the full desired state must be re-synced.
			Name:        "ring6-server-restart",
			Description: "rf-server restart at steady state; epoch probe triggers re-sync",
			Topology:    topo.Ring(6), HostNodes: []int{0, 3}, Seed: 5,
			Faults: []Fault{
				{Kind: FaultServerRestart},
			},
		},
		{
			// rf-server restart *mid-convergence*: the restart races the
			// initial configuration push; acked-then-lost state must be
			// replayed before the first quiesce.
			Name:        "ring6-server-restart-midconverge",
			Description: "rf-server restart races the initial configuration push",
			Topology:    topo.Ring(6), HostNodes: []int{0, 3}, Seed: 6,
			Faults: []Fault{
				{Kind: FaultServerRestart, PreConverge: true},
				{Kind: FaultLinkFlap, Link: 1, Count: 1},
			},
		},
		{
			// An RPC loss burst (25% of control-channel frames dropped)
			// while a link flaps, then the burst clears: the reconciler
			// carries convergence through the loss and the clean settle
			// confirms nothing stayed wedged.
			Name:        "ring4-rpc-loss-burst",
			Description: "25% control-channel loss burst under a link flap",
			Topology:    topo.Ring(4), HostNodes: []int{0, 2}, Seed: 7,
			Faults: []Fault{
				{Kind: FaultRPCLoss, Rate: 0.25, NoSettle: true},
				{Kind: FaultLinkFlap, Link: 1, Count: 2},
				{Kind: FaultRPCLoss, Rate: 0},
			},
		},
		gentle(Spec{
			// A seed-derived random storm on a 3×3 grid: the schedule is a
			// pure function of the seed, so this leg is as reproducible as
			// the scripted ones.
			Name:        "grid9-random-storm",
			Description: "seed-derived random fault storm on a 3x3 grid",
			Topology:    topo.Grid(3, 3), HostNodes: []int{0, 8}, Seed: 1007,
			RandomFaults: 3,
		}),
		gentle(Spec{
			// Crash the grid's center switch — the highest-degree node —
			// and require full recovery.
			Name:        "grid9-switch-crash",
			Description: "highest-degree grid switch crashes and recovers",
			Topology:    topo.Grid(3, 3), HostNodes: []int{0, 8}, Seed: 9,
			Faults: []Fault{
				{Kind: FaultSwitchCrash, Node: 4},
			},
		}),
		gentle(Spec{
			// Data-center fabric: kill a pod-0 aggregation→core uplink in a
			// k=4 fat-tree. The fabric is single-link redundant, so the
			// settle must report *no* partition and cross-pod hosts stay
			// reachable throughout.
			Name:        "fattree4-core-link-down",
			Description: "fat-tree uplink dies; no partition, cross-pod hosts stay reachable",
			Topology:    topo.FatTree(4), HostNodes: []int{6, 18}, Seed: 10,
			Faults: []Fault{
				{Kind: FaultLinkDown, Link: 0},
				{Kind: FaultLinkUp, Link: 0},
			},
		}),
		{
			// Distributed-controller family: two replicas split the ring and
			// replica 1 is crash-killed *mid-convergence* — before the initial
			// configuration finishes. Its leases lapse, the survivor adopts
			// the orphaned switches (delete-all + replay, fenced by the
			// transfer epoch), and the network must still reach the exact
			// converged state, then absorb a link failure on top.
			// Telemetry rides along: the killed replica's aggregator views die
			// with it, so the survivor must re-own the orphaned flows and
			// rebuild views from the switches' re-exports — counted exactly once.
			Name:        "ring6-master-kill-midconverge",
			Description: "replica killed mid-convergence; survivor adopts its switches and converges",
			Topology:    topo.Ring(6), HostNodes: []int{0, 3}, Seed: 31,
			Telemetry: true,
			Cluster: core.ClusterSpec{
				Replicas:   2,
				LeaseTTL:   500 * time.Millisecond,
				LeaseRenew: 100 * time.Millisecond,
			},
			Faults: []Fault{
				{Kind: FaultReplicaKill, Replica: 1, PreConverge: true},
				{Kind: FaultLinkDown, Link: 2},
				{Kind: FaultLinkUp, Link: 2},
			},
		},
		gentle(Spec{
			// Three replicas shard a 3×3 grid; replica 2 is partitioned from
			// its switches and the coordination service. Its leases lapse, it
			// self-fences (releases its VMs), the survivors take over; the
			// heal triggers the cooperative rebalance that hands its shards
			// back — each handoff a full wipe-and-replay under a fresh epoch.
			Name:        "grid9-replica-partition-heal",
			Description: "partitioned replica self-fences and re-adopts its shards on heal",
			Topology:    topo.Grid(3, 3), HostNodes: []int{0, 8}, Seed: 32,
			Cluster: core.ClusterSpec{
				Replicas:   3,
				LeaseTTL:   500 * time.Millisecond,
				LeaseRenew: 100 * time.Millisecond,
			},
			Faults: []Fault{
				{Kind: FaultReplicaPartition, Replica: 2},
				{Kind: FaultReplicaHeal, Replica: 2},
			},
		}),
		{
			// The paper's workload under churn: a video stream crosses the
			// ring from cold start while an off-path-or-not link flaps twice;
			// the client's sequence gaps must stay inside the budget.
			// Telemetry rides along: conservation is checked while the stream
			// keeps generating monitored traffic — the hardest case for the
			// never-exceeds-absolute and pinned-catch-up pair.
			Name:        "ring4-video-continuity",
			Description: "video stream survives a double link flap within the gap budget",
			Topology:    topo.Ring(4), HostNodes: []int{0, 2}, Seed: 11,
			Telemetry: true,
			Streams:   [][2]int{{0, 2}}, GapBudget: 400,
			Faults: []Fault{
				{Kind: FaultLinkFlap, Link: 1, Count: 2},
			},
		},

		// ——— Inter-domain family: ring of three ring-shaped ASes (nodes
		// 0-2 = AS 64512, 3-5 = AS 64513, 6-8 = AS 64514; links 9/10/11 are
		// the eBGP borders). Routing inside each AS is OSPF; across borders
		// it is eBGP with full-mesh iBGP over loopbacks inside each domain.
		slowDetect(gentle(Spec{
			// Cut the AS0–AS1 border: discovery's detection is slowed past
			// the hold time, so the eBGP session deterministically dies by
			// hold-timer expiry, its routes are withdrawn, and traffic
			// re-selects the longer AS path through the backup domain; the
			// heal re-optimizes.
			Name:        "multias3-border-down-up",
			Description: "eBGP hold expiry on a cut border; path re-selects through the backup AS",
			Topology:    topo.ASRing(3, 3), HostNodes: []int{1, 4}, Seed: 21,
			Faults: []Fault{
				{Kind: FaultLinkDown, Link: 9},
				{Kind: FaultLinkUp, Link: 9},
			},
		})),
		gentle(Spec{
			// Cut both of AS0's borders: the domain is honestly partitioned
			// from the rest of the internetwork — cross-AS pings must fail,
			// the sessions must drop, and the heal restores everything.
			Name:        "multias3-as-partition-honesty",
			Description: "double border cut isolates one AS; partition is honest, heal recovers",
			Topology:    topo.ASRing(3, 3), HostNodes: []int{1, 4}, Seed: 22,
			Faults: []Fault{
				{Kind: FaultLinkDown, Link: 9, NoSettle: true},
				{Kind: FaultLinkDown, Link: 11},
				{Kind: FaultLinkUp, Link: 9, NoSettle: true},
				{Kind: FaultLinkUp, Link: 11},
			},
		}),
		damped(gentle(Spec{
			// A flapping eBGP peer: three losses of Established charge the
			// damping penalty past suppression, so the flapped border's
			// routes stay excluded while traffic holds the backup-AS path;
			// the network still converges (and later reuses the peer).
			Name:        "multias3-ebgp-flap-damping",
			Description: "flapping eBGP border is damped; traffic rides the backup AS meanwhile",
			Topology:    topo.ASRing(3, 3), HostNodes: []int{1, 4}, Seed: 23,
			Faults: []Fault{
				{Kind: FaultLinkFlap, Link: 9, Count: 3},
			},
		})),
		gentle(Spec{
			// Mixed-generator composite (ring AS + grid AS, two redundant
			// borders): crash a border router; its VM, eBGP session and
			// flows are rebuilt while the second border carries traffic.
			Name:        "multias-mixed-border-crash",
			Description: "border router crash in a ring+grid composite; redundant border carries on",
			Topology:    multiASMixed(), HostNodes: []int{1, 6}, Seed: 24,
			Faults: []Fault{
				{Kind: FaultSwitchCrash, Node: 0},
			},
		}),

		// ——— Traffic-engineering family: the online optimizer migrates
		// Zipf-skewed, time-shifting load across equal-cost paths while the
		// scheduled faults race it. Every invariant — no-loop, no-blackhole,
		// flow/pin consistency, telemetry placement and conservation — must
		// hold at every quiesce point with the optimizer live.
		gentle(Spec{
			// A k=4 fat-tree under a shifting hot spot: the fleet's heavy
			// hitters walk across host pairs while a pod-0 uplink dies and
			// returns — the TE loop races rerouting, and a TE pin whose path
			// loses the link must fall back instead of blackholing.
			Name:        "fattree4-te-hotlink-shift",
			Description: "TE migrates shifting hot flows while a fat-tree uplink dies and returns",
			Topology:    topo.FatTree(4), HostNodes: []int{6, 7, 18, 19}, Seed: 40,
			TE: true, FleetStreams: 400,
			Faults: []Fault{
				{Kind: FaultLinkDown, Link: 0},
				{Kind: FaultLinkUp, Link: 0},
			},
		}),
		gentle(Spec{
			// Two replicas shard a 3×3 grid with TE running; replica 1 is
			// killed. The survivor adopts its switches, re-seeds their pins
			// from the deployment's assignment state, and the optimizer keeps
			// going — counters exactly-once across the failover.
			Name:        "grid9-te-master-kill",
			Description: "TE keeps optimizing through a master replica kill",
			Topology:    topo.Grid(3, 3), HostNodes: []int{0, 2, 6, 8}, Seed: 41,
			TE: true, FleetStreams: 300,
			Cluster: core.ClusterSpec{
				Replicas:   2,
				LeaseTTL:   500 * time.Millisecond,
				LeaseRenew: 100 * time.Millisecond,
			},
			Faults: []Fault{
				{Kind: FaultReplicaKill, Replica: 1},
			},
		}),
	}
}

// Names lists the curated scenario names in suite order (the CI matrix).
func Names() []string {
	specs := Curated()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ByName returns a fresh spec for one curated scenario.
func ByName(name string) (Spec, bool) {
	for _, s := range Curated() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
