// Package routeflow is the public API of this reproduction of "Automatic
// Configuration of Routing Control Platforms in OpenFlow Networks" (Sharma
// et al., SIGCOMM 2013). It assembles the full system the paper describes —
// emulated OpenFlow switches, a FlowVisor slicing proxy, a topology
// controller running LLDP discovery, and a RouteFlow RF-controller whose
// RPC server creates and configures one routing VM per switch — and exposes
// the experiment harness that regenerates the paper's evaluation: the
// Fig. 3 configuration-time comparison and the §3 pan-European video
// demonstration.
//
// Quick start:
//
//	d, err := routeflow.New(routeflow.Ring(4),
//	        routeflow.WithTimeScale(50), // compress protocol time 50×
//	        routeflow.WithHosts(0, 2),
//	)
//	if err != nil { ... }
//	defer d.Close()
//	d.Start()
//	t, _ := d.AwaitConfigured(5 * time.Minute) // protocol time
//
// The paper's experiments run through Run, which takes the same options:
//
//	report, err := routeflow.Run(routeflow.Fig3Run{}, routeflow.WithTimeScale(25))
//	report.Print(os.Stdout)
//
// Since PR 6 the RF-controller can be run as a replicated cluster with
// sharded per-switch ownership and lease-based failover: add
// routeflow.WithReplicas(n) (or WithCluster for full control over shard
// policy and lease timings). The default remains the paper's single
// rf-server.
//
// Since PR 8 the deployment can stream per-flow and per-link statistics:
// add routeflow.WithTelemetry() and read Deployment.TelemetrySnapshot —
// balanced monitoring placement (one observer switch per flow), delta
// exports over the control channel, exactly-once aggregation into rolling
// views. See the telemetry types in this package for the details.
package routeflow

import (
	"net/netip"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/core"
	"routeflow/internal/gui"
	"routeflow/internal/netemu"
	"routeflow/internal/quagga"
	"routeflow/internal/stream"
	"routeflow/internal/topo"
	"routeflow/internal/vnet"
)

// Re-exported system types.
type (
	// Deployment is a fully wired automatic-configuration system.
	Deployment = core.Deployment
	// Options configures a Deployment.
	Options = core.Options
	// ManualModel is the paper's manual-configuration cost model.
	ManualModel = core.ManualModel
	// Timers are the routing daemons' protocol timers.
	Timers = quagga.Timers
	// Topology is an undirected switch topology with port numbering.
	Topology = topo.Graph
	// Host is an emulated end system (traffic source/sink).
	Host = netemu.Host
	// Dashboard is the red/green configuration GUI.
	Dashboard = gui.Dashboard
	// VMState is a virtual machine lifecycle state.
	VMState = vnet.State
	// VideoServer streams the demo's video clip.
	VideoServer = stream.Server
	// VideoServerConfig configures a VideoServer.
	VideoServerConfig = stream.ServerConfig
	// VideoClient receives it and records first-frame time.
	VideoClient = stream.Client
	// VideoStats summarize reception.
	VideoStats = stream.ClientStats
)

// DefaultManualModel returns the paper's 5+2+8 minute per-switch figures.
func DefaultManualModel() ManualModel { return core.DefaultManualModel() }

// DPIDForNode maps a topology node ID to its switch datapath ID.
func DPIDForNode(node int) uint64 { return core.DPIDForNode(node) }

// HostSubnet returns the conventional host subnet of a node.
func HostSubnet(node int) netip.Prefix { return core.HostSubnet(node) }

// ScaledClock returns a clock running factor× faster than wall time, used
// to compress protocol timers in experiments; durations it reports are
// protocol time.
func ScaledClock(factor float64) clock.Clock { return clock.Scaled(factor) }

// SystemClock returns the real-time clock.
func SystemClock() clock.Clock { return clock.System() }

// Topology generators.

// Ring returns the n-switch ring used in the paper's Fig. 3 experiments.
func Ring(n int) *Topology { return topo.Ring(n) }

// PanEuropean returns the 28-node pan-European topology of the paper's
// demonstration.
func PanEuropean() *Topology { return topo.PanEuropean() }

// Line returns a chain of n switches.
func Line(n int) *Topology { return topo.Line(n) }

// Star returns a hub-and-spoke topology.
func Star(n int) *Topology { return topo.Star(n) }

// Grid returns a w×h mesh.
func Grid(w, h int) *Topology { return topo.Grid(w, h) }

// FatTree returns the k-ary fat-tree data-center fabric (k even; (k/2)²
// cores, k pods of k/2 aggregation + k/2 edge switches).
func FatTree(k int) *Topology { return topo.FatTree(k) }

// FatTreeEdges lists the edge-switch node IDs of FatTree(k) — the natural
// host attachment points.
func FatTreeEdges(k int) []int { return topo.FatTreeEdges(k) }

// Random returns a connected random topology (deterministic per seed).
func Random(n, m int, seed int64) *Topology { return topo.Random(n, m, seed) }

// Inter-domain topologies.

type (
	// ASMember is one autonomous system of a MultiAS composite.
	ASMember = topo.ASMember
	// ASBorderLink joins two member ASes of a MultiAS composite.
	ASBorderLink = topo.BorderLink
)

// MultiAS stitches member graphs into one inter-domain topology: every node
// is annotated with its member's AS and the border links become eBGP
// boundaries the auto-configuration pipeline configures without manual
// input.
func MultiAS(name string, members []ASMember, borders []ASBorderLink) (*Topology, error) {
	return topo.MultiAS(name, members, borders)
}

// ASRing joins asCount ring-shaped ASes of asSize switches into a ring of
// domains — the inter-domain analogue of the paper's Fig. 3 rings.
func ASRing(asCount, asSize int) *Topology { return topo.ASRing(asCount, asSize) }

// NewDashboard creates the red/green GUI for a deployment's topology; wire
// its Update method to Options.OnStatus.
func NewDashboard(g *Topology) *Dashboard { return gui.New(g, core.DPIDForNode) }

// NewVideoServer creates the demo's video source on a deployment host.
func NewVideoServer(cfg stream.ServerConfig) (*VideoServer, error) { return stream.NewServer(cfg) }

// NewVideoClient binds the demo's video sink on a deployment host.
func NewVideoClient(h *Host, port uint16, clk clock.Clock) (*VideoClient, error) {
	return stream.NewClient(h, port, clk)
}

// DefaultExperimentTimers returns the RFC 2328 protocol timers the
// experiments run with (hello 10s, dead 40s, SPF delay 200ms) — the values
// a Quagga ospfd would default to on the paper's testbed.
func DefaultExperimentTimers() Timers {
	return Timers{Hello: 10 * time.Second, Dead: 40 * time.Second, SPFDelay: 200 * time.Millisecond}
}
