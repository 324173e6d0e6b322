package core

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/cluster"
	"routeflow/internal/ctlkit"
	"routeflow/internal/discovery"
	"routeflow/internal/flowvisor"
	"routeflow/internal/intent"
	"routeflow/internal/netemu"
	"routeflow/internal/ofswitch"
	"routeflow/internal/pkt"
	"routeflow/internal/quagga"
	"routeflow/internal/rf"
	"routeflow/internal/rpcconf"
	"routeflow/internal/te"
	"routeflow/internal/telemetry"
	"routeflow/internal/topo"
	"routeflow/internal/vnet"
)

// Options configures a Deployment.
type Options struct {
	// Topology is the physical network to emulate (required).
	Topology *topo.Graph
	// Clock drives every timer; use clock.Scaled to compress protocol time.
	Clock clock.Clock
	// Pool is the administrator's IP range for the virtual environment.
	// Default 172.16.0.0/16.
	Pool netip.Prefix
	// HostNodes lists graph nodes that get an attached end host. Host n
	// receives 10.(n+1).0.100/24 with the VM gateway at 10.(n+1).0.1.
	HostNodes []int
	// BootDelay models VM creation (default rf.DefaultBootDelay).
	BootDelay time.Duration
	// Timers for the VM routing daemons (zero = RFC defaults).
	Timers quagga.Timers
	// ProbeInterval / LinkTTL tune discovery (zero = package defaults).
	ProbeInterval time.Duration
	LinkTTL       time.Duration
	// OnStatus observes per-switch configuration state (GUI).
	OnStatus func(dpid uint64, state vnet.State)
	// RPCDropRate injects control-channel loss: each frame written by the
	// RPC client is dropped (and its connection cut) with this probability.
	// The reconciler must converge regardless — the failure scenario the
	// fire-and-forget design could not survive.
	RPCDropRate float64
	// RPCDropSeed makes injected loss reproducible (used when RPCDropRate
	// is non-zero).
	RPCDropSeed int64
	// ResyncProbe overrides the reconciler's idle epoch-probe period — how
	// quickly an rf-server restart is detected when no configuration is in
	// flight (0 = intent.DefaultResyncProbe).
	ResyncProbe time.Duration
	// Cluster sizes the distributed RF-controller. The zero value (or
	// Replicas ≤ 1) runs the paper's single rf-server with none of the
	// cluster machinery instantiated.
	Cluster ClusterSpec
	// RPCApplyDelay models the per-message work of the paper's RPC server
	// (VM cloning, config-file writes) inside each replica's apply lock —
	// the serialized cost that sharding the switch population divides.
	RPCApplyDelay time.Duration
	// Telemetry enables the streaming-stats pipeline: every directed host
	// pair becomes a monitored flow, observed at exactly one switch on its
	// live path (Floware-balanced placement), with per-flow counter deltas
	// streamed to the flow's master replica and rolled into per-flow and
	// per-link utilization views (TelemetrySnapshot).
	Telemetry bool
	// TelemetryInterval is the switches' export period
	// (0 = ofswitch.DefaultTelemetryInterval).
	TelemetryInterval time.Duration
	// TelemetrySpan is the rolling-window length of the utilization views
	// (0 = 5s).
	TelemetrySpan time.Duration
	// TE enables the online traffic-engineering loop: telemetry link
	// utilization is re-optimized every TEInterval, migrating the largest
	// movable flows off hot links onto colder equal-cost paths via pinned
	// flow entries. Implies Telemetry.
	TE bool
	// TEInterval paces optimization rounds (0 = 1s).
	TEInterval time.Duration
}

// Deployment is a fully wired automatic-configuration system under test: the
// paper's Fig. 2 plus the emulated data plane it manages.
type Deployment struct {
	opts  Options
	clk   clock.Clock
	graph *topo.Graph

	net      *netemu.Network
	switches map[uint64]*ofswitch.Switch
	hosts    map[int]*netemu.Host
	hostGWs  map[int]netip.Addr
	hostEPs  map[int]*netemu.Endpoint
	cables   map[int][2]*netemu.Endpoint // link index → endpoints

	fv      *flowvisor.FlowVisor // shared proxy (single-controller mode)
	fvs     []*flowvisor.FlowVisor
	topoCtl *ctlkit.Controller
	disc    *discovery.Discovery
	tc      *TopologyController

	// reps holds one rf-controller instance per replica; single-controller
	// deployments have exactly one. The cluster fields stay nil/empty unless
	// Cluster.Replicas > 1.
	reps       []*replica
	coord      *cluster.Coordinator
	shardOf    map[uint64]int // dpid → shard index
	shardDPIDs [][]uint64     // shard index → member dpids, ascending

	listeners []*ctlkit.MemListener

	// Telemetry placement-manager state (telemetry.go).
	telStop     chan struct{}
	telStopOnce sync.Once
	telWG       sync.WaitGroup
	telMu       sync.Mutex
	telEpoch    uint64
	telSig      string
	telPlaced   []telemetry.Placement
	// telPushMu serializes whole refreshTelemetry runs: the placement loop
	// and the TE loop both call it, and program pushes must reach the
	// platforms in epoch order.
	telPushMu sync.Mutex

	// Traffic-engineering state (te.go).
	teMu       sync.Mutex
	teEngine   *te.Engine
	teAssigned map[[2]int][]int
	teMoves    uint64

	startedAt time.Time
	mu        sync.Mutex
	started   bool
}

// DPIDForNode maps a graph node to its datapath ID (node IDs are 0-based;
// dpid 0 is avoided by convention).
func DPIDForNode(node int) uint64 { return uint64(node) + 1 }

// HostSubnet returns the conventional host subnet for a graph node.
func HostSubnet(node int) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", node+1))
}

// NewDeployment assembles (but does not start) a system.
func NewDeployment(opts Options) (*Deployment, error) {
	if opts.Topology == nil {
		return nil, fmt.Errorf("core: Options.Topology is required")
	}
	if opts.Clock == nil {
		opts.Clock = clock.System()
	}
	if !opts.Pool.IsValid() {
		opts.Pool = netip.MustParsePrefix("172.16.0.0/16")
	}
	if opts.TE {
		opts.Telemetry = true // TE consumes the telemetry utilization view
	}
	d := &Deployment{
		opts:     opts,
		clk:      opts.Clock,
		graph:    opts.Topology,
		net:      netemu.NewNetwork(opts.Clock),
		switches: make(map[uint64]*ofswitch.Switch),
		hosts:    make(map[int]*netemu.Host),
		hostGWs:  make(map[int]netip.Addr),
		hostEPs:  make(map[int]*netemu.Endpoint),
		cables:   make(map[int][2]*netemu.Endpoint),
		telStop:  make(chan struct{}),
	}
	if opts.TE {
		d.teEngine = te.New(te.Config{})
		d.teAssigned = make(map[[2]int][]int)
	}
	if err := d.build(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *Deployment) build() error {
	g := d.graph
	// Switches.
	for _, n := range g.Nodes() {
		dpid := DPIDForNode(n.ID)
		d.switches[dpid] = ofswitch.New(ofswitch.Config{DPID: dpid, Name: fmt.Sprintf("s%d", n.ID), Clock: d.clk})
	}
	// Inter-switch cables.
	for i, l := range g.Links() {
		aDPID, bDPID := DPIDForNode(l.A), DPIDForNode(l.B)
		epA, epB := d.net.NewCable(netemu.CableOpts{
			NameA: fmt.Sprintf("s%d:%d", l.A, l.APort),
			NameB: fmt.Sprintf("s%d:%d", l.B, l.BPort),
			MACA:  pkt.LocalMAC(aDPID<<16 | uint64(l.APort)),
			MACB:  pkt.LocalMAC(bDPID<<16 | uint64(l.BPort)),
		})
		if err := d.switches[aDPID].AttachPort(uint16(l.APort), epA); err != nil {
			return err
		}
		if err := d.switches[bDPID].AttachPort(uint16(l.BPort), epB); err != nil {
			return err
		}
		d.cables[i] = [2]*netemu.Endpoint{epA, epB}
	}
	// Hosts and their admin configuration.
	var admin []HostAttachment
	for _, node := range d.opts.HostNodes {
		n, ok := g.Node(node)
		if !ok {
			return fmt.Errorf("core: host node %d not in topology", node)
		}
		port, err := g.SetHost(n.ID)
		if err != nil {
			return err
		}
		dpid := DPIDForNode(n.ID)
		sub := HostSubnet(n.ID)
		gw := netip.PrefixFrom(sub.Addr().Next(), sub.Bits()) // .1
		hostIP := sub.Addr()
		for i := 0; i < 100; i++ {
			hostIP = hostIP.Next()
		}
		swEP, hostEP := d.net.NewCable(netemu.CableOpts{
			NameA: fmt.Sprintf("s%d:%d", n.ID, port),
			NameB: fmt.Sprintf("h%d", n.ID),
			MACA:  pkt.LocalMAC(dpid<<16 | uint64(port)),
			MACB:  pkt.LocalMAC(0x7f<<32 | dpid),
		})
		if err := d.switches[dpid].AttachPort(uint16(port), swEP); err != nil {
			return err
		}
		host, err := netemu.NewHost(netemu.HostConfig{
			Name:    fmt.Sprintf("h%d", n.ID),
			Addr:    netip.PrefixFrom(hostIP, sub.Bits()),
			Gateway: gw.Addr(),
		}, hostEP, d.clk)
		if err != nil {
			return err
		}
		d.hosts[node] = host
		d.hostGWs[node] = gw.Addr()
		d.hostEPs[node] = hostEP
		admin = append(admin, HostAttachment{
			DPID: dpid, Port: uint16(port), Gateway: gw,
		})
	}

	// RF-controller replicas, each with its own embedded RPC server. One
	// replica is the paper's single rf-server; more than one is the
	// distributed controller: every platform is sharded and a lease
	// coordinator arbitrates shard ownership.
	nrep := d.opts.Cluster.Replicas
	if nrep <= 0 {
		nrep = 1
	}
	senders := make([]intent.Sender, nrep)
	for i := 0; i < nrep; i++ {
		platform, err := rf.New(rf.Config{
			Clock:      d.clk,
			Pool:       d.opts.Pool,
			BootDelay:  d.opts.BootDelay,
			Timers:     d.opts.Timers,
			OnStatus:   d.opts.OnStatus,
			Sharded:    nrep > 1,
			ApplyDelay: d.opts.RPCApplyDelay,
		})
		if err != nil {
			return err
		}
		rep := &replica{id: i, platform: platform}
		rep.alive.Store(true)
		rep.rpcSrv = rpcconf.NewServer(platform.RPCHandler())
		rpcL := ctlkit.NewMemListener(fmt.Sprintf("rpc-server-%d", i))
		rep.rpcLn.Store(rpcL)
		go rep.rpcSrv.Serve(rpcL)
		// The dialer reads the listener through the atomic pointer so an
		// rf-server restart (RestartRFServer) transparently redirects redials
		// to the new incarnation, and gates on liveness so a dead or
		// partitioned replica is unreachable mid-dial. Loss is always injected
		// through a LossInjector so scenarios can raise and clear the drop
		// rate mid-run; the seed is offset per replica to keep multi-replica
		// loss runs reproducible (replica 0 keeps the historical stream).
		rep.loss = rpcconf.NewLossInjector(d.opts.RPCDropRate, d.opts.RPCDropSeed+int64(i))
		rpcDial := rep.loss.Dialer(func() (net.Conn, error) {
			if !rep.alive.Load() {
				return nil, fmt.Errorf("core: replica %d is dead", rep.id)
			}
			if rep.partitioned.Load() {
				return nil, fmt.Errorf("core: replica %d is partitioned", rep.id)
			}
			return rep.rpcLn.Load().Dial()
		})
		rep.cli = rpcconf.NewClient(rpcDial, d.clk)
		senders[i] = rep.cli
		d.reps = append(d.reps, rep)
	}
	if nrep > 1 {
		d.computeShards()
		coord, err := cluster.New(cluster.Config{
			Shards:   len(d.shardDPIDs),
			Replicas: nrep,
			Policy:   d.opts.Cluster.Policy,
			LeaseTTL: d.opts.Cluster.LeaseTTL,
			Renew:    d.opts.Cluster.LeaseRenew,
			Clock:    d.clk,
			OnChange: d.onAssignments,
		})
		if err != nil {
			return err
		}
		d.coord = coord
	}

	// Topology controller: discovery + RPC client.
	var discOpts []discovery.Option
	if d.opts.ProbeInterval > 0 {
		discOpts = append(discOpts, discovery.WithProbeInterval(d.opts.ProbeInterval))
	}
	if d.opts.LinkTTL > 0 {
		discOpts = append(discOpts, discovery.WithLinkTTL(d.opts.LinkTTL))
	}
	d.disc = discovery.New(d.clk, discOpts...)

	d.topoCtl = ctlkit.New("topology-controller", d.clk, d.disc.Callbacks())
	var recOpts []intent.Option
	if d.opts.ResyncProbe > 0 {
		recOpts = append(recOpts, intent.WithResyncProbe(d.opts.ResyncProbe))
	}
	var ownerOf func(uint64) (int, bool)
	if d.clustered() {
		ownerOf = d.ownerOfDPID
	}
	var err error
	d.tc, err = NewTopologyController(d.clk, d.disc, d.topoCtl, senders,
		d.opts.Pool, 30, admin, ownerOf, recOpts...)
	if err != nil {
		return err
	}
	// AS annotations from the topology become administrator input to the
	// controller: switch and link declarations carry them, and the
	// RF-controller derives every VM's BGP configuration from there.
	asns := make(map[uint64]uint32)
	for _, n := range g.Nodes() {
		if n.AS > 0xffff {
			// Reject here, not deep in the VM boot path, where the error
			// would put the reconciler into a permanent retry loop.
			return fmt.Errorf("core: node %d AS %d exceeds 16 bits (the BGP engine speaks classic 2-byte ASNs)", n.ID, n.AS)
		}
		if n.AS != 0 {
			asns[DPIDForNode(n.ID)] = n.AS
		}
	}
	d.tc.SetASNs(asns)
	return nil
}

// Start connects everything and begins automatic configuration. It returns
// immediately; use the Await helpers to observe progress.
func (d *Deployment) Start() error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return fmt.Errorf("core: deployment already started")
	}
	d.started = true
	d.startedAt = d.clk.Now()
	d.mu.Unlock()

	dialFor := make(map[uint64]func() (net.Conn, error), len(d.switches))
	switch {
	case !d.clustered():
		topoL := ctlkit.NewMemListener("topology-controller")
		rfL := ctlkit.NewMemListener("rf-controller")
		fvL := ctlkit.NewMemListener("flowvisor")
		d.listeners = append(d.listeners, topoL, rfL, fvL)
		go d.topoCtl.Serve(topoL)
		go d.reps[0].platform.Controller().Serve(rfL)
		d.fv = flowvisor.New("fv", []flowvisor.Slice{
			flowvisor.LLDPSlice("topology", topoL.Dial),
			flowvisor.DefaultSlice("rf", rfL.Dial),
		})
		go d.fv.Serve(fvL)
		for dpid := range d.switches {
			dialFor[dpid] = fvL.Dial
		}
	default:
		// Distributed controller: one topology controller sees every switch,
		// but each switch's rf slice must follow mastership. Every replica
		// serves its own switch-facing listener, and every switch gets its
		// own proxy whose rf slice dials the switch's *current* master — so a
		// failover is just the old session dying and the redial landing on
		// the successor.
		topoL := ctlkit.NewMemListener("topology-controller")
		d.listeners = append(d.listeners, topoL)
		go d.topoCtl.Serve(topoL)
		for _, rep := range d.reps {
			rep.rfLn = ctlkit.NewMemListener(fmt.Sprintf("rf-controller-%d", rep.id))
			go rep.platform.Controller().Serve(rep.rfLn)
		}
		// Initial shard assignment happens synchronously inside Run: every
		// platform has adopted its shards before any switch connects.
		d.coord.Run()
		for dpid := range d.switches {
			fv := flowvisor.New(fmt.Sprintf("fv-%x", dpid), []flowvisor.Slice{
				flowvisor.LLDPSlice("topology", topoL.Dial),
				flowvisor.DefaultSlice("rf", func() (net.Conn, error) { return d.dialRFMaster(dpid) }),
			})
			d.fvs = append(d.fvs, fv)
			fvL := ctlkit.NewMemListener(fmt.Sprintf("flowvisor-%x", dpid))
			d.listeners = append(d.listeners, fvL)
			go fv.Serve(fvL)
			dialFor[dpid] = fvL.Dial
		}
	}
	d.tc.Run()
	if d.opts.Telemetry {
		// Seed the monitoring program before any switch connects (in cluster
		// mode shard ownership is already settled by coord.Run above), then
		// keep re-evaluating it against link state and mastership.
		d.refreshTelemetry()
		d.telWG.Add(1)
		go d.telemetryLoop()
		if d.opts.TE {
			d.telWG.Add(1)
			go d.teLoop()
		}
	}

	for dpid, sw := range d.switches {
		// StartDialer, not Start: a switch whose control session dies (echo
		// keepalive cut under load, proxy restart, mastership transfer)
		// redials instead of leaving the node dark forever — the
		// discovery/intent pipeline then re-declares it and the reconciler
		// re-configures it on its current master.
		swDial := dialFor[dpid]
		if err := sw.StartDialer(func() (io.ReadWriteCloser, error) { return swDial() }); err != nil {
			return err
		}
	}
	return nil
}
