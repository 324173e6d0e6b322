package core

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/quagga"
	"routeflow/internal/topo"
	"routeflow/internal/vnet"
)

// fastOptions returns deployment options with compressed protocol timers so
// an integration test runs in well under a second of wall time per phase.
func fastOptions(g *topo.Graph, hostNodes ...int) Options {
	return Options{
		Topology:      g,
		HostNodes:     hostNodes,
		BootDelay:     50 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		LinkTTL:       60 * time.Millisecond,
		Timers: quagga.Timers{
			Hello:    20 * time.Millisecond,
			Dead:     100 * time.Millisecond,
			SPFDelay: 5 * time.Millisecond,
			// BGP timers only matter on AS-annotated topologies; compressed
			// to the same scale as the OSPF timers.
			BGPHold:         300 * time.Millisecond,
			BGPConnectRetry: 50 * time.Millisecond,
		},
	}
}

func TestManualModel(t *testing.T) {
	m := DefaultManualModel()
	if m.PerSwitch() != 15*time.Minute {
		t.Fatalf("per switch = %v", m.PerSwitch())
	}
	// The paper's headline: 7 hours for 28 switches.
	if m.Total(28) != 7*time.Hour {
		t.Fatalf("total(28) = %v, want 7h", m.Total(28))
	}
	// Zero-value model inherits defaults.
	var z ManualModel
	if z.Total(1) != 15*time.Minute {
		t.Fatalf("zero-value total = %v", z.Total(1))
	}
	custom := ManualModel{VMCreation: time.Minute}
	if custom.PerSwitch() != time.Minute+2*time.Minute+8*time.Minute {
		t.Fatalf("custom = %v", custom.PerSwitch())
	}
}

func TestDPIDAndSubnetHelpers(t *testing.T) {
	if DPIDForNode(0) != 1 || DPIDForNode(27) != 28 {
		t.Fatal("dpid mapping")
	}
	if HostSubnet(0) != netip.MustParsePrefix("10.1.0.0/24") {
		t.Fatalf("host subnet = %v", HostSubnet(0))
	}
}

func TestDeploymentValidation(t *testing.T) {
	if _, err := NewDeployment(Options{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := NewDeployment(Options{Topology: topo.Ring(3), HostNodes: []int{99}}); err == nil {
		t.Fatal("bad host node accepted")
	}
}

func TestRingAutoConfigurationEndToEnd(t *testing.T) {
	g := topo.Ring(4)
	d, err := NewDeployment(fastOptions(g, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	statuses := make(chan vnet.State, 64)
	d.opts.OnStatus = nil // set via Options normally; validated in another test
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	_ = statuses

	// Phase 1: every switch gets its VM (green) — the Fig. 3 metric.
	cfgTime, err := d.AwaitConfigured(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cfgTime <= 0 {
		t.Fatalf("configuration time = %v", cfgTime)
	}
	if d.Platform().NumVMs() != 4 {
		t.Fatalf("VMs = %d", d.Platform().NumVMs())
	}

	// Phase 2: OSPF adjacencies on all ring links.
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The RPC server must have written config files for each VM.
	files, ok := d.Platform().ConfigFiles(DPIDForNode(1))
	if !ok {
		t.Fatal("no config files for node 1")
	}
	for _, name := range []string{"zebra.conf", "ospfd.conf", "bgpd.conf"} {
		if files[name] == "" {
			t.Fatalf("%s missing", name)
		}
	}
	if !strings.Contains(files["ospfd.conf"], "router ospf") {
		t.Fatal("ospfd.conf lacks router stanza")
	}

	// Phase 3: actual dataplane connectivity — host 0 pings host 2 across
	// two OSPF-routed hops.
	h0, _ := d.Host(0)
	h2, _ := d.Host(2)
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = h0.Ping(h2.Addr(), 2*time.Second); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("host0 could not reach host2: %v", lastErr)
	}

	// Fast-path flows must exist by now (host /32s and OSPF prefixes).
	if d.Platform().FlowCount(DPIDForNode(0)) == 0 {
		t.Fatal("no flows installed on switch 0")
	}
	// The FlowVisor carried both slices' traffic.
	if c, ok := d.FlowVisor().Counters("topology"); !ok || c.PacketIns == 0 {
		t.Fatalf("topology slice counters = %+v, %v", c, ok)
	}
	if c, ok := d.FlowVisor().Counters("rf"); !ok || c.ToSwitch == 0 {
		t.Fatalf("rf slice counters = %+v, %v", c, ok)
	}
}

func TestStatusCallbackLifecycle(t *testing.T) {
	g := topo.Ring(3)
	opts := fastOptions(g)
	events := make(chan vnet.State, 32)
	opts.OnStatus = func(dpid uint64, st vnet.State) { events <- st }
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConfigured(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// We must have seen booting (red) before up (green).
	sawBooting, sawUp := false, false
	for {
		select {
		case st := <-events:
			if st == vnet.StateBooting {
				sawBooting = true
			}
			if st == vnet.StateUp {
				sawUp = true
			}
			if sawBooting && sawUp {
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("status events incomplete: booting=%v up=%v", sawBooting, sawUp)
		}
	}
}

func TestLinkFailureReconvergence(t *testing.T) {
	// Ring of 4: cut one link; OSPF must route around it.
	g := topo.Ring(4)
	d, err := NewDeployment(fastOptions(g, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	h0, _ := d.Host(0)
	h2, _ := d.Host(2)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := h0.Ping(h2.Addr(), 2*time.Second); err == nil {
			break
		}
	}
	// Cut the 0-1 link (index 0 in ring construction).
	if err := d.SetLinkUp(0, false); err != nil {
		t.Fatal(err)
	}
	if err := d.SetLinkUp(99, false); err == nil {
		t.Fatal("bogus link index accepted")
	}
	// Traffic must recover via the other ring direction after OSPF
	// reconverges (dead interval + SPF + flow reinstall).
	deadline = time.Now().Add(20 * time.Second)
	var lastErr error
	recovered := false
	for time.Now().Before(deadline) {
		if _, lastErr = h0.Ping(h2.Addr(), 2*time.Second); lastErr == nil {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("no connectivity after link failure: %v", lastErr)
	}
}

// TestPanEuropeanConvergesUnderRPCDrops is the acceptance scenario of the
// reconciliation refactor: with 20% of RPC frames dropped on the control
// channel (and the client's own retries cut to a single attempt so the
// reconciler carries the load), a full pan-European deployment still
// reaches configured *and* converged — including host gateway subnets.
// Under the fire-and-forget design a single dropped HostUp wedged a host
// gateway forever.
func TestPanEuropeanConvergesUnderRPCDrops(t *testing.T) {
	g := topo.PanEuropean()
	opts := fastOptions(g, 0, 27)
	// Gentler timers than the ring-4 tests: 28 switches × 41 links under
	// the race detector's slowdown must not miss dead intervals.
	opts.ProbeInterval = 50 * time.Millisecond
	opts.LinkTTL = 300 * time.Millisecond
	opts.Timers = quagga.Timers{
		Hello:    60 * time.Millisecond,
		Dead:     300 * time.Millisecond,
		SPFDelay: 10 * time.Millisecond,
	}
	opts.RPCDropRate = 0.2
	opts.RPCDropSeed = 7
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConfigured(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.TopologyController().Store().Statistics()
	if st.Failures == 0 {
		t.Fatalf("drop injection never exercised the reconciler: %+v", st)
	}
	// Bounded retries: convergence must come from backoff-paced repair, not
	// a hot resend loop. 28 switches + 41 links + 2 hosts ≈ 71 items; at a
	// 20% drop rate a generous ceiling is a few sends per item.
	if st.Sends > 1000 {
		t.Fatalf("unbounded retry storm: %+v", st)
	}
	// Converged now implies host gateways are routable: the demo's actual
	// payload path must come up.
	h0, _ := d.Host(0)
	h27, _ := d.Host(27)
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = h0.Ping(h27.Addr(), 2*time.Second); lastErr == nil {
			return
		}
	}
	t.Fatalf("hosts unreachable after converged under drops: %v", lastErr)
}

// TestLinkFlapStormReconverges flaps an inter-switch link repeatedly; the
// declarative pipeline must settle back to a fully converged, routable
// network every time the storm ends.
func TestLinkFlapStormReconverges(t *testing.T) {
	g := topo.Ring(4)
	d, err := NewDeployment(fastOptions(g, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.SetLinkUp(0, false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(80 * time.Millisecond) // past LinkTTL: discovery sees the loss
		if err := d.SetLinkUp(0, true); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	if _, err := d.AwaitConverged(30 * time.Second); err != nil {
		t.Fatalf("never reconverged after flap storm: %v", err)
	}
	h0, _ := d.Host(0)
	h2, _ := d.Host(2)
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = h0.Ping(h2.Addr(), 2*time.Second); lastErr == nil {
			return
		}
	}
	t.Fatalf("no connectivity after flap storm: %v", lastErr)
}

// TestConvergedImpliesHostGatewaysRouted pins the AwaitConverged contract:
// once it returns, every VM holds a route to every host gateway and the
// gateway interfaces carry their addresses.
func TestConvergedImpliesHostGatewaysRouted(t *testing.T) {
	g := topo.Ring(4)
	d, err := NewDeployment(fastOptions(g, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{1, 3} {
		gw, _ := d.HostGateway(node)
		for _, n := range d.Graph().Nodes() {
			vm, ok := d.Platform().VM(DPIDForNode(n.ID))
			if !ok {
				t.Fatalf("no VM for node %d", n.ID)
			}
			if _, ok := vm.RIB().Lookup(gw); !ok {
				t.Fatalf("node %d has no route to gateway %v after converged", n.ID, gw)
			}
		}
	}
}

func TestTopologyControllerAllocatorExposed(t *testing.T) {
	g := topo.Ring(3)
	d, err := NewDeployment(fastOptions(g))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Three ring links → three /30 allocations.
	if got := len(d.TopologyController().Allocator().Allocated()); got != 3 {
		t.Fatalf("allocated subnets = %d, want 3", got)
	}
	if d.Graph().NumNodes() != 3 {
		t.Fatal("graph accessor")
	}
	if _, ok := d.Switch(0); !ok {
		t.Fatal("switch accessor")
	}
	if _, ok := d.Host(0); ok {
		t.Fatal("host accessor should be empty (none configured)")
	}
	if _, ok := d.HostGateway(0); ok {
		t.Fatal("gateway accessor should be empty")
	}
	if err := d.Start(); err == nil {
		t.Fatal("double start accepted")
	}
}

// TestPartitionedConvergenceIsHonest is the regression test for the
// last-path-dies audit: when link failures split the topology,
// AwaitConverged must neither spin until its timeout nor pretend the network
// fully converged. It returns once every component has quiesced,
// Partitioned() reports the split, cross-partition traffic honestly fails,
// and healing the links restores full convergence and connectivity.
func TestPartitionedConvergenceIsHonest(t *testing.T) {
	g := topo.Ring(4) // links: 0:(0-1) 1:(1-2) 2:(2-3) 3:(3-0)
	d, err := NewDeployment(fastOptions(g, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Partitioned() {
		t.Fatal("intact ring reported partitioned")
	}

	// Cut links 0 and 2: components {0,3} and {1,2} — host 0 and host 2 land
	// on opposite sides, so the last path between them is gone.
	for _, li := range []int{0, 2} {
		if err := d.SetLinkUp(li, false); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if _, err := d.AwaitConverged(30 * time.Second); err != nil {
		t.Fatalf("partitioned-but-quiesced network never converged (wedge-indistinguishable): %v", err)
	}
	if time.Since(start) > 25*time.Second {
		t.Fatal("convergence on partition consumed nearly the whole timeout — it spun, not settled")
	}
	if !d.Partitioned() {
		t.Fatal("partition not reported after cutting the last path")
	}
	if comps := d.LiveComponents(); len(comps) != 2 {
		t.Fatalf("live components = %v, want 2", comps)
	}
	if d.SameLiveComponent(0, 2) || !d.SameLiveComponent(0, 3) || !d.SameLiveComponent(1, 2) {
		t.Fatalf("component labeling wrong: %v", d.LiveComponents())
	}
	h0, _ := d.Host(0)
	h2, _ := d.Host(2)
	if _, err := h0.Ping(h2.Addr(), 2*time.Second); err == nil {
		t.Fatal("ping crossed a partition after convergence reported the split")
	}

	// Heal and require full convergence plus connectivity again.
	for _, li := range []int{0, 2} {
		if err := d.SetLinkUp(li, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AwaitConverged(30 * time.Second); err != nil {
		t.Fatalf("never reconverged after healing: %v", err)
	}
	if d.Partitioned() {
		t.Fatal("healed ring still reported partitioned")
	}
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = h0.Ping(h2.Addr(), 2*time.Second); lastErr == nil {
			return
		}
	}
	t.Fatalf("no connectivity after heal: %v", lastErr)
}

// TestCrashSwitchRecovers reboots a transit switch: flow table and control
// session are lost, the dialer reconnects, and the deployment reconverges
// with traffic restored.
func TestCrashSwitchRecovers(t *testing.T) {
	g := topo.Ring(4)
	d, err := NewDeployment(fastOptions(g, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.CrashSwitch(1); err != nil {
		t.Fatal(err)
	}
	if err := d.CrashSwitch(99); err == nil {
		t.Fatal("bogus node accepted")
	}
	if _, err := d.AwaitConverged(40 * time.Second); err != nil {
		t.Fatalf("never reconverged after switch crash: %v", err)
	}
	h0, _ := d.Host(0)
	h2, _ := d.Host(2)
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = h0.Ping(h2.Addr(), 2*time.Second); lastErr == nil {
			return
		}
	}
	t.Fatalf("no connectivity after switch crash recovery: %v", lastErr)
}

// TestRFServerRestartResyncs crash-restarts the rf-server RPC endpoint at
// steady state; the reconciler's idle probe detects the epoch change and
// re-syncs, so the deployment reconverges without any topology change.
func TestRFServerRestartResyncs(t *testing.T) {
	g := topo.Ring(3)
	opts := fastOptions(g, 0)
	opts.ResyncProbe = 100 * time.Millisecond
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.RestartRFServer()
	// The restart cut every RPC connection and zeroed the new incarnation's
	// applied counter; the reconciler's idle probe observes the fresh epoch
	// and must replay the full desired state (3 switches + 3 links + 1 host).
	deadline := time.Now().Add(20 * time.Second)
	for d.RPCServerApplied() < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("re-sync never replayed desired state: applied=%d", d.RPCServerApplied())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := d.AwaitConverged(30 * time.Second); err != nil {
		t.Fatalf("never reconverged after rf-server restart: %v", err)
	}
}

// TestMultiASInterDomainColdBoot is the inter-domain acceptance bar: a ring
// of three ring-shaped ASes cold-boots — zero manual configuration beyond
// the AS annotation and host list — to full inter-domain reachability.
// Every VM runs bgpd next to ospfd, border links come up OSPF-passive with
// eBGP sessions, same-AS VMs mesh over iBGP loopbacks, and every host pair
// across AS boundaries exchanges traffic.
func TestMultiASInterDomainColdBoot(t *testing.T) {
	g := topo.ASRing(3, 3)  // 9 switches, ASes 64512..64514, 3 border links
	hosts := []int{1, 4, 7} // one host per AS
	d, err := NewDeployment(fastOptions(g, hosts...))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(120 * time.Second); err != nil {
		t.Fatalf("inter-domain convergence: %v", err)
	}
	if d.Partitioned() {
		t.Fatal("healthy multi-AS network reports a partition")
	}

	// Every VM in an AS runs a bgpd speaker; border routers hold an
	// Established eBGP session and the generated bgpd.conf names it.
	for _, n := range g.Nodes() {
		vm, ok := d.Platform().VM(DPIDForNode(n.ID))
		if !ok || vm.Router().BGP() == nil {
			t.Fatalf("node %d: no bgpd", n.ID)
		}
	}
	files, ok := d.Platform().ConfigFiles(DPIDForNode(0))
	if !ok || !strings.Contains(files["bgpd.conf"], "router bgp 64512") {
		t.Fatalf("border router bgpd.conf not generated:\n%s", files["bgpd.conf"])
	}
	if !strings.Contains(files["bgpd.conf"], "redistribute ospf") {
		t.Fatalf("bgpd.conf missing redistribution:\n%s", files["bgpd.conf"])
	}
	if !strings.Contains(files["ospfd.conf"], "passive-interface") {
		t.Fatalf("border ospfd.conf missing passive-interface:\n%s", files["ospfd.conf"])
	}

	// Cross-AS host reachability, every directed pair.
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			ha, _ := d.Host(a)
			hb, _ := d.Host(b)
			deadline := time.Now().Add(20 * time.Second)
			var lastErr error
			for {
				if _, lastErr = ha.Ping(hb.Addr(), 2*time.Second); lastErr == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("host %d cannot reach host %d across AS boundary: %v", a, b, lastErr)
				}
			}
		}
	}

	// The learned inter-domain routes carry the BGP administrative
	// distances: an interior VM (node 2, AS 64512) reaches a remote AS's
	// host subnet via iBGP.
	vm2, _ := d.Platform().VM(DPIDForNode(2))
	rt, ok := vm2.RIB().Lookup(netip.MustParseAddr("10.5.0.100"))
	if !ok {
		t.Fatal("interior VM has no route to the remote AS host subnet")
	}
	if rt.Source.String() != "ibgp" && rt.Source.String() != "ebgp" {
		t.Fatalf("remote host subnet learned via %v, want BGP", rt.Source)
	}
}

// TestMultiASBorderFailureReroutesViaBackupAS cuts the AS0–AS1 border of a
// 3-AS ring: traffic between the two domains must re-select the path through
// the backup AS, then re-optimize when the border heals.
func TestMultiASBorderFailureReroutesViaBackupAS(t *testing.T) {
	g := topo.ASRing(3, 3)
	border01 := -1
	for i, l := range g.Links() {
		if g.IsBorderLink(i) && g.AS(l.A) == 64512 && g.AS(l.B) == 64513 {
			border01 = i
		}
	}
	if border01 < 0 {
		t.Fatal("no AS0-AS1 border link found")
	}
	hosts := []int{1, 4}
	d, err := NewDeployment(fastOptions(g, hosts...))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(120 * time.Second); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}

	if err := d.SetLinkUp(border01, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(120 * time.Second); err != nil {
		t.Fatalf("convergence after border cut: %v", err)
	}
	if d.Partitioned() {
		t.Fatal("border cut must not partition the AS ring (backup AS exists)")
	}
	h1, _ := d.Host(1)
	h4, _ := d.Host(4)
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for {
		if _, lastErr = h1.Ping(h4.Addr(), 2*time.Second); lastErr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no path via backup AS after border cut: %v", lastErr)
		}
	}

	if err := d.SetLinkUp(border01, true); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(120 * time.Second); err != nil {
		t.Fatalf("convergence after border heal: %v", err)
	}

	// The border session loss must have charged flap damping, and that
	// state must have survived the discovery pipeline's neighbor
	// remove/re-add cycle (the Downs counter is restored with the peer).
	vm0, _ := d.Platform().VM(DPIDForNode(0))
	sawDown := false
	for _, sess := range vm0.Router().BGP().Sessions() {
		if !sess.IBGP && sess.Downs >= 1 {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatal("border session loss left no damping trace — the penalty died with the deconfigured neighbor")
	}
}

// A cold boot converges on events, not hello ticks: with the experiments'
// RFC timers (hello 10 s, dead 40 s, SPF delay 200 ms — the values of
// routeflow.DefaultExperimentTimers, which this package cannot import) every
// one of ten Ring(8) boots is fully converged in under one HelloInterval of
// protocol time. Before adjacencies formed on InterfaceUp and on the first
// 1-way hello, a boot took one or two hello intervals on top of the VM boot.
func TestColdBootConvergesInsideOneHelloInterval(t *testing.T) {
	const hello = 10 * time.Second
	for boot := 0; boot < 10; boot++ {
		d, err := NewDeployment(Options{
			Topology:  topo.Ring(8),
			HostNodes: []int{0, 4}, // converged then includes SPF: every VM routes to both gateways
			// 20×: a boot reads ≈2.3 protocol-s here and ≈2.9 under -race on
			// two vCPUs (2 s of it the VM boot); the emulation's own wall time
			// is what a larger factor would inflate into protocol time.
			Clock:         clock.Scaled(20),
			BootDelay:     2 * time.Second,
			ProbeInterval: time.Second,
			LinkTTL:       3 * time.Second,
			Timers:        quagga.Timers{Hello: hello, Dead: 40 * time.Second, SPFDelay: 200 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			d.Close()
			t.Fatal(err)
		}
		el, err := d.AwaitConverged(hello)
		d.Close()
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		t.Logf("boot %d converged after %v of protocol time", boot, el)
		if el >= hello {
			t.Fatalf("boot %d converged after %v, want under one HelloInterval (%v)", boot, el, hello)
		}
	}
}
