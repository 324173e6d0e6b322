package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/discovery"
	"routeflow/internal/flowvisor"
	"routeflow/internal/netemu"
	"routeflow/internal/ofswitch"
	"routeflow/internal/rf"
	"routeflow/internal/topo"
)

// Graph returns the deployment's topology.
func (d *Deployment) Graph() *topo.Graph { return d.graph }

// Platform returns the RF-controller platform — the one platform of a
// single-controller deployment, replica 0 of a cluster. Cluster-aware
// callers should resolve a switch's master with OwnerPlatform instead.
func (d *Deployment) Platform() *rf.Platform { return d.reps[0].platform }

// Discovery returns the topology controller's discovery module.
func (d *Deployment) Discovery() *discovery.Discovery { return d.disc }

// TopologyController returns the auto-configuration application.
func (d *Deployment) TopologyController() *TopologyController { return d.tc }

// FlowVisor returns the proxy, or nil in a clustered deployment.
func (d *Deployment) FlowVisor() *flowvisor.FlowVisor { return d.fv }

// Switch returns the emulated switch for a graph node.
func (d *Deployment) Switch(node int) (*ofswitch.Switch, bool) {
	sw, ok := d.switches[DPIDForNode(node)]
	return sw, ok
}

// Host returns the end host attached at a graph node (if configured).
func (d *Deployment) Host(node int) (*netemu.Host, bool) {
	h, ok := d.hosts[node]
	return h, ok
}

// HostGateway returns the gateway address the VM serves for a host node.
func (d *Deployment) HostGateway(node int) (netip.Addr, bool) {
	g, ok := d.hostGWs[node]
	return g, ok
}

// SetLinkUp raises or cuts an inter-switch link by its index in
// Graph().Links() — the failure-injection hook.
func (d *Deployment) SetLinkUp(linkIndex int, up bool) error {
	eps, ok := d.cables[linkIndex]
	if !ok {
		return fmt.Errorf("core: no link %d", linkIndex)
	}
	eps[0].SetLinkUp(up)
	return nil
}

// LinkIsUp reports whether inter-switch link linkIndex is administratively
// up (false also for unknown indices).
func (d *Deployment) LinkIsUp(linkIndex int) bool {
	eps, ok := d.cables[linkIndex]
	return ok && eps[0].LinkUp()
}

// HostNodes returns the graph nodes carrying an end host, ascending.
func (d *Deployment) HostNodes() []int {
	out := make([]int, 0, len(d.hosts))
	for n := range d.hosts {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// liveComponentIDs labels every graph node with the connected component it
// belongs to when only administratively-up links are considered.
func (d *Deployment) liveComponentIDs() []int {
	n := d.graph.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	adj := make([][]int, n)
	for i, l := range d.graph.Links() {
		if d.LinkIsUp(i) {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
	}
	next := 0
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		comp[start] = next
		queue := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp
}

// LiveComponents returns the connected components of the live topology
// (administratively-up links only), each sorted, in first-node order.
func (d *Deployment) LiveComponents() [][]int {
	comp := d.liveComponentIDs()
	var out [][]int
	for node, c := range comp {
		for c >= len(out) {
			out = append(out, nil)
		}
		out[c] = append(out[c], node)
	}
	return out
}

// Partitioned reports whether administrative link failures have split the
// topology into more than one component. AwaitConverged succeeds on a
// partitioned-but-quiesced network; this is how callers tell that case apart
// from full convergence.
func (d *Deployment) Partitioned() bool { return len(d.LiveComponents()) > 1 }

// SameLiveComponent reports whether two graph nodes are connected in the
// live topology.
func (d *Deployment) SameLiveComponent(a, b int) bool {
	comp := d.liveComponentIDs()
	if a < 0 || b < 0 || a >= len(comp) || b >= len(comp) {
		return false
	}
	return comp[a] == comp[b]
}

// CrashSwitch reboots the emulated switch at a graph node: flow table and
// buffered packets are lost, the control session is cut, and the switch
// redials. Discovery observes the loss, the reconciler tears down and then
// rebuilds the switch's configuration, and AwaitConverged reports when the
// network has healed.
func (d *Deployment) CrashSwitch(node int) error {
	sw, ok := d.switches[DPIDForNode(node)]
	if !ok {
		return fmt.Errorf("core: no switch at node %d", node)
	}
	sw.Reboot()
	return nil
}

// RestartRFServer crash-restarts the rf-server's RPC endpoint: the current
// incarnation stops (live connections cut, dedup horizon and epoch lost) and
// a fresh one starts. The reconciler notices the epoch change on its next
// ack or idle probe and re-syncs the full desired state; the rf apply paths
// are idempotent, so the system reconverges.
func (d *Deployment) RestartRFServer() {
	for _, rep := range d.reps {
		if rep.alive.Load() && !rep.partitioned.Load() {
			rep.restartServer()
		}
	}
}

// SetRPCLossRate changes the control-channel frame-drop probability while
// the system runs — the RPC loss *burst* fault. The drop decisions stay
// seeded by Options.RPCDropSeed.
func (d *Deployment) SetRPCLossRate(rate float64) {
	for _, rep := range d.reps {
		rep.loss.SetRate(rate)
	}
}

// RPCServerApplied returns how many configuration messages the *current*
// rf-server incarnations have applied, summed across live replicas (a
// RestartRFServer resets it) — the observable that proves a post-restart
// re-sync actually replayed state.
func (d *Deployment) RPCServerApplied() uint64 {
	var total uint64
	for _, rep := range d.reps {
		if rep.alive.Load() {
			total += rep.applied()
		}
	}
	return total
}

// Elapsed returns protocol time since Start (on a scaled clock this is
// already protocol time, not wall time).
func (d *Deployment) Elapsed() time.Duration { return d.clk.Since(d.startedAt) }

// Clock returns the clock every timer of the deployment runs on, for traffic
// sources and sinks that must share its protocol time.
func (d *Deployment) Clock() clock.Clock { return d.clk }

// pollUntil polls cond every millisecond of wall time until it holds or the
// protocol-time budget is exhausted. It returns the protocol time elapsed
// since Start.
func (d *Deployment) pollUntil(timeout time.Duration, what string, cond func() bool) (time.Duration, error) {
	deadline := d.clk.Now().Add(timeout)
	for {
		if cond() {
			return d.Elapsed(), nil
		}
		if d.clk.Now().After(deadline) {
			return d.Elapsed(), fmt.Errorf("core: timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// AwaitConfigured blocks until every switch is green — it has a running VM
// (the paper's configuration criterion) — and returns the protocol time
// from Start to that moment (the Fig. 3 "automatic" measurement).
func (d *Deployment) AwaitConfigured(timeout time.Duration) (time.Duration, error) {
	return d.pollUntil(timeout, "all switches configured", func() bool {
		for dpid := range d.switches {
			p, _, ok := d.ownerPlatform(dpid)
			if !ok || !p.Configured(dpid) {
				return false
			}
		}
		return true
	})
}

// AwaitConverged blocks until the system is *actually* converged on its
// current live topology and returns the protocol time since Start.
// Converged means:
//
//   - every declared configuration item has been acknowledged by the
//     rf-server (the desired-state store drained);
//   - discovery's link view agrees with the administrative state of every
//     cable — a freshly cut (or restored) link the control plane has not yet
//     processed blocks convergence instead of slipping past it;
//   - every VM's OSPF has exactly one Full adjacency per *live* inter-switch
//     link — neither missing adjacencies nor stale ones on dead links;
//   - every host gateway is configured on its VM and every VM *in the same
//     live component* has a route to the host subnet — so "converged" can no
//     longer report success while a reachable host is unreachable (the
//     pre-refactor demo flake).
//
// A partitioned network therefore converges honestly: AwaitConverged returns
// once every component has quiesced, and Partitioned() distinguishes that
// state from full convergence. Unreachability across a partition is the
// correct outcome, not a wedge — and a wedge (a component that never
// quiesces) still times out with a diagnostic.
func (d *Deployment) AwaitConverged(timeout time.Duration) (time.Duration, error) {
	el, err := d.pollUntil(timeout, "OSPF convergence", func() bool {
		return d.convergenceGap() == ""
	})
	if err != nil {
		if gap := d.convergenceGap(); gap != "" {
			err = fmt.Errorf("%w (%s)", err, gap)
		}
	}
	return el, err
}

// ConvergenceGap names the first unmet convergence condition, or "" when
// converged on the live topology — the diagnostic behind AwaitConverged.
func (d *Deployment) ConvergenceGap() string { return d.convergenceGap() }

func (d *Deployment) convergenceGap() string {
	for i, st := range d.tc.Stores() {
		if !st.Converged() {
			return fmt.Sprintf("intent store %d not drained: %+v pending=%v lastErrs=%v",
				i, st.Statistics(), st.PendingItems(), d.tc.LastErrors())
		}
	}
	// Discovery must have caught up with the administrative link state:
	// otherwise a just-cut link still has its intent acked and its routes
	// installed, and we would declare a stale view "converged".
	discovered := make(map[discovery.Link]bool)
	for _, l := range d.disc.Links() {
		discovered[l] = true
	}
	// Live degrees split by domain role: OSPF owns intra-AS adjacencies,
	// BGP owns border sessions. On a flat (unannotated) topology every link
	// is intra-AS and the border side vanishes.
	liveIntra := make([]int, d.graph.NumNodes())
	liveBorder := make([]int, d.graph.NumNodes())
	for i, l := range d.graph.Links() {
		key := discovery.Link{
			ADPID: DPIDForNode(l.A), APort: uint16(l.APort),
			BDPID: DPIDForNode(l.B), BPort: uint16(l.BPort),
		}.Canonical()
		up := d.LinkIsUp(i)
		if up != discovered[key] {
			return fmt.Sprintf("discovery lags link %d (%v): administratively up=%v, discovered=%v",
				i, key, up, discovered[key])
		}
		if up {
			if d.graph.IsBorderLink(i) {
				liveBorder[l.A]++
				liveBorder[l.B]++
			} else {
				liveIntra[l.A]++
				liveIntra[l.B]++
			}
		}
	}
	comp := d.liveComponentIDs()
	for _, n := range d.graph.Nodes() {
		vm, ok := d.vmOf(DPIDForNode(n.ID))
		if !ok {
			return fmt.Sprintf("node %d has no VM on its master (master=%d)", n.ID, d.MasterOf(n.ID))
		}
		if full := vm.Router().OSPF().FullNeighbors(); full != liveIntra[n.ID] {
			return fmt.Sprintf("node %d OSPF %d/%d live adjacencies Full; ports=%v neighbors=%q",
				n.ID, full, liveIntra[n.ID], vm.ConfiguredPorts(), vm.Router().ShowOSPFNeighbors())
		}
		if n.AS != 0 {
			speaker := vm.Router().BGP()
			if speaker == nil {
				return fmt.Sprintf("node %d (AS %d) has no bgpd", n.ID, n.AS)
			}
			// Exactly one Established session per live border link plus one
			// per same-AS peer in the same live component (the iBGP mesh).
			// Sessions across a partition or a dead border must have dropped
			// (hold expiry) — stale Established sessions block convergence,
			// mirroring the stale-adjacency rule above.
			want := liveBorder[n.ID]
			for _, m := range d.graph.Nodes() {
				if m.ID != n.ID && m.AS == n.AS && comp[m.ID] == comp[n.ID] {
					want++
				}
			}
			if got := speaker.EstablishedCount(); got != want {
				return fmt.Sprintf("node %d (AS %d) BGP %d/%d sessions Established: %+v",
					n.ID, n.AS, got, want, speaker.Sessions())
			}
		}
	}
	for node, gw := range d.hostGWs {
		vm, ok := d.vmOf(DPIDForNode(node))
		if !ok {
			return fmt.Sprintf("host node %d has no VM on its master", node)
		}
		hostPort, ok := d.graph.HostPort(node)
		if !ok {
			return fmt.Sprintf("host node %d has no host port in the graph", node)
		}
		addr, ok := vm.InterfaceAddr(uint16(hostPort))
		if !ok || addr.Addr() != gw {
			return fmt.Sprintf("host node %d gateway %v not configured (got %v)", node, gw, addr)
		}
		for _, n := range d.graph.Nodes() {
			if comp[n.ID] != comp[node] {
				continue // honestly unreachable across the partition
			}
			peer, ok := d.vmOf(DPIDForNode(n.ID))
			if !ok {
				return fmt.Sprintf("node %d has no VM on its master", n.ID)
			}
			if _, ok := peer.RIB().Lookup(gw); !ok {
				return fmt.Sprintf("node %d has no route to host gateway %v", n.ID, gw)
			}
		}
	}
	return ""
}

// Close tears the whole system down.
func (d *Deployment) Close() {
	d.telStopOnce.Do(func() { close(d.telStop) })
	d.telWG.Wait()
	if d.tc != nil {
		d.tc.Stop()
	}
	if d.coord != nil {
		d.coord.Stop()
	}
	if d.fv != nil {
		d.fv.Stop()
	}
	for _, fv := range d.fvs {
		fv.Stop()
	}
	if d.topoCtl != nil {
		d.topoCtl.Stop()
	}
	for _, rep := range d.reps {
		rep.platform.Stop()
		rep.cli.Close()
		rep.closeServer()
		if rep.rfLn != nil {
			rep.rfLn.Close()
		}
	}
	for _, l := range d.listeners {
		l.Close()
	}
	for _, sw := range d.switches {
		sw.Stop()
	}
	for _, h := range d.hosts {
		h.Close()
	}
	if d.net != nil {
		d.net.Close()
	}
}
