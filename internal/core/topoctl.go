// Package core implements the paper's contribution: the framework that
// configures RouteFlow automatically (Fig. 2). It contains
//
//   - the topology controller application: the LLDP discovery module plus
//     the logic that turns discovery events into *declared desired state* —
//     "on detection of a new switch" declare {dpid, #ports}; "on detection
//     of a new link" allocate unique IP addresses from the administrator's
//     range and declare them. A reconciler (internal/intent) continuously
//     diffs the declared state against what the rf-server has acknowledged
//     and (re)issues configuration RPCs with exponential backoff, so a
//     dropped message delays convergence instead of wedging it;
//   - the manual-configuration cost model the paper uses for Fig. 3's
//     baseline (5 min VM creation + 2 min mapping + 8 min routing
//     configuration per switch);
//   - Deployment, the orchestration that assembles a full system — emulated
//     switches, FlowVisor, both controllers, the RPC pair, end hosts — from
//     a topology, and the experiment instrumentation (time to configured,
//     time to converged) used to regenerate the paper's figures.
package core

import (
	"fmt"
	"net/netip"
	"sync"

	"routeflow/internal/clock"
	"routeflow/internal/ctlkit"
	"routeflow/internal/discovery"
	"routeflow/internal/intent"
	"routeflow/internal/ipam"
	"routeflow/internal/rpcconf"
)

// HostAttachment is administrator input: a switch port facing an end host
// and the gateway address its VM interface must carry.
type HostAttachment struct {
	DPID    uint64
	Port    uint16
	Gateway netip.Prefix
}

// declared is the registry record of one desired-state item — the raw
// material an ownership transfer re-declares into the new owner's store.
type declared struct {
	up, down *rpcconf.Message
}

// TopologyController is the paper's topology controller, refactored from
// fire-and-forget RPCs to declarative configuration: discovery + IP
// computation feed desired-state stores, and the embedded reconcilers
// drive the RF-controller replicas to them. With one replica (the paper's
// deployment) there is exactly one store and one reconciler; with N the
// controller scopes each item to the store(s) of the replica(s) mastering
// its switches and re-homes items on ownership transfer.
type TopologyController struct {
	clk     clock.Clock
	disc    *discovery.Discovery
	ctl     *ctlkit.Controller
	alloc   *ipam.Allocator
	stores  []*intent.Store
	recs    []*intent.Reconciler
	ownerOf func(dpid uint64) (int, bool)

	mu       sync.Mutex
	linkNets map[discovery.Link][2]netip.Prefix // allocated link endpoint addrs
	hosts    map[uint64][]HostAttachment
	// registry holds every currently declared item, independent of which
	// store carries it right now: the source of truth Rehome re-scopes from.
	registry map[intent.Key]declared
	// asns annotates datapaths with their autonomous system (empty = flat
	// single-domain). Declared switch and link messages carry it so the
	// RF-controller can derive per-VM BGP configuration.
	asns map[uint64]uint32

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	errMu    sync.Mutex
	lastErrs []string // ring of recent delivery failures (diagnostics)
}

// NewTopologyController builds the controller application. disc supplies
// events (its Callbacks must be wired into ctl by the caller — Deployment
// does this — so the same Discovery instance can also serve a merged
// controller); senders carry configuration messages to the RPC server of
// each RF-controller replica (one store + reconciler per sender). ownerOf
// maps a datapath to the replica currently mastering it; nil sends
// everything to replica 0 (the single-controller deployment).
func NewTopologyController(clk clock.Clock, disc *discovery.Discovery, ctl *ctlkit.Controller,
	senders []intent.Sender, pool netip.Prefix, subnetBits int, hosts []HostAttachment,
	ownerOf func(dpid uint64) (int, bool), recOpts ...intent.Option) (*TopologyController, error) {
	if clk == nil {
		clk = clock.System()
	}
	if subnetBits == 0 {
		subnetBits = 30
	}
	if len(senders) == 0 {
		return nil, fmt.Errorf("core: topology controller needs at least one RPC sender")
	}
	if ownerOf == nil {
		ownerOf = func(uint64) (int, bool) { return 0, true }
	}
	alloc, err := ipam.New(pool, subnetBits)
	if err != nil {
		return nil, err
	}
	tc := &TopologyController{
		clk:      clk,
		disc:     disc,
		ctl:      ctl,
		alloc:    alloc,
		ownerOf:  ownerOf,
		linkNets: make(map[discovery.Link][2]netip.Prefix),
		hosts:    make(map[uint64][]HostAttachment),
		registry: make(map[intent.Key]declared),
		asns:     make(map[uint64]uint32),
		stop:     make(chan struct{}),
	}
	for _, h := range hosts {
		tc.hosts[h.DPID] = append(tc.hosts[h.DPID], h)
	}
	for _, snd := range senders {
		store := intent.NewStore()
		opts := append([]intent.Option{intent.WithOnError(tc.report)}, recOpts...)
		tc.stores = append(tc.stores, store)
		tc.recs = append(tc.recs, intent.NewReconciler(clk, store, snd, opts...))
	}
	return tc, nil
}

// keyOwnedBy reports whether replica r is (one of) the master(s) of a key's
// switches: a link item belongs to the store of each endpoint's master.
func (tc *TopologyController) keyOwnedBy(k intent.Key, r int) bool {
	if k.Kind == intent.KindLink {
		if o, ok := tc.ownerOf(k.ADPID); ok && o == r {
			return true
		}
		if o, ok := tc.ownerOf(k.BDPID); ok && o == r {
			return true
		}
		return false
	}
	o, ok := tc.ownerOf(k.DPID)
	return ok && o == r
}

// declare records an item in the registry and declares it into the store of
// every replica mastering it. An item whose switches currently have no live
// master stays registry-only until Rehome places it.
func (tc *TopologyController) declare(k intent.Key, up, down *rpcconf.Message) {
	tc.mu.Lock()
	tc.registry[k] = declared{up, down}
	tc.mu.Unlock()
	for r, s := range tc.stores {
		if tc.keyOwnedBy(k, r) {
			s.Declare(k, up, down)
		}
	}
}

// remove drops an item from the registry and removes it from every store.
func (tc *TopologyController) remove(k intent.Key) {
	tc.mu.Lock()
	delete(tc.registry, k)
	tc.mu.Unlock()
	for _, s := range tc.stores {
		s.Remove(k)
	}
}

// Rehome re-scopes desired state after an ownership change: every store
// drops the items it no longer masters (outright, no teardowns — including
// wedged deletions a dead replica could never deliver) and every registry
// item is re-declared into its current master's store. Declares are
// idempotent, so items that did not move are untouched.
func (tc *TopologyController) Rehome() {
	tc.mu.Lock()
	reg := make(map[intent.Key]declared, len(tc.registry))
	for k, d := range tc.registry {
		reg[k] = d
	}
	tc.mu.Unlock()
	for r, s := range tc.stores {
		r := r
		s.Retain(func(k intent.Key) bool { return tc.keyOwnedBy(k, r) })
	}
	for k, d := range reg {
		for r, s := range tc.stores {
			if tc.keyOwnedBy(k, r) {
				s.Declare(k, d.up, d.down)
			}
		}
	}
}

// SetASNs installs the administrator's AS annotation (dpid → AS number).
// Call before Run; an empty or nil map keeps the flat single-domain
// behaviour. Like the host attachments, this is part of the "very small part
// of configurations from the administrator" — everything else is derived.
func (tc *TopologyController) SetASNs(asns map[uint64]uint32) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for dpid, asn := range asns {
		tc.asns[dpid] = asn
	}
}

func (tc *TopologyController) asnOf(dpid uint64) uint32 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.asns[dpid]
}

// Run consumes discovery events and starts the reconcilers until Stop. It
// returns immediately.
func (tc *TopologyController) Run() {
	tc.disc.Run()
	for _, rec := range tc.recs {
		rec.Run()
	}
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		for {
			select {
			case ev := <-tc.disc.Events():
				tc.handle(ev)
			case <-tc.stop:
				return
			}
		}
	}()
}

// Stop halts event processing and the reconcilers.
func (tc *TopologyController) Stop() {
	tc.stopOnce.Do(func() { close(tc.stop) })
	tc.disc.Stop()
	tc.wg.Wait()
	for _, rec := range tc.recs {
		rec.Stop()
	}
}

// StopReconciler halts one replica's reconciler — the controller-death path:
// a dead replica must stop writing immediately, while its store lingers
// until the lease lapses and Rehome drains it.
func (tc *TopologyController) StopReconciler(i int) {
	if i >= 0 && i < len(tc.recs) {
		tc.recs[i].Stop()
	}
}

func (tc *TopologyController) report(err error) {
	if err == nil {
		return
	}
	tc.errMu.Lock()
	tc.lastErrs = append(tc.lastErrs, err.Error())
	if len(tc.lastErrs) > 4 {
		tc.lastErrs = tc.lastErrs[len(tc.lastErrs)-4:]
	}
	tc.errMu.Unlock()
}

// LastErrors returns the most recent delivery failures (diagnostics).
func (tc *TopologyController) LastErrors() []string {
	tc.errMu.Lock()
	defer tc.errMu.Unlock()
	return append([]string(nil), tc.lastErrs...)
}

// handle translates one discovery observation into desired-state changes.
// Declarations are idempotent, so a re-announced switch or a flapping link
// converges to its final state no matter how the events interleave.
func (tc *TopologyController) handle(ev discovery.Event) {
	switch ev.Type {
	case discovery.SwitchUp:
		dpid := ev.DPID
		// The paper's switch configuration message: dpid + port count.
		tc.declare(intent.SwitchKey(dpid),
			rpcconf.SwitchUpAS(dpid, len(ev.Ports), tc.asnOf(dpid)), rpcconf.SwitchDown(dpid))
		tc.mu.Lock()
		hosts := tc.hosts[dpid]
		tc.mu.Unlock()
		for _, h := range hosts {
			tc.declare(intent.HostKey(h.DPID, h.Port),
				rpcconf.HostUp(h.DPID, h.Port, h.Gateway),
				rpcconf.HostDown(h.DPID, h.Port))
		}
	case discovery.SwitchDown:
		tc.mu.Lock()
		hosts := tc.hosts[ev.DPID]
		tc.mu.Unlock()
		for _, h := range hosts {
			tc.remove(intent.HostKey(h.DPID, h.Port))
		}
		tc.remove(intent.SwitchKey(ev.DPID))
	case discovery.LinkUp:
		l := ev.Link
		tc.mu.Lock()
		ends, ok := tc.linkNets[l]
		if !ok {
			aEnd, bEnd, err := tc.alloc.LinkAddrs()
			if err != nil {
				tc.mu.Unlock()
				tc.report(fmt.Errorf("core: link %v: %w", l, err))
				return
			}
			ends = [2]netip.Prefix{aEnd, bEnd}
			tc.linkNets[l] = ends
		}
		tc.mu.Unlock()
		tc.declare(intent.LinkKey(l.ADPID, l.APort, l.BDPID, l.BPort),
			rpcconf.LinkUpAS(l.ADPID, l.APort, l.BDPID, l.BPort, ends[0], ends[1],
				tc.asnOf(l.ADPID), tc.asnOf(l.BDPID)),
			rpcconf.LinkDown(l.ADPID, l.APort, l.BDPID, l.BPort))
	case discovery.LinkDown:
		l := ev.Link
		tc.mu.Lock()
		ends, ok := tc.linkNets[l]
		delete(tc.linkNets, l)
		tc.mu.Unlock()
		if ok {
			tc.report(tc.alloc.Release(ends[0].Masked()))
		}
		tc.remove(intent.LinkKey(l.ADPID, l.APort, l.BDPID, l.BPort))
	}
}

// Allocator exposes the IP allocator (tests, GUI).
func (tc *TopologyController) Allocator() *ipam.Allocator { return tc.alloc }

// Store exposes replica 0's desired-state store (convergence checks, tests,
// GUI) — the whole store in a single-controller deployment.
func (tc *TopologyController) Store() *intent.Store { return tc.stores[0] }

// Stores exposes every replica's desired-state store.
func (tc *TopologyController) Stores() []*intent.Store { return tc.stores }

// Reconciler exposes replica 0's reconciliation engine.
func (tc *TopologyController) Reconciler() *intent.Reconciler { return tc.recs[0] }
