package ospf

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/rib"
)

// Default protocol timers (RFC 2328 defaults; the paper's convergence time
// is dominated by these).
const (
	DefaultHelloInterval = 10 * time.Second
	DefaultDeadInterval  = 40 * time.Second
	DefaultSPFDelay      = 200 * time.Millisecond
)

// NeighborState is the (reduced) neighbor FSM state.
type NeighborState int

// Neighbor states.
const (
	NeighborDown NeighborState = iota
	NeighborInit
	NeighborFull
)

// String names the state.
func (s NeighborState) String() string {
	switch s {
	case NeighborDown:
		return "Down"
	case NeighborInit:
		return "Init"
	case NeighborFull:
		return "Full"
	default:
		return fmt.Sprintf("NeighborState(%d)", int(s))
	}
}

// Config configures an OSPF instance (one per VM).
type Config struct {
	RouterID netip.Addr
	RIB      *rib.RIB
	Clock    clock.Clock

	HelloInterval time.Duration
	DeadInterval  time.Duration
	SPFDelay      time.Duration
}

// SendFunc transmits an OSPF payload (IP protocol 89 body) out an
// interface; dst is AllSPFRouters or a neighbor address. The owner (the VM)
// handles IP and Ethernet encapsulation.
type SendFunc func(dst netip.Addr, payload []byte)

// Interface is one OSPF-enabled point-to-point interface.
type Interface struct {
	inst *Instance
	name string
	addr netip.Prefix
	cost uint16
	send SendFunc

	mu       sync.Mutex
	neighbor *neighbor // p2p: at most one
}

type neighbor struct {
	routerID uint32
	addr     netip.Addr
	state    NeighborState
	lastSeen time.Time
}

// NeighborInfo is a snapshot for show commands and tests.
type NeighborInfo struct {
	RouterID  netip.Addr
	Addr      netip.Addr
	Interface string
	State     NeighborState
}

// Instance is one OSPF router.
type Instance struct {
	cfg Config
	clk clock.Clock

	mu     sync.Mutex
	ifaces map[string]*Interface
	lsdb   map[uint32]*lsa
	seq    uint32
	spfAt  time.Time // zero = no SPF scheduled
	spfRun uint64    // count of SPF executions
	// spfTimer fires at spfAt; Start creates it, scheduleSPFLocked arms it.
	spfTimer clock.Timer

	spfMu sync.Mutex // guards spf
	spf   spfScratch

	hellosSent atomic.Uint64 // periodic + triggered
	rejected   atomic.Uint64 // received packets dropped as malformed or mismatched

	started  bool
	stopped  bool
	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New creates an OSPF instance.
func New(cfg Config) (*Instance, error) {
	if !cfg.RouterID.Is4() {
		return nil, fmt.Errorf("ospf: router ID %v is not IPv4", cfg.RouterID)
	}
	if cfg.RIB == nil {
		return nil, fmt.Errorf("ospf: RIB is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.HelloInterval <= 0 {
		cfg.HelloInterval = DefaultHelloInterval
	}
	if cfg.DeadInterval <= 0 {
		cfg.DeadInterval = DefaultDeadInterval
	}
	if cfg.SPFDelay <= 0 {
		cfg.SPFDelay = DefaultSPFDelay
	}
	return &Instance{
		cfg:    cfg,
		clk:    cfg.Clock,
		ifaces: make(map[string]*Interface),
		lsdb:   make(map[uint32]*lsa),
		seq:    InitialSeq,
		stop:   make(chan struct{}),
	}, nil
}

// RouterID returns the configured router ID.
func (i *Instance) RouterID() netip.Addr { return i.cfg.RouterID }

// AddInterface enables OSPF on a p2p interface. Safe before or after Start;
// on a running instance the interface's first hello goes out before
// AddInterface returns (InterfaceUp is an event, not something the next
// hello tick discovers).
func (i *Instance) AddInterface(name string, addrPfx netip.Prefix, cost uint16, send SendFunc) (*Interface, error) {
	if !addrPfx.Addr().Is4() {
		return nil, fmt.Errorf("ospf: interface %s address %v is not IPv4", name, addrPfx)
	}
	if cost == 0 {
		cost = 10
	}
	ifc := &Interface{inst: i, name: name, addr: addrPfx, cost: cost, send: send}
	i.mu.Lock()
	if _, dup := i.ifaces[name]; dup {
		i.mu.Unlock()
		return nil, fmt.Errorf("ospf: interface %s already enabled", name)
	}
	i.ifaces[name] = ifc
	i.originateLocked()
	i.mu.Unlock()
	i.helloNow(ifc)
	return ifc, nil
}

// helloNow sends ifc's hello on an event instead of the next tick. It is a
// no-op unless the instance is running, and it is fenced like Start's
// burst: the Add happens under mu while stopped is still false, so Stop
// either sees the counter and waits for the send, or wins and nothing is
// sent. Callers hold neither i.mu nor ifc.mu.
func (i *Instance) helloNow(ifc *Interface) {
	i.mu.Lock()
	if !i.started || i.stopped {
		i.mu.Unlock()
		return
	}
	i.wg.Add(1)
	i.mu.Unlock()
	defer i.wg.Done()
	ifc.sendHello()
}

// RemoveInterface disables OSPF on an interface.
func (i *Instance) RemoveInterface(name string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if _, ok := i.ifaces[name]; !ok {
		return
	}
	delete(i.ifaces, name)
	i.originateLocked()
	i.scheduleSPFLocked()
}

// Start launches the hello/dead/aging timers. Starting after Stop is a
// no-op (a VM may still be booting while its deployment is torn down).
func (i *Instance) Start() {
	i.mu.Lock()
	if i.started || i.stopped {
		i.mu.Unlock()
		return
	}
	i.started = true
	// The SPF timer exists from here on. Interfaces enabled before Start
	// already scheduled a run: arm for what is left of its holddown (with
	// none scheduled, the first fire finds nothing to do).
	wait := i.cfg.SPFDelay
	if !i.spfAt.IsZero() {
		wait = max(i.spfAt.Sub(i.clk.Now()), 0)
	}
	i.spfTimer = i.clk.NewTimer(wait)
	// Add under mu so a concurrent Stop either observes the counter or
	// prevents the start entirely — never an Add racing the Wait. The
	// initial hello burst below is fenced by the same WaitGroup: Stop may
	// overlap it but never returns before it finishes.
	i.wg.Add(2)
	i.mu.Unlock()
	go i.timerLoop(i.spfTimer)
	// Interfaces enabled before Start get their first hello now; one enabled
	// later sends its own from AddInterface. Either way the neighbor answers
	// a hello that changes its view of us at once (handleHello), so an
	// adjacency costs a round trip, not hello intervals.
	i.sendHellos()
	i.wg.Done()
}

// Stop halts the instance.
func (i *Instance) Stop() {
	i.stopOnce.Do(func() { close(i.stop) })
	i.mu.Lock()
	i.stopped = true
	i.mu.Unlock()
	i.wg.Wait()
}

// Neighbors returns a snapshot of all neighbors.
func (i *Instance) Neighbors() []NeighborInfo {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []NeighborInfo
	for _, ifc := range i.ifaces {
		ifc.mu.Lock()
		if n := ifc.neighbor; n != nil {
			out = append(out, NeighborInfo{
				RouterID: addr(n.routerID), Addr: n.addr,
				Interface: ifc.name, State: n.state,
			})
		}
		ifc.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Interface < out[b].Interface })
	return out
}

// LSDBSize returns the number of LSAs held.
func (i *Instance) LSDBSize() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.lsdb)
}

// SPFRuns returns how many times SPF has executed.
func (i *Instance) SPFRuns() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.spfRun
}

// HellosSent returns how many hellos the instance has handed to its
// interfaces' send functions, periodic and event-triggered alike.
func (i *Instance) HellosSent() uint64 { return i.hellosSent.Load() }

// RejectedPackets returns how many received packets were dropped without
// being acted on: unparseable, failing a checksum, or a hello whose timers
// disagree with ours (RFC 2328 §10.5). Our own multicast echo is not counted.
func (i *Instance) RejectedPackets() uint64 { return i.rejected.Load() }

// FullNeighbors counts adjacencies in Full state.
func (i *Instance) FullNeighbors() int {
	n := 0
	for _, nb := range i.Neighbors() {
		if nb.State == NeighborFull {
			n++
		}
	}
	return n
}

func (i *Instance) timerLoop(spfTimer clock.Timer) {
	defer i.wg.Done()
	tick := i.clk.NewTicker(i.cfg.HelloInterval)
	defer tick.Stop()
	agingTick := i.clk.NewTicker(i.cfg.DeadInterval)
	defer agingTick.Stop()
	defer spfTimer.Stop()
	// Anti-entropy runs at a multiple of the aging period: frequent enough
	// to repair one-shot flood loss well inside any convergence budget,
	// rare enough that the full-LSDB resends stay a rounding error in the
	// steady-state packet load of a large fabric.
	const resendEvery = 4
	agingTicks := 0
	for {
		select {
		case <-tick.C():
			i.sendHellos()
			i.checkDeadNeighbors()
		case <-spfTimer.C():
			i.maybeRunSPF()
		case <-agingTick.C():
			i.ageLSDB()
			if agingTicks++; agingTicks%resendEvery == 0 {
				i.resendLSDB()
			}
		case <-i.stop:
			return
		}
	}
}

// Deliver hands a received OSPF payload (IP proto 89 body) to the
// interface. Called by the VM's network stack.
func (ifc *Interface) Deliver(src netip.Addr, payload []byte) {
	h, body, err := parsePacket(payload)
	if err != nil {
		ifc.inst.rejected.Add(1)
		return
	}
	if h.RouterID == u32(ifc.inst.cfg.RouterID) {
		return // our own multicast echo
	}
	switch h.Type {
	case typeHello:
		ifc.handleHello(h, src, body)
	case typeLSUpdate:
		ifc.handleLSUpdate(h, body)
	}
}

// Name returns the interface name.
func (ifc *Interface) Name() string { return ifc.name }

// Addr returns the interface address.
func (ifc *Interface) Addr() netip.Prefix { return ifc.addr }

func (ifc *Interface) handleHello(h header, src netip.Addr, body []byte) {
	hl, err := parseHello(body)
	if err != nil {
		ifc.inst.rejected.Add(1)
		return
	}
	// Timer agreement check (RFC 2328 §10.5), on wire values: the packet
	// carries whole seconds, so compare against what we ourselves advertise
	// (sub-second test timers encode as the same truncated value).
	if hl.HelloInterval != uint16(ifc.inst.cfg.HelloInterval/time.Second) ||
		hl.DeadInterval != uint32(ifc.inst.cfg.DeadInterval/time.Second) {
		ifc.inst.rejected.Add(1)
		return
	}
	inst := ifc.inst
	me := u32(inst.cfg.RouterID)
	seesMe := false
	for _, n := range hl.Neighbors {
		if n == me {
			seesMe = true
			break
		}
	}

	ifc.mu.Lock()
	nb := ifc.neighbor
	isNew := nb == nil || nb.routerID != h.RouterID
	if isNew {
		nb = &neighbor{routerID: h.RouterID, addr: src, state: NeighborInit}
		ifc.neighbor = nb
	}
	nb.lastSeen = inst.clk.Now()
	nb.addr = src
	wasFull := nb.state == NeighborFull
	if seesMe {
		nb.state = NeighborFull
	} else {
		// 1-Way received (RFC 2328 §10.5): the neighbor no longer lists us,
		// so it restarted and lost its adjacency — and its database. Demote
		// to Init; the next two-way hello re-runs the becameFull database
		// exchange. Without the demotion a restarted neighbor whose outage
		// was shorter than the dead interval would never be sent our LSDB.
		nb.state = NeighborInit
	}
	becameFull := !wasFull && nb.state == NeighborFull
	enteredInit := !seesMe && (isNew || wasFull)
	ifc.mu.Unlock()

	if enteredInit {
		// The neighbor does not know we hear it. Say so now, listing it, so
		// its becameFull exchange below runs one round trip from here and not
		// at our next tick. Once per state change: further 1-way hellos find
		// the neighbor already in Init and are left to the periodic hello.
		inst.helloNow(ifc)
	}

	if becameFull {
		// Adjacency established: re-originate (the p2p link is now
		// advertisable), send our full LSDB (database exchange stand-in),
		// and answer immediately so the neighbor also reaches Full without
		// waiting a full hello interval.
		inst.mu.Lock()
		inst.originateLocked()
		inst.mu.Unlock()
		if all := inst.snapshotLSDB(); len(all) > 0 {
			ifc.send(src, marshalPacket(header{Type: typeLSUpdate, RouterID: me},
				marshalLSUpdate(all)))
		}
		ifc.sendHello()
		inst.mu.Lock()
		inst.scheduleSPFLocked()
		inst.mu.Unlock()
	}
}

func (ifc *Interface) handleLSUpdate(h header, body []byte) {
	lsas, err := parseLSUpdate(body)
	if err != nil {
		ifc.inst.rejected.Add(1)
		return
	}
	inst := ifc.inst
	me := u32(inst.cfg.RouterID)
	var flood []*lsa
	inst.mu.Lock()
	for _, l := range lsas {
		if l.Age >= MaxAge {
			// Premature aging / flush.
			if cur, ok := inst.lsdb[l.AdvRouter]; ok && cur.Seq <= l.Seq {
				delete(inst.lsdb, l.AdvRouter)
				flood = append(flood, l)
				inst.scheduleSPFLocked()
			}
			continue
		}
		if l.AdvRouter == me {
			// Someone holds a copy of our LSA from an earlier incarnation of
			// this router ID (a VM re-created on another replica). If it is
			// newer than ours, or as new but with other links, jump past it
			// and re-originate: at an equal sequence number every other
			// router keeps the copy it has, however stale (RFC 2328 §13.4).
			own := inst.lsdb[me]
			if l.Seq >= inst.seq || (own != nil && l.Seq == own.Seq && !slices.Equal(l.Links, own.Links)) {
				inst.seq = l.Seq + 1
				inst.originateLocked()
			}
			continue
		}
		cur, ok := inst.lsdb[l.AdvRouter]
		if ok && cur.Seq >= l.Seq {
			continue // stale or duplicate
		}
		inst.lsdb[l.AdvRouter] = l
		// Flood a copy: the stored LSA ages in place under inst.mu while
		// the flood marshals outside it.
		cp := *l
		flood = append(flood, &cp)
		inst.scheduleSPFLocked()
	}
	inst.mu.Unlock()
	if len(flood) > 0 {
		inst.floodExcept(ifc, flood)
	}
}

// snapshotLSDB copies the LSDB in AdvRouter order: the stored LSAs' ages
// are mutated in place under i.mu by ageLSDB, but marshalling happens
// outside the lock.
func (i *Instance) snapshotLSDB() []*lsa {
	i.mu.Lock()
	defer i.mu.Unlock()
	all := make([]*lsa, 0, len(i.lsdb))
	for _, l := range i.lsdb {
		cp := *l
		all = append(all, &cp)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].AdvRouter < all[b].AdvRouter })
	return all
}

// resendLSDB is the level-triggered repair under the event-triggered
// flooding: periodically re-send the full LSDB to every Full neighbor.
// Flooding is otherwise one-shot — a database dump or relayed update that
// dies on a down control session (a switch mid-failover re-dialing its new
// master, a congested punt queue) would never be retransmitted, wedging
// convergence forever. Receivers drop what they already hold (sequence
// dedup), install what the lost packet carried, and relay fresh installs
// onward, so any loss heals within a few dead intervals.
func (i *Instance) resendLSDB() {
	all := i.snapshotLSDB()
	if len(all) == 0 {
		return
	}
	pktBytes := marshalPacket(header{Type: typeLSUpdate, RouterID: u32(i.cfg.RouterID)},
		marshalLSUpdate(all))
	type target struct {
		ifc *Interface
		to  netip.Addr
	}
	i.mu.Lock()
	targets := make([]target, 0, len(i.ifaces))
	for _, ifc := range i.ifaces {
		ifc.mu.Lock()
		if nb := ifc.neighbor; nb != nil && nb.state == NeighborFull {
			targets = append(targets, target{ifc, nb.addr})
		}
		ifc.mu.Unlock()
	}
	i.mu.Unlock()
	for _, t := range targets {
		t.ifc.send(t.to, pktBytes)
	}
}

// floodExcept sends LSAs to every Full neighbor except via the arrival
// interface.
func (i *Instance) floodExcept(skip *Interface, lsas []*lsa) {
	me := u32(i.cfg.RouterID)
	pktBytes := marshalPacket(header{Type: typeLSUpdate, RouterID: me}, marshalLSUpdate(lsas))
	i.mu.Lock()
	targets := make([]*Interface, 0, len(i.ifaces))
	for _, ifc := range i.ifaces {
		if ifc == skip {
			continue
		}
		ifc.mu.Lock()
		ok := ifc.neighbor != nil && ifc.neighbor.state == NeighborFull
		ifc.mu.Unlock()
		if ok {
			targets = append(targets, ifc)
		}
	}
	i.mu.Unlock()
	mcast := netip.MustParseAddr(AllSPFRouters)
	for _, ifc := range targets {
		ifc.send(mcast, pktBytes)
	}
}

// originateLocked rebuilds our Router-LSA, stores it, and floods it.
// Callers hold i.mu.
func (i *Instance) originateLocked() {
	me := u32(i.cfg.RouterID)
	l := &lsa{AdvRouter: me, Seq: i.seq}
	i.seq++
	names := make([]string, 0, len(i.ifaces))
	for name := range i.ifaces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ifc := i.ifaces[name]
		ifc.mu.Lock()
		nb := ifc.neighbor
		if nb != nil && nb.state == NeighborFull {
			l.Links = append(l.Links, rlaLink{
				ID: nb.routerID, Data: u32(ifc.addr.Addr()),
				Type: linkP2P, Metric: ifc.cost,
			})
		}
		ifc.mu.Unlock()
		net := ifc.addr.Masked()
		mask := ^uint32(0) << uint(32-net.Bits())
		l.Links = append(l.Links, rlaLink{
			ID: u32(net.Addr()), Data: mask, Type: linkStub, Metric: ifc.cost,
		})
	}
	i.lsdb[me] = l
	i.scheduleSPFLocked()
	// Flood outside the lock.
	go i.floodExcept(nil, []*lsa{l})
}

func (i *Instance) sendHellos() {
	i.mu.Lock()
	ifaces := make([]*Interface, 0, len(i.ifaces))
	for _, ifc := range i.ifaces {
		ifaces = append(ifaces, ifc)
	}
	i.mu.Unlock()
	for _, ifc := range ifaces {
		ifc.sendHello()
	}
}

func (ifc *Interface) sendHello() {
	inst := ifc.inst
	net := ifc.addr.Masked()
	h := &hello{
		NetMask:       ^uint32(0) << uint(32-net.Bits()),
		HelloInterval: uint16(inst.cfg.HelloInterval / time.Second),
		DeadInterval:  uint32(inst.cfg.DeadInterval / time.Second),
	}
	ifc.mu.Lock()
	if ifc.neighbor != nil {
		h.Neighbors = append(h.Neighbors, ifc.neighbor.routerID)
	}
	ifc.mu.Unlock()
	payload := marshalPacket(header{Type: typeHello, RouterID: u32(inst.cfg.RouterID)}, h.marshal())
	inst.hellosSent.Add(1)
	ifc.send(netip.MustParseAddr(AllSPFRouters), payload)
}

func (i *Instance) checkDeadNeighbors() {
	now := i.clk.Now()
	i.mu.Lock()
	ifaces := make([]*Interface, 0, len(i.ifaces))
	for _, ifc := range i.ifaces {
		ifaces = append(ifaces, ifc)
	}
	i.mu.Unlock()
	changed := false
	for _, ifc := range ifaces {
		ifc.mu.Lock()
		if nb := ifc.neighbor; nb != nil && now.Sub(nb.lastSeen) >= i.cfg.DeadInterval {
			ifc.neighbor = nil
			changed = true
		}
		ifc.mu.Unlock()
	}
	if changed {
		i.mu.Lock()
		i.originateLocked()
		i.scheduleSPFLocked()
		i.mu.Unlock()
	}
}

// ageLSDB advances LSA ages and flushes MaxAge LSAs.
func (i *Instance) ageLSDB() {
	step := uint16(i.cfg.DeadInterval / time.Second)
	if step == 0 {
		step = 1
	}
	i.mu.Lock()
	me := u32(i.cfg.RouterID)
	changed := false
	for id, l := range i.lsdb {
		if id == me {
			continue // we refresh our own by re-origination
		}
		l.Age += step
		if l.Age >= MaxAge {
			delete(i.lsdb, id)
			changed = true
		}
	}
	if changed {
		i.scheduleSPFLocked()
	}
	i.mu.Unlock()
}

// scheduleSPFLocked schedules an SPF run one SPFDelay from now, unless one
// is already scheduled (the holddown batches what arrives meanwhile), and
// arms the SPF timer for it. Callers hold i.mu.
func (i *Instance) scheduleSPFLocked() {
	if !i.spfAt.IsZero() {
		return
	}
	i.spfAt = i.clk.Now().Add(i.cfg.SPFDelay)
	if i.spfTimer != nil && !i.stopped {
		i.spfTimer.Reset(i.cfg.SPFDelay)
	}
}

// maybeRunSPF handles an SPF timer fire: it runs SPF if the holddown
// expired. A fire with nothing scheduled (RunSPFNow ran it) does nothing;
// one that comes before spfAt (a fire from an earlier arming) re-arms for
// the remainder, so no scheduled run is lost.
func (i *Instance) maybeRunSPF() {
	i.mu.Lock()
	if i.spfAt.IsZero() {
		i.mu.Unlock()
		return
	}
	if wait := i.spfAt.Sub(i.clk.Now()); wait > 0 {
		i.spfTimer.Reset(wait)
		i.mu.Unlock()
		return
	}
	i.spfAt = time.Time{}
	i.mu.Unlock()
	i.runSPF()
}

// RunSPFNow forces an immediate SPF computation (tests, vtysh `clear`).
func (i *Instance) RunSPFNow() {
	i.mu.Lock()
	i.spfAt = time.Time{}
	i.mu.Unlock()
	i.runSPF()
}
