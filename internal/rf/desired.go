package rf

// Desired state: every switch's flow table and monitoring program are a
// function of the platform's inputs, compile(dpid): the VM's RIB best sets,
// the hosts the VM learned, the switch's TE pins, the address index that
// resolves next hops to ports, and the monitoring program. Flows are keyed
// by (Match, Priority), the identity an OpenFlow 1.0 switch keys its table
// by. Whatever changes an input calls refresh, which compiles, diffs against
// the last compile and sends the delta; sync compiles and writes the switch
// whole (SetConfig, delete-all, every flow, the program) on every connect,
// adoption and repair of a dirty switch. Nothing else writes a flow.
//
// Both compile under mu from the current inputs, the RIB included (lock
// order: mu, then the RIB's read lock), so two refreshes never apply out of
// order. Sends never block (ctlkit's TrySend): a delta that cannot be sent,
// to a full queue or a disconnected switch, marks the switch dirty for the
// repair loop. Sending under mu keeps the wire in compile order, so a full
// write never interleaves with a delta.

import (
	"bytes"
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"routeflow/internal/openflow"
	"routeflow/internal/rib"
	"routeflow/internal/vnet"
)

// repairInterval paces the resync of dirty switches (protocol time).
const repairInterval = 500 * time.Millisecond

// flowKey is a flow's identity on the switch: match and priority.
type flowKey struct {
	match    openflow.Match
	priority uint16
}

func keyOf(fm *openflow.FlowMod) flowKey { return flowKey{fm.Match, fm.Priority} }

// compareKeys orders flows by (priority, match): the order sync writes a
// table in and refresh writes a delta in, so that the same inputs put the
// same messages on the wire.
func compareKeys(a, b flowKey) int {
	x, y := &a.match, &b.match
	return cmp.Or(
		cmp.Compare(a.priority, b.priority),
		cmp.Compare(x.Wildcards, y.Wildcards),
		cmp.Compare(x.InPort, y.InPort),
		bytes.Compare(x.DlSrc[:], y.DlSrc[:]),
		bytes.Compare(x.DlDst[:], y.DlDst[:]),
		cmp.Compare(x.DlVlan, y.DlVlan),
		cmp.Compare(x.DlVlanPcp, y.DlVlanPcp),
		cmp.Compare(x.DlType, y.DlType),
		cmp.Compare(x.NwTos, y.NwTos),
		cmp.Compare(x.NwProto, y.NwProto),
		bytes.Compare(x.NwSrc[:], y.NwSrc[:]),
		bytes.Compare(x.NwDst[:], y.NwDst[:]),
		cmp.Compare(x.TpSrc, y.TpSrc),
		cmp.Compare(x.TpDst, y.TpDst),
	)
}

// sortedKeys returns flows' keys in compareKeys order.
func sortedKeys(flows map[flowKey]*openflow.FlowMod) []flowKey {
	keys := make([]flowKey, 0, len(flows))
	for k := range flows {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

// sameFlow reports whether two compiled flows (either may be nil) are the
// same message, compared field by field.
func sameFlow(a, b *openflow.FlowMod) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.MsgXID == b.MsgXID && a.Match == b.Match && a.Cookie == b.Cookie &&
		a.Command == b.Command && a.IdleTimeout == b.IdleTimeout &&
		a.HardTimeout == b.HardTimeout && a.Priority == b.Priority &&
		a.BufferID == b.BufferID && a.OutPort == b.OutPort && a.Flags == b.Flags &&
		openflow.ActionsEqual(a.Actions, b.Actions)
}

// sameProgram reports whether two compiled programs (either may be nil) are
// the same message.
func sameProgram(a, b *openflow.TelemetryMod) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.MsgXID == b.MsgXID && a.Epoch == b.Epoch && a.IntervalMS == b.IntervalMS &&
		slices.Equal(a.Rules, b.Rules)
}

// switchState is one switch's own inputs and the table last compiled for it.
type switchState struct {
	hosts map[netip.Addr]vnet.HostLearned // learned hosts, by address
	pins  []PinFlow                       // TE pins, in SetPins order
	// flows and tel are the last compile: what the switch holds once every
	// send has landed.
	flows map[flowKey]*openflow.FlowMod
	tel   *openflow.TelemetryMod // nil: no program
	// dirty: the switch may differ from this state, and the repair loop is
	// to sync it.
	dirty bool
}

// stateLocked returns dpid's state, creating it empty. Callers hold mu.
func (p *Platform) stateLocked(dpid uint64) *switchState {
	st := p.sw[dpid]
	if st == nil {
		st = &switchState{hosts: make(map[netip.Addr]vnet.HostLearned)}
		p.sw[dpid] = st
	}
	return st
}

// compileLocked derives dpid's flow table and monitoring program from the
// inputs. A switch this replica does not master gets no program: its
// master's, under that master's epoch, is the one it runs. Callers hold mu.
func (p *Platform) compileLocked(dpid uint64, st *switchState) (map[flowKey]*openflow.FlowMod, *openflow.TelemetryMod) {
	flows := make(map[flowKey]*openflow.FlowMod, len(st.flows))
	if vm := p.vms[dpid]; vm != nil {
		vm.RIB().EachBest(func(paths []rib.Route) {
			if fm := p.routeFlowLocked(dpid, paths); fm != nil {
				flows[keyOf(fm)] = fm
			}
		})
	}
	for _, h := range st.hosts {
		fm := flowTo(netip.PrefixFrom(h.IP, 32), hostFlowPriority, rewriteTo(vnet.MAC(dpid, h.Port), h.MAC, h.Port)...)
		flows[keyOf(fm)] = fm
	}
	for _, pf := range st.pins {
		fm := pinFlow(pf)
		flows[keyOf(fm)] = fm
	}
	var tel *openflow.TelemetryMod
	if p.tel.Epoch != 0 && p.ownsLocked(dpid) {
		tm := p.tel
		tm.Rules = p.telRules[dpid]
		tel = &tm
	}
	return flows, tel
}

// refresh recompiles dpid's table and sends the switch the difference.
func (p *Platform) refresh(dpid uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refreshLocked(dpid)
}

// refreshLocked is refresh for callers that hold mu. The delta goes out in
// compareKeys order, the program last.
func (p *Platform) refreshLocked(dpid uint64) {
	st := p.stateLocked(dpid)
	flows, tel := p.compileLocked(dpid, st)
	var changed []flowKey
	for k := range st.flows {
		if flows[k] == nil {
			changed = append(changed, k)
		}
	}
	for k, fm := range flows {
		if !sameFlow(st.flows[k], fm) {
			changed = append(changed, k)
		}
	}
	slices.SortFunc(changed, compareKeys)
	var delta []openflow.Message
	for _, k := range changed {
		if fm := flows[k]; fm != nil {
			cp := *fm
			delta = append(delta, &cp)
		} else {
			delta = append(delta, &openflow.FlowMod{Match: k.match, Priority: k.priority,
				Command: openflow.FlowModDeleteStrict, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone})
		}
	}
	if tel != nil && !sameProgram(st.tel, tel) {
		cp := *tel
		delta = append(delta, &cp)
	}
	st.flows, st.tel = flows, tel
	p.sendLocked(dpid, st, delta)
}

// refreshAllLocked refreshes every switch the platform holds state for,
// which includes every switch with a VM. An address index change calls it:
// any VM may route via the address. Callers hold mu.
func (p *Platform) refreshAllLocked() {
	for dpid := range p.sw {
		p.refreshLocked(dpid)
	}
}

// sync compiles dpid's table and writes the switch whole. SetConfig goes
// first: hellos punt whole at the 128-byte default miss send length, but
// multi-LSA LSUpdates do not, and a truncated database dump at boot wedges
// OSPF until the next adjacency event. The delete-all then clears whatever
// the table holds that the compile does not: a previous master's entries, or
// withdrawals that could not be sent. The flows go out in compareKeys order.
func (p *Platform) sync(dpid uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stateLocked(dpid)
	st.flows, st.tel = p.compileLocked(dpid, st)
	msgs := make([]openflow.Message, 0, len(st.flows)+3)
	msgs = append(msgs, &openflow.SetConfig{MissSendLen: 0xffff}, &openflow.FlowMod{
		Match:    openflow.MatchAll(),
		Command:  openflow.FlowModDelete,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
	})
	for _, k := range sortedKeys(st.flows) {
		cp := *st.flows[k]
		msgs = append(msgs, &cp)
	}
	if st.tel != nil {
		cp := *st.tel
		msgs = append(msgs, &cp)
	}
	st.dirty = false
	p.sendLocked(dpid, st, msgs)
}

// sendLocked sends msgs to dpid's switch, marking the switch dirty when it
// cannot. A replica sends nothing to a switch it does not master and keeps
// nothing to repair there: adoption syncs it whole. Callers hold mu.
func (p *Platform) sendLocked(dpid uint64, st *switchState, msgs []openflow.Message) {
	if !p.ownsLocked(dpid) {
		st.dirty = false
		return
	}
	if len(msgs) == 0 {
		return
	}
	sc, ok := p.ctl.Switch(dpid)
	if !ok {
		st.dirty = true
		return
	}
	for _, m := range msgs {
		if sc.TrySend(m) != nil {
			st.dirty = true
			return
		}
	}
}

// repairLoop syncs every dirty switch once per repairInterval until the
// platform stops. A switch that is not connected stays dirty; its connect
// syncs it anyway.
func (p *Platform) repairLoop() {
	defer p.wg.Done()
	tick := p.clk.NewTicker(repairInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C():
		}
		p.mu.Lock()
		var dirty []uint64
		for dpid, st := range p.sw {
			if st.dirty {
				dirty = append(dirty, dpid)
			}
		}
		p.mu.Unlock()
		for _, dpid := range dirty {
			if _, ok := p.ctl.Switch(dpid); ok {
				p.sync(dpid)
			}
		}
	}
}

// FlowCount reports how many flows (routes, hosts and TE pins) the platform
// wants on a switch.
func (p *Platform) FlowCount(dpid uint64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.sw[dpid]; st != nil {
		return len(st.flows)
	}
	return 0
}

// DesiredFlows snapshots the desired flow entries for a switch — the state
// the platform is driving the physical flow table toward. Invariant checkers
// diff this against the switch's installed table. Actions are deep-copied so
// holders may inspect them while later compiles replace the live set.
func (p *Platform) DesiredFlows(dpid uint64) []*openflow.FlowMod {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.sw[dpid]
	if st == nil {
		return nil
	}
	out := make([]*openflow.FlowMod, 0, len(st.flows))
	for _, fm := range st.flows {
		cp := *fm
		cp.Actions = openflow.CloneActions(fm.Actions)
		out = append(out, &cp)
	}
	return out
}

// CheckDerived is the oracle of the compile: nil when dpid's desired table
// and program are what the inputs compile to now, and no flow sits on a
// subnet the VM has a connected route for (those stay on the punt path). A
// table that differs from a fresh compile missed a refresh; between a RIB
// change and the refresh it runs, the two may differ briefly.
func (p *Platform) CheckDerived(dpid uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, known := p.sw[dpid]
	if !known {
		st = &switchState{} // never materialised, so nothing was sent: its connect syncs it
	}
	flows, tel := p.compileLocked(dpid, st)
	if known && !sameProgram(st.tel, tel) {
		return fmt.Errorf("switch %016x: program %+v, compiles to %+v", dpid, st.tel, tel)
	}
	for k, fm := range flows {
		if !sameFlow(st.flows[k], fm) {
			return fmt.Errorf("switch %016x: flow %v prio=%d is %v, compiles to %v", dpid, k.match.NwDstPrefix(), k.priority, st.flows[k], fm)
		}
	}
	if len(st.flows) != len(flows) {
		return fmt.Errorf("switch %016x: %d desired flows, %d compiled", dpid, len(st.flows), len(flows))
	}
	var err error
	if vm := p.vms[dpid]; vm != nil {
		vm.RIB().EachBest(func(paths []rib.Route) {
			prefix := paths[0].Prefix
			if paths[0].Source == rib.SourceConnected && st.flows[keyOf(flowTo(prefix, routePriority(prefix)))] != nil {
				err = fmt.Errorf("switch %016x: a flow covers connected subnet %v", dpid, prefix)
			}
		})
	}
	return err
}
