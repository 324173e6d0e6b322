package rf

// Desired state: everything the platform wants a switch to hold, in one
// table per switch. Route flows (one per FIB prefix), host flows (the learned
// /32 fast path) and TE path pins share one map keyed by (Match, Priority),
// the identity an OpenFlow 1.0 switch keys its table by, next to the switch's
// monitoring program. Two functions carry it to a switch, and nothing else
// does:
//
//   - set is the one mutation. It edits the state and sends the switch the
//     same delta: a strict delete per removed flow, an add per new or changed
//     one, the program if it changed.
//   - sync is the one full write: SetConfig, delete-all, every flow, the
//     program. onSwitchUp runs it on every connect, Adopt on adoption, and
//     the repair loop for every switch marked dirty.
//
// Sends never block (ctlkit's TrySend). A delta that cannot be sent, to a full
// queue or to a switch that is not connected, marks the switch dirty, and the
// repair loop syncs it once it is connected. Both functions send while holding
// mu, so the order on the wire is the order of the edits and a full write
// never interleaves with a delta.

import (
	"reflect"
	"time"

	"routeflow/internal/openflow"
)

// repairInterval paces the resync of dirty switches (protocol time).
const repairInterval = 500 * time.Millisecond

// flowKey is a flow's identity on the switch: match and priority.
type flowKey struct {
	match    openflow.Match
	priority uint16
}

func keyOf(fm *openflow.FlowMod) flowKey { return flowKey{fm.Match, fm.Priority} }

func everyFlow(flowKey) bool { return true }

// switchState is one switch's desired state.
type switchState struct {
	flows map[flowKey]*openflow.FlowMod
	tel   *openflow.TelemetryMod // the monitoring program; nil: none
	// dirty: the switch may differ from this state, and the repair loop is
	// to sync it.
	dirty bool
}

// edit is one change to a switch's desired state.
type edit struct {
	// drop selects the flows to delete, unless put installs them again.
	drop func(flowKey) bool
	// put installs or replaces flows; one equal to the desired flow is not
	// sent again.
	put []*openflow.FlowMod
	// tel, when non-nil, replaces the program; Epoch 0 means no program.
	tel *openflow.TelemetryMod
}

// stateLocked returns dpid's desired state, creating it with the current
// program and no monitor rules. Callers hold mu.
func (p *Platform) stateLocked(dpid uint64) *switchState {
	st := p.sw[dpid]
	if st == nil {
		st = &switchState{flows: make(map[flowKey]*openflow.FlowMod)}
		if p.tel.Epoch != 0 {
			tm := p.tel
			st.tel = &tm
		}
		p.sw[dpid] = st
	}
	return st
}

// set applies e to dpid's desired state and sends the switch the delta. A
// switch left with nothing desired and nothing to repair is forgotten.
func (p *Platform) set(dpid uint64, e edit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stateLocked(dpid)
	var delta []openflow.Message
	if e.drop != nil {
		kept := make(map[flowKey]bool, len(e.put))
		for _, fm := range e.put {
			kept[keyOf(fm)] = true
		}
		for k := range st.flows {
			if !kept[k] && e.drop(k) {
				delete(st.flows, k)
				delta = append(delta, &openflow.FlowMod{Match: k.match, Priority: k.priority,
					Command: openflow.FlowModDeleteStrict, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone})
			}
		}
	}
	for _, fm := range e.put {
		if k := keyOf(fm); !reflect.DeepEqual(st.flows[k], fm) {
			st.flows[k] = fm
			cp := *fm
			delta = append(delta, &cp)
		}
	}
	if tel := e.tel; tel != nil {
		if tel.Epoch == 0 {
			tel = nil
		}
		if !reflect.DeepEqual(st.tel, tel) {
			st.tel = tel
			if tel != nil {
				cp := *tel
				delta = append(delta, &cp)
			}
		}
	}
	p.sendLocked(dpid, st, delta)
	if len(st.flows) == 0 && st.tel == nil && !st.dirty {
		delete(p.sw, dpid)
	}
}

// sync writes dpid's switch whole from desired state. SetConfig goes first:
// hellos punt whole at the 128-byte default miss send length, but multi-LSA
// LSUpdates do not, and a truncated database dump at boot wedges OSPF until
// the next adjacency event. The delete-all then clears whatever the table
// holds that desired state does not: a previous master's entries, or
// withdrawals that could not be sent.
func (p *Platform) sync(dpid uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stateLocked(dpid)
	msgs := make([]openflow.Message, 0, len(st.flows)+3)
	msgs = append(msgs, &openflow.SetConfig{MissSendLen: 0xffff}, &openflow.FlowMod{
		Match:    openflow.MatchAll(),
		Command:  openflow.FlowModDelete,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
	})
	for _, fm := range st.flows {
		cp := *fm
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
// holders may inspect them while FIB events keep mutating the live set.
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
