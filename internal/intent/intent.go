// Package intent is the declarative configuration model that turns the
// paper's fire-and-forget control pipeline into a level-triggered
// reconciliation engine. The topology controller no longer reacts to a
// discovery event by sending one RPC and hoping: it *declares* desired state
// (switches, links with allocated subnets, host attachments) into a
// versioned Store, and a Reconciler continuously diffs desired against
// acknowledged state, (re)issuing configuration RPCs with exponential
// backoff until the rf-server acknowledges every item. That backoff is the
// only retry between the topology controller and the rf-server: the RPC
// client makes one attempt per send, and a retry is a fresh send that the
// rf-server applies again, which is safe because its apply is idempotent.
//
// The model survives everything the edge-triggered design could not: a
// dropped RPC is retried until acked, a flapping switch converges to its
// final declared state, and an rf-server restart (detected through the ack
// epoch) triggers a full re-sync from desired state.
package intent

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"routeflow/internal/rpcconf"
)

// Kind classifies desired-state items. Apply order follows Kind order:
// switches first (links and hosts reference their VMs), then everything
// else, then teardowns.
type Kind uint8

// Item kinds.
const (
	KindSwitch Kind = iota
	KindLink
	KindHost
)

// Key identifies one desired-state item. It is comparable; unused fields
// stay zero.
type Key struct {
	Kind  Kind
	DPID  uint64 // switch and host items
	Port  uint16 // host items
	ADPID uint64 // link items
	APort uint16
	BDPID uint64
	BPort uint16
}

// SwitchKey identifies the VM for a datapath.
func SwitchKey(dpid uint64) Key { return Key{Kind: KindSwitch, DPID: dpid} }

// HostKey identifies a host attachment (gateway interface) on a switch port.
func HostKey(dpid uint64, port uint16) Key {
	return Key{Kind: KindHost, DPID: dpid, Port: port}
}

// LinkKey identifies an inter-switch link with its endpoint ports.
func LinkKey(aDPID uint64, aPort uint16, bDPID uint64, bPort uint16) Key {
	return Key{Kind: KindLink, ADPID: aDPID, APort: aPort, BDPID: bDPID, BPort: bPort}
}

// entry is the store's record for one item: the message that realises it,
// the message that tears it down, and the reconciliation state.
type entry struct {
	key      Key
	up       *rpcconf.Message
	down     *rpcconf.Message
	gen      uint64 // store generation of the last (re)declaration
	acked    bool   // server acknowledged the current up message
	deleting bool   // item removed from desired state; down message pending
	attempts int    // sends issued for the current incarnation
	backoff  time.Duration
	next     time.Time // zero = due immediately
}

// Stats is an observability snapshot of the store.
type Stats struct {
	Desired  int    // declared items
	Acked    int    // declared items the server confirmed
	Deleting int    // teardowns awaiting acknowledgement
	Sends    uint64 // total RPC attempts issued by the reconciler
	Failures uint64 // attempts that returned an error
	Resyncs  uint64 // full re-syncs triggered by server epoch changes
	// Redeclared counts acknowledged items a changed Declare reopened.
	Redeclared uint64
	// Reapplied counts acknowledged link and host items an acknowledged
	// switch-up reopened (see reapplyOnLocked).
	Reapplied uint64
}

// Store holds desired state versus acknowledged state. Writers (the
// topology controller) Declare and Remove; the Reconciler drains the diff.
type Store struct {
	mu       sync.Mutex
	gen      uint64
	entries  map[Key]*entry
	epoch    uint64 // last server epoch observed through acks
	sends    uint64
	failures uint64
	resyncs  uint64
	// redeclared and reapplied are Stats.Redeclared and Stats.Reapplied.
	redeclared, reapplied uint64
	// signal wakes the reconciler when new work appears (capacity 1).
	signal chan struct{}
}

// NewStore creates an empty desired-state store.
func NewStore() *Store {
	return &Store{
		entries: make(map[Key]*entry),
		signal:  make(chan struct{}, 1),
	}
}

// sameConfig compares two configuration messages ignoring the transport
// sequence number.
func sameConfig(a, b *rpcconf.Message) bool {
	x, y := *a, *b
	x.Seq, y.Seq = 0, 0
	return x == y
}

func (s *Store) signalLocked() {
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

// Declare records that key must exist, realised by up, torn down (if ever
// removed) by down. Re-declaring an unchanged item is a no-op; a changed
// item (or one pending deletion) is marked dirty and re-applied.
func (s *Store) Declare(k Key, up, down *rpcconf.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[k]
	if e == nil {
		s.gen++
		s.entries[k] = &entry{key: k, up: up, down: down, gen: s.gen}
		s.signalLocked()
		return
	}
	if !e.deleting && e.up != nil && sameConfig(e.up, up) {
		e.down = down
		return // level-triggered idempotence: nothing changed
	}
	if e.acked {
		s.redeclared++
	}
	s.gen++
	e.up, e.down = up, down
	e.gen = s.gen
	e.deleting = false
	e.acked = false
	e.backoff = 0
	e.next = time.Time{}
	s.signalLocked()
}

// Remove records that key must no longer exist. If the item was never sent
// it is dropped outright; otherwise its teardown message is issued until
// acknowledged.
func (s *Store) Remove(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[k]
	if e == nil || e.deleting {
		return
	}
	if !e.acked && e.attempts == 0 {
		delete(s.entries, k) // nothing reached the server; nothing to undo
		return
	}
	s.gen++
	e.gen = s.gen
	e.deleting = true
	e.acked = false
	e.backoff = 0
	e.next = time.Time{}
	s.signalLocked()
}

// Retain drops every entry whose key fails pred, without issuing teardowns —
// including entries mid-deletion. This is the ownership-transfer primitive:
// when a shard re-homes to another replica, the old owner's store must stop
// tracking the shard's items outright (the new master's store re-declares
// them; sending teardowns would fight it, and a partitioned replica's
// pending items would otherwise wedge Converged forever). Returns the number
// of entries dropped.
func (s *Store) Retain(pred func(Key) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for k := range s.entries {
		if !pred(k) {
			delete(s.entries, k)
			dropped++
		}
	}
	if dropped > 0 {
		s.signalLocked()
	}
	return dropped
}

// Converged reports whether acknowledged state matches desired state: every
// declared item acked and no teardown pending.
func (s *Store) Converged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.deleting || !e.acked {
			return false
		}
	}
	return true
}

// PendingItems describes every not-yet-converged item (diagnostics).
func (s *Store) PendingItems() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, e := range s.entries {
		if e.acked && !e.deleting {
			continue
		}
		msg := e.up
		verb := "apply"
		if e.deleting {
			msg, verb = e.down, "delete"
		}
		out = append(out, fmt.Sprintf("%s %s dpid=%x/%x attempts=%d backoff=%v",
			verb, msg.Kind, msg.DPID|msg.ADPID, msg.BDPID, e.attempts, e.backoff))
	}
	return out
}

// Statistics returns a snapshot of the store's counters.
func (s *Store) Statistics() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Sends: s.sends, Failures: s.failures, Resyncs: s.resyncs,
		Redeclared: s.redeclared, Reapplied: s.reapplied}
	for _, e := range s.entries {
		if e.deleting {
			st.Deleting++
			continue
		}
		st.Desired++
		if e.acked {
			st.Acked++
		}
	}
	return st
}

// workItem is one claimed send: the message plus the generation it realises,
// so a concurrent re-declaration invalidates the completion.
type workItem struct {
	key Key
	gen uint64
	msg *rpcconf.Message
}

// due claims every item whose retry time has arrived, in apply order
// (switch creations first, teardowns last). wait is the duration until the
// earliest not-yet-due item, or 0 when nothing is scheduled.
func (s *Store) due(now time.Time) (batch []workItem, wait time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if !e.next.IsZero() && e.next.After(now) {
			if d := e.next.Sub(now); wait == 0 || d < wait {
				wait = d
			}
			continue
		}
		msg := e.up
		if e.deleting {
			msg = e.down
		}
		if msg == nil || (!e.deleting && e.acked) {
			continue
		}
		e.attempts++
		s.sends++
		// Copy: the client stamps Seq into the message it sends, while a
		// concurrent Declare may read the stored original for comparison.
		cp := *msg
		batch = append(batch, workItem{key: e.key, gen: e.gen, msg: &cp})
	}
	sortBatch(batch)
	return batch, wait
}

// sortBatch orders sends: creations before teardowns, switches before links
// and hosts (their VMs must exist), then deterministic key order.
func sortBatch(batch []workItem) {
	isDown := func(k rpcconf.Kind) bool {
		return k == rpcconf.KindSwitchDown || k == rpcconf.KindLinkDown || k == rpcconf.KindHostDown
	}
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if ad, bd := isDown(a.msg.Kind), isDown(b.msg.Kind); ad != bd {
			return bd
		}
		if a.key.Kind != b.key.Kind {
			return a.key.Kind < b.key.Kind
		}
		if a.key.DPID != b.key.DPID {
			return a.key.DPID < b.key.DPID
		}
		if a.key.ADPID != b.key.ADPID {
			return a.key.ADPID < b.key.ADPID
		}
		if a.key.APort != b.key.APort {
			return a.key.APort < b.key.APort
		}
		if a.key.BDPID != b.key.BDPID {
			return a.key.BDPID < b.key.BDPID
		}
		if a.key.Port != b.key.Port {
			return a.key.Port < b.key.Port
		}
		return a.key.BPort < b.key.BPort
	})
}

// complete records the outcome of one send. A success acknowledges the item
// (or finalises its deletion); a failure schedules the next attempt with
// exponential backoff. epoch is the server epoch observed on success.
func (s *Store) complete(w workItem, err error, epoch uint64, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Observe the epoch regardless of outcome: a remote-handler error still
	// carries an ack, and that ack may be the first evidence of a server
	// restart (on transport errors the sender reports its previous epoch,
	// so this is a no-op there).
	s.observeEpochLocked(epoch)
	if err != nil {
		s.failures++
	}
	e := s.entries[w.key]
	if e == nil || e.gen != w.gen {
		return // superseded by a newer declaration; its own send is pending
	}
	if err == nil {
		if e.deleting {
			delete(s.entries, w.key)
			return
		}
		e.acked = true
		e.backoff = 0
		e.next = time.Time{}
		if w.key.Kind == KindSwitch {
			s.reapplyOnLocked(w.key.DPID)
		}
		return
	}
	e.backoff = nextBackoff(e.backoff, DefaultBackoffMax)
	e.next = now.Add(e.backoff)
}

// reapplyOnLocked marks every acknowledged link and host item on dpid for
// re-sending. An acknowledged switch-up may have created a fresh VM: after
// the switch's own teardown went out between a Remove and a re-Declare, or
// on a replica the switch has just moved back to. A fresh VM holds none of
// the interfaces those items configured; on a VM that does, re-applying them
// is a no-op.
func (s *Store) reapplyOnLocked(dpid uint64) {
	for _, e := range s.entries {
		if !e.acked {
			continue
		}
		k := e.key
		if (k.Kind == KindLink && (k.ADPID == dpid || k.BDPID == dpid)) ||
			(k.Kind == KindHost && k.DPID == dpid) {
			e.acked = false
			s.reapplied++
		}
	}
}

// observeEpoch folds a server epoch seen outside complete (the idle probe)
// into the store, triggering a re-sync when the server restarted.
func (s *Store) observeEpoch(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observeEpochLocked(epoch)
}

func (s *Store) observeEpochLocked(epoch uint64) {
	if epoch == 0 {
		return
	}
	if s.epoch == 0 {
		s.epoch = epoch
		return
	}
	if epoch == s.epoch {
		return
	}
	// Server restarted: everything it ever acknowledged is gone. Re-apply
	// the whole desired state.
	s.epoch = epoch
	s.resyncs++
	for _, e := range s.entries {
		if e.acked {
			e.acked = false
			e.backoff = 0
			e.next = time.Time{}
		}
	}
	s.signalLocked()
}
