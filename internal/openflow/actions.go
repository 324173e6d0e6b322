package openflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"routeflow/internal/pkt"
)

// Action type codes (ofp_action_type).
const (
	ActionTypeOutput     uint16 = 0
	ActionTypeSetVlanVid uint16 = 1
	ActionTypeSetVlanPcp uint16 = 2
	ActionTypeStripVlan  uint16 = 3
	ActionTypeSetDlSrc   uint16 = 4
	ActionTypeSetDlDst   uint16 = 5
	ActionTypeSetNwSrc   uint16 = 6
	ActionTypeSetNwDst   uint16 = 7
	ActionTypeSetNwTos   uint16 = 8
	ActionTypeSetTpSrc   uint16 = 9
	ActionTypeSetTpDst   uint16 = 10
	ActionTypeEnqueue    uint16 = 11
	// ActionTypeMultipath is a routeflow extension (like the telemetry
	// message family): one action carrying the equal-cost bucket set of an
	// ECMP route, selected per microflow by key hash. OpenFlow 1.0 has no
	// group table; this is OF1.1 select-group semantics folded into a single
	// action so ECMP flow entries still travel over the 1.0 codec.
	ActionTypeMultipath uint16 = 12
	ActionTypeVendor    uint16 = 0xffff
)

// Action is one entry of a flow-mod or packet-out action list.
type Action interface {
	ActionType() uint16
	appendTo(b []byte) []byte
}

// appendActionHeader appends the common ofp_action_header (type, length).
func appendActionHeader(b []byte, t, length uint16) []byte {
	b = binary.BigEndian.AppendUint16(b, t)
	return binary.BigEndian.AppendUint16(b, length)
}

// ActionOutput forwards the packet to a port; for PortController, MaxLen
// bounds the bytes sent to the controller.
type ActionOutput struct {
	Port   uint16
	MaxLen uint16
}

// ActionType implements Action.
func (a *ActionOutput) ActionType() uint16 { return ActionTypeOutput }

func (a *ActionOutput) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeOutput, 8)
	b = binary.BigEndian.AppendUint16(b, a.Port)
	return binary.BigEndian.AppendUint16(b, a.MaxLen)
}

// ActionSetVlanVid rewrites the VLAN ID (adding a tag if absent).
type ActionSetVlanVid struct{ VlanVid uint16 }

// ActionType implements Action.
func (a *ActionSetVlanVid) ActionType() uint16 { return ActionTypeSetVlanVid }

func (a *ActionSetVlanVid) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeSetVlanVid, 8)
	b = binary.BigEndian.AppendUint16(b, a.VlanVid)
	return append(b, 0, 0)
}

// ActionSetVlanPcp rewrites the VLAN priority.
type ActionSetVlanPcp struct{ Pcp uint8 }

// ActionType implements Action.
func (a *ActionSetVlanPcp) ActionType() uint16 { return ActionTypeSetVlanPcp }

func (a *ActionSetVlanPcp) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeSetVlanPcp, 8)
	return append(b, a.Pcp, 0, 0, 0)
}

// ActionStripVlan removes the 802.1Q tag.
type ActionStripVlan struct{}

// ActionType implements Action.
func (a *ActionStripVlan) ActionType() uint16 { return ActionTypeStripVlan }

func (a *ActionStripVlan) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeStripVlan, 8)
	return append(b, 0, 0, 0, 0)
}

// ActionSetDlSrc rewrites the source MAC.
type ActionSetDlSrc struct{ Addr pkt.MAC }

// ActionType implements Action.
func (a *ActionSetDlSrc) ActionType() uint16 { return ActionTypeSetDlSrc }

func (a *ActionSetDlSrc) appendTo(b []byte) []byte {
	return appendDlAddr(b, ActionTypeSetDlSrc, a.Addr)
}

// ActionSetDlDst rewrites the destination MAC.
type ActionSetDlDst struct{ Addr pkt.MAC }

// ActionType implements Action.
func (a *ActionSetDlDst) ActionType() uint16 { return ActionTypeSetDlDst }

func (a *ActionSetDlDst) appendTo(b []byte) []byte {
	return appendDlAddr(b, ActionTypeSetDlDst, a.Addr)
}

func appendDlAddr(b []byte, t uint16, addr pkt.MAC) []byte {
	b = appendActionHeader(b, t, 16)
	b = append(b, addr[:]...)
	return append(b, 0, 0, 0, 0, 0, 0)
}

// ActionSetNwSrc rewrites the IPv4 source address.
type ActionSetNwSrc struct{ Addr [4]byte }

// ActionType implements Action.
func (a *ActionSetNwSrc) ActionType() uint16 { return ActionTypeSetNwSrc }

func (a *ActionSetNwSrc) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeSetNwSrc, 8)
	return append(b, a.Addr[:]...)
}

// ActionSetNwDst rewrites the IPv4 destination address.
type ActionSetNwDst struct{ Addr [4]byte }

// ActionType implements Action.
func (a *ActionSetNwDst) ActionType() uint16 { return ActionTypeSetNwDst }

func (a *ActionSetNwDst) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeSetNwDst, 8)
	return append(b, a.Addr[:]...)
}

// ActionSetNwTos rewrites the IP TOS byte.
type ActionSetNwTos struct{ Tos uint8 }

// ActionType implements Action.
func (a *ActionSetNwTos) ActionType() uint16 { return ActionTypeSetNwTos }

func (a *ActionSetNwTos) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeSetNwTos, 8)
	return append(b, a.Tos, 0, 0, 0)
}

// ActionSetTpSrc rewrites the transport source port.
type ActionSetTpSrc struct{ Port uint16 }

// ActionType implements Action.
func (a *ActionSetTpSrc) ActionType() uint16 { return ActionTypeSetTpSrc }

func (a *ActionSetTpSrc) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeSetTpSrc, 8)
	b = binary.BigEndian.AppendUint16(b, a.Port)
	return append(b, 0, 0)
}

// ActionSetTpDst rewrites the transport destination port.
type ActionSetTpDst struct{ Port uint16 }

// ActionType implements Action.
func (a *ActionSetTpDst) ActionType() uint16 { return ActionTypeSetTpDst }

func (a *ActionSetTpDst) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeSetTpDst, 8)
	b = binary.BigEndian.AppendUint16(b, a.Port)
	return append(b, 0, 0)
}

// ActionEnqueue forwards through a port queue.
type ActionEnqueue struct {
	Port    uint16
	QueueID uint32
}

// ActionType implements Action.
func (a *ActionEnqueue) ActionType() uint16 { return ActionTypeEnqueue }

func (a *ActionEnqueue) appendTo(b []byte) []byte {
	b = appendActionHeader(b, ActionTypeEnqueue, 16)
	b = binary.BigEndian.AppendUint16(b, a.Port)
	b = append(b, 0, 0, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint32(b, a.QueueID)
}

// MultipathBucket is one equal-cost way out of a switch: the L2 rewrites and
// output port of a single next hop.
type MultipathBucket struct {
	DlSrc, DlDst pkt.MAC
	Port         uint16
}

// ActionMultipath forwards the packet out one of several equal-cost buckets,
// selected by hashing the packet's exact-match key — so every packet of one
// microflow takes the same bucket (no reordering) while distinct flows spread
// across all of them. The switch resolves the bucket at classify time and
// caches the concrete rewrites+output, keeping the per-packet path exact.
//
// Buckets must be non-empty and is ordered (by next-hop address, as the RIB
// orders equal-cost sets): selection is Buckets[hash % len], a pure function
// of (key, bucket list) that is stable across cache invalidations and
// identical on every replica.
type ActionMultipath struct {
	Buckets []MultipathBucket
}

// ActionType implements Action.
func (a *ActionMultipath) ActionType() uint16 { return ActionTypeMultipath }

// Bucket returns the bucket a key hash selects. It panics on an empty bucket
// list, which encoding rejects anyway.
func (a *ActionMultipath) Bucket(hash uint64) MultipathBucket {
	return a.Buckets[hash%uint64(len(a.Buckets))]
}

// ResolveMultipath returns actions with each multipath action replaced by
// the rewrites and output of the bucket Bucket(key.KeyHash()) selects, and
// each multipath action with no buckets dropped. It returns actions itself
// when there is no multipath action, and a new list otherwise. The switch
// resolves once per microflow, when it fills its cache, so a flow keeps one
// bucket and never reorders across equal-cost paths while distinct
// microflows spread over the buckets. The key hash differs hop to hop (the
// in-port and rewritten MACs feed it), so cascaded switches do not polarize
// onto one path. Whatever follows a frame through the tables resolves the
// same way.
func ResolveMultipath(actions []Action, key *Match) []Action {
	i := slices.IndexFunc(actions, func(a Action) bool {
		_, ok := a.(*ActionMultipath)
		return ok
	})
	if i < 0 {
		return actions
	}
	h := key.KeyHash()
	out := make([]Action, i, len(actions)+2)
	copy(out, actions[:i])
	for _, a := range actions[i:] {
		mp, ok := a.(*ActionMultipath)
		if !ok {
			out = append(out, a)
			continue
		}
		if len(mp.Buckets) == 0 {
			continue
		}
		bk := mp.Bucket(h)
		out = append(out, &ActionSetDlSrc{Addr: bk.DlSrc}, &ActionSetDlDst{Addr: bk.DlDst},
			&ActionOutput{Port: bk.Port})
	}
	return out
}

func (a *ActionMultipath) appendTo(b []byte) []byte {
	// Header (type, len, nbuckets, pad) then 16 bytes per bucket
	// (port, dl_src, dl_dst, pad) — 8-byte aligned throughout.
	b = appendActionHeader(b, ActionTypeMultipath, uint16(8+16*len(a.Buckets)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(a.Buckets)))
	b = append(b, 0, 0)
	for _, bk := range a.Buckets {
		b = binary.BigEndian.AppendUint16(b, bk.Port)
		b = append(b, bk.DlSrc[:]...)
		b = append(b, bk.DlDst[:]...)
		b = append(b, 0, 0)
	}
	return b
}

// ActionVendor is an opaque vendor action.
type ActionVendor struct {
	Vendor uint32
	Data   []byte
}

// ActionType implements Action.
func (a *ActionVendor) ActionType() uint16 { return ActionTypeVendor }

func (a *ActionVendor) appendTo(b []byte) []byte {
	n := 8 + len(a.Data)
	if p := (8 - n%8) % 8; p != 0 {
		n += p
	}
	b = appendActionHeader(b, ActionTypeVendor, uint16(n))
	b = binary.BigEndian.AppendUint32(b, a.Vendor)
	b = append(b, a.Data...)
	return pad(b, n-8-len(a.Data))
}

// CloneActions deep-copies an action list. Snapshot consumers (stats
// replies, the GUI) hold their copy while the live list keeps being
// replaced by flow-mods; sharing the underlying Action values would let a
// reader observe a concurrent mutation.
func CloneActions(actions []Action) []Action {
	if actions == nil {
		return nil
	}
	out := make([]Action, len(actions))
	for i, a := range actions {
		switch act := a.(type) {
		case *ActionOutput:
			out[i] = copyOf(act)
		case *ActionSetVlanVid:
			out[i] = copyOf(act)
		case *ActionSetVlanPcp:
			out[i] = copyOf(act)
		case *ActionStripVlan:
			out[i] = copyOf(act)
		case *ActionSetDlSrc:
			out[i] = copyOf(act)
		case *ActionSetDlDst:
			out[i] = copyOf(act)
		case *ActionSetNwSrc:
			out[i] = copyOf(act)
		case *ActionSetNwDst:
			out[i] = copyOf(act)
		case *ActionSetNwTos:
			out[i] = copyOf(act)
		case *ActionSetTpSrc:
			out[i] = copyOf(act)
		case *ActionSetTpDst:
			out[i] = copyOf(act)
		case *ActionEnqueue:
			out[i] = copyOf(act)
		case *ActionMultipath:
			out[i] = &ActionMultipath{Buckets: append([]MultipathBucket(nil), act.Buckets...)}
		case *ActionVendor:
			out[i] = &ActionVendor{Vendor: act.Vendor, Data: append([]byte(nil), act.Data...)}
		default:
			out[i] = a
		}
	}
	return out
}

// ActionsEqual reports whether two action lists are the same actions in the
// same order, compared by type and field.
func ActionsEqual(a, b []Action) bool {
	return slices.EqualFunc(a, b, actionEqual)
}

func actionEqual(a, b Action) bool {
	switch x := a.(type) {
	case *ActionOutput:
		return sameAction(x, b)
	case *ActionSetVlanVid:
		return sameAction(x, b)
	case *ActionSetVlanPcp:
		return sameAction(x, b)
	case *ActionStripVlan:
		return sameAction(x, b)
	case *ActionSetDlSrc:
		return sameAction(x, b)
	case *ActionSetDlDst:
		return sameAction(x, b)
	case *ActionSetNwSrc:
		return sameAction(x, b)
	case *ActionSetNwDst:
		return sameAction(x, b)
	case *ActionSetNwTos:
		return sameAction(x, b)
	case *ActionSetTpSrc:
		return sameAction(x, b)
	case *ActionSetTpDst:
		return sameAction(x, b)
	case *ActionEnqueue:
		return sameAction(x, b)
	case *ActionMultipath:
		y, ok := b.(*ActionMultipath)
		return ok && slices.Equal(x.Buckets, y.Buckets)
	case *ActionVendor:
		y, ok := b.(*ActionVendor)
		return ok && x.Vendor == y.Vendor && bytes.Equal(x.Data, y.Data)
	}
	return a == b
}

// sameAction reports whether b is a P holding what x holds.
func sameAction[T comparable, P interface {
	*T
	Action
}](x P, b Action) bool {
	y, ok := b.(P)
	return ok && *x == *y
}

func appendActions(b []byte, actions []Action) []byte {
	for _, a := range actions {
		b = a.appendTo(b)
	}
	return b
}

// decodeActions decodes the action list b. The list and its action values
// come from st; an empty list is nil.
func (st *store) decodeActions(b []byte) ([]Action, error) {
	start := len(st.list)
	st.list = slices.Grow(st.list, len(b)/8) // every action is at least 8 bytes
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("trailing %d bytes in action list", len(b))
		}
		t, alen := binary.BigEndian.Uint16(b), int(binary.BigEndian.Uint16(b[2:]))
		if alen < 8 || alen%8 != 0 || alen > len(b) {
			return nil, fmt.Errorf("action type %d has invalid length %d of %d", t, alen, len(b))
		}
		a, err := st.decodeAction(t, b[4:alen])
		if err != nil {
			return nil, err
		}
		st.list = append(st.list, a)
		b = b[alen:]
	}
	if len(st.list) == start {
		return nil, nil
	}
	return st.list[start:len(st.list):len(st.list)], nil
}

// decodeAction decodes the body b of one action of type t, reading it at
// fixed offsets into a value from st. An action is a multiple of 8 bytes
// long, so b holds 4, 12, 20, ... bytes.
func (st *store) decodeAction(t uint16, b []byte) (Action, error) {
	switch t {
	case ActionTypeSetDlSrc, ActionTypeSetDlDst, ActionTypeEnqueue:
		if len(b) < 12 {
			return nil, fmt.Errorf("action type %d has length %d, need 16", t, len(b)+4)
		}
	}
	switch t {
	case ActionTypeOutput:
		a := st.output.next()
		a.Port, a.MaxLen = binary.BigEndian.Uint16(b), binary.BigEndian.Uint16(b[2:])
		return a, nil
	case ActionTypeSetVlanVid:
		a := st.vlanVid.next()
		a.VlanVid = binary.BigEndian.Uint16(b)
		return a, nil
	case ActionTypeSetVlanPcp:
		a := st.vlanPcp.next()
		a.Pcp = b[0]
		return a, nil
	case ActionTypeStripVlan:
		return &ActionStripVlan{}, nil // zero-sized: allocates nothing
	case ActionTypeSetDlSrc:
		a := st.dlSrc.next()
		a.Addr = pkt.MAC(b[:6])
		return a, nil
	case ActionTypeSetDlDst:
		a := st.dlDst.next()
		a.Addr = pkt.MAC(b[:6])
		return a, nil
	case ActionTypeSetNwSrc:
		a := st.nwSrc.next()
		a.Addr = [4]byte(b[:4])
		return a, nil
	case ActionTypeSetNwDst:
		a := st.nwDst.next()
		a.Addr = [4]byte(b[:4])
		return a, nil
	case ActionTypeSetNwTos:
		a := st.nwTos.next()
		a.Tos = b[0]
		return a, nil
	case ActionTypeSetTpSrc:
		a := st.tpSrc.next()
		a.Port = binary.BigEndian.Uint16(b)
		return a, nil
	case ActionTypeSetTpDst:
		a := st.tpDst.next()
		a.Port = binary.BigEndian.Uint16(b)
		return a, nil
	case ActionTypeEnqueue:
		a := st.enqueue.next()
		a.Port, a.QueueID = binary.BigEndian.Uint16(b), binary.BigEndian.Uint32(b[8:])
		return a, nil
	case ActionTypeMultipath:
		n := int(binary.BigEndian.Uint16(b))
		if b = b[4:]; n == 0 || len(b) != 16*n {
			return nil, fmt.Errorf("multipath action: %d buckets in %d body bytes", n, len(b))
		}
		a := st.multipath.next()
		a.Buckets = st.buckets.take(n)
		for i := range a.Buckets {
			bk := b[16*i:]
			a.Buckets[i] = MultipathBucket{Port: binary.BigEndian.Uint16(bk), DlSrc: pkt.MAC(bk[2:8]), DlDst: pkt.MAC(bk[8:14])}
		}
		return a, nil
	case ActionTypeVendor:
		a := st.vendor.next()
		a.Vendor, a.Data = binary.BigEndian.Uint32(b), tail(b[4:])
		return a, nil
	}
	return nil, fmt.Errorf("unknown action type %d", t)
}

// store is the storage a decode takes action values and action lists from.
// A Decoder keeps one and resets it before every message, so a borrowed
// message's actions are overwritten by the next Decode; Clone copies them
// out.
type store struct {
	list      []Action
	output    pool[ActionOutput]
	vlanVid   pool[ActionSetVlanVid]
	vlanPcp   pool[ActionSetVlanPcp]
	dlSrc     pool[ActionSetDlSrc]
	dlDst     pool[ActionSetDlDst]
	nwSrc     pool[ActionSetNwSrc]
	nwDst     pool[ActionSetNwDst]
	nwTos     pool[ActionSetNwTos]
	tpSrc     pool[ActionSetTpSrc]
	tpDst     pool[ActionSetTpDst]
	enqueue   pool[ActionEnqueue]
	multipath pool[ActionMultipath]
	buckets   pool[MultipathBucket]
	vendor    pool[ActionVendor]
}

// reset makes all of st's storage free for the next message, keeping its
// capacity.
func (st *store) reset() {
	st.list = st.list[:0]
	st.output = st.output[:0]
	st.vlanVid = st.vlanVid[:0]
	st.vlanPcp = st.vlanPcp[:0]
	st.dlSrc = st.dlSrc[:0]
	st.dlDst = st.dlDst[:0]
	st.nwSrc = st.nwSrc[:0]
	st.nwDst = st.nwDst[:0]
	st.nwTos = st.nwTos[:0]
	st.tpSrc = st.tpSrc[:0]
	st.tpDst = st.tpDst[:0]
	st.enqueue = st.enqueue[:0]
	st.multipath = st.multipath[:0]
	st.buckets = st.buckets[:0]
	st.vendor = st.vendor[:0]
}

// pool hands out values of one type from a slice that keeps its capacity
// across resets. A value taken before the slice grows stays where it was,
// so growing never moves what a message already points at.
type pool[T any] []T

// next returns a zeroed value from p.
func (p *pool[T]) next() *T {
	var zero T
	*p = append(*p, zero)
	return &(*p)[len(*p)-1]
}

// take returns n zeroed values from p as a slice that cannot be appended
// into its neighbours.
func (p *pool[T]) take(n int) []T {
	start := len(*p)
	*p = append(*p, make([]T, n)...)
	return (*p)[start:len(*p):len(*p)]
}
