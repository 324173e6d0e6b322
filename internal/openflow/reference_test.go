package openflow

import (
	"encoding/binary"
	"fmt"
)

// refUnmarshal is Unmarshal as it was while every message decoded through
// refBuf: a cursor with a sticky error that bounds-checks each field it
// reads, and copies each byte field out of the frame. It is the reference
// FuzzDecodeMatchesReference holds the fixed-offset decoder to: on every
// frame, equal messages, or an error from both.
func refUnmarshal(b []byte) (Message, error) {
	t, length, xid, err := checkHeader(b)
	if err != nil {
		return nil, err
	}
	m := newMessage(t)
	m.SetXID(xid)
	r := &refBuf{b: b[HeaderLen:length]}
	err = refDecodeBody(m, r)
	if err == nil {
		err = r.err
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v body: %v", ErrBadMessage, m.MsgType(), err)
	}
	return m, nil
}

// refDecodeBody fills m from the frame body r reads.
func refDecodeBody(m Message, r *refBuf) error {
	switch m := m.(type) {
	case *Hello, *FeaturesRequest, *GetConfigRequest, *BarrierRequest, *BarrierReply:
		r.rest()
	case *ErrorMsg:
		m.ErrType = r.u16()
		m.Code = r.u16()
		m.Data = r.bytes()
	case *EchoRequest:
		m.Data = r.bytes()
	case *EchoReply:
		m.Data = r.bytes()
	case *Vendor:
		m.VendorID = r.u32()
		m.Data = r.bytes()
	case *FeaturesReply:
		m.DatapathID = r.u64()
		m.NBuffers = r.u32()
		m.NTables = r.u8()
		r.skip(3)
		m.Capabilities = r.u32()
		m.Actions = r.u32()
		if r.err != nil {
			return r.err
		}
		if r.remaining()%PhyPortLen != 0 {
			return fmt.Errorf("features ports: %d trailing bytes", r.remaining()%PhyPortLen)
		}
		for r.remaining() >= PhyPortLen {
			var p PhyPort
			refPhyPort(&p, r)
			m.Ports = append(m.Ports, p)
		}
	case *GetConfigReply:
		m.Flags = r.u16()
		m.MissSendLen = r.u16()
	case *SetConfig:
		m.Flags = r.u16()
		m.MissSendLen = r.u16()
	case *PacketIn:
		m.BufferID = r.u32()
		m.TotalLen = r.u16()
		m.InPort = r.u16()
		m.Reason = r.u8()
		r.skip(1)
		m.Data = r.bytes()
	case *PacketOut:
		m.BufferID = r.u32()
		m.InPort = r.u16()
		alen := int(r.u16())
		if r.err != nil {
			return r.err
		}
		actions, err := refActions(r, alen)
		if err != nil {
			return err
		}
		m.Actions = actions
		m.Data = r.bytes()
	case *FlowRemoved:
		refMatch(&m.Match, r)
		m.Cookie = r.u64()
		m.Priority = r.u16()
		m.Reason = r.u8()
		r.skip(1)
		m.DurationSec = r.u32()
		m.DurationNsec = r.u32()
		m.IdleTimeout = r.u16()
		r.skip(2)
		m.PacketCount = r.u64()
		m.ByteCount = r.u64()
	case *PortStatus:
		m.Reason = r.u8()
		r.skip(7)
		refPhyPort(&m.Desc, r)
	case *FlowMod:
		refMatch(&m.Match, r)
		m.Cookie = r.u64()
		m.Command = r.u16()
		m.IdleTimeout = r.u16()
		m.HardTimeout = r.u16()
		m.Priority = r.u16()
		m.BufferID = r.u32()
		m.OutPort = r.u16()
		m.Flags = r.u16()
		if r.err != nil {
			return r.err
		}
		actions, err := refActions(r, r.remaining())
		if err != nil {
			return err
		}
		m.Actions = actions
	case *StatsRequest:
		return refStatsRequest(m, r)
	case *StatsReply:
		return refStatsReply(m, r)
	case *TelemetryMod:
		return refTelemetryMod(m, r)
	case *TelemetryExport:
		return refTelemetryExport(m, r)
	case *Raw:
		m.Body = r.bytes()
	default:
		panic(fmt.Sprintf("reference decoder: no case for %T", m))
	}
	return r.err
}

func refPhyPort(p *PhyPort, r *refBuf) {
	p.PortNo = r.u16()
	copy(p.HWAddr[:], r.take(6))
	p.Name = r.str(16)
	p.Config = r.u32()
	p.State = r.u32()
	p.Curr = r.u32()
	p.Advertised = r.u32()
	p.Supported = r.u32()
	p.Peer = r.u32()
}

func refMatch(m *Match, r *refBuf) {
	m.Wildcards = r.u32()
	m.InPort = r.u16()
	copy(m.DlSrc[:], r.take(6))
	copy(m.DlDst[:], r.take(6))
	m.DlVlan = r.u16()
	m.DlVlanPcp = r.u8()
	r.skip(1)
	m.DlType = r.u16()
	m.NwTos = r.u8()
	m.NwProto = r.u8()
	r.skip(2)
	copy(m.NwSrc[:], r.take(4))
	copy(m.NwDst[:], r.take(4))
	m.TpSrc = r.u16()
	m.TpDst = r.u16()
}

func refStatsRequest(m *StatsRequest, r *refBuf) error {
	m.StatsType = r.u16()
	m.Flags = r.u16()
	switch m.StatsType {
	case StatsFlow, StatsAggregate:
		var fr FlowStatsRequest
		refMatch(&fr.Match, r)
		fr.TableID = r.u8()
		r.skip(1)
		fr.OutPort = r.u16()
		m.Flow = &fr
	case StatsPort:
		var pr PortStatsRequest
		pr.PortNo = r.u16()
		r.skip(6)
		m.Port = &pr
	default:
		r.rest()
	}
	return r.err
}

func refStatsReply(m *StatsReply, r *refBuf) error {
	m.StatsType = r.u16()
	m.Flags = r.u16()
	switch m.StatsType {
	case StatsDesc:
		var d DescStats
		d.Manufacturer = r.str(256)
		d.Hardware = r.str(256)
		d.Software = r.str(256)
		d.SerialNumber = r.str(32)
		d.Datapath = r.str(256)
		m.Desc = &d
	case StatsFlow:
		for r.remaining() > 0 {
			f, err := refFlowStats(r)
			if err != nil {
				return err
			}
			m.Flows = append(m.Flows, *f)
		}
	case StatsTable:
		for r.remaining() >= 64 {
			var t TableStats
			t.TableID = r.u8()
			r.skip(3)
			t.Name = r.str(32)
			t.Wildcards = r.u32()
			t.MaxEntries = r.u32()
			t.ActiveCount = r.u32()
			t.LookupCount = r.u64()
			t.MatchedCount = r.u64()
			m.Tables = append(m.Tables, t)
		}
	case StatsPort:
		for r.remaining() >= 104 {
			var p PortStats
			p.PortNo = r.u16()
			r.skip(6)
			dst := []*uint64{&p.RxPackets, &p.TxPackets, &p.RxBytes, &p.TxBytes,
				&p.RxDropped, &p.TxDropped, &p.RxErrors, &p.TxErrors,
				&p.RxFrameErr, &p.RxOverErr, &p.RxCRCErr, &p.Collisions}
			for _, d := range dst {
				*d = r.u64()
			}
			m.Ports = append(m.Ports, p)
		}
	default:
		m.Raw = r.bytes()
	}
	return r.err
}

func refFlowStats(r *refBuf) (*FlowStats, error) {
	start := r.off
	length := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	if length < 88 || start+length > len(r.b) {
		return nil, fmt.Errorf("flow stats entry length %d", length)
	}
	var f FlowStats
	f.TableID = r.u8()
	r.skip(1)
	refMatch(&f.Match, r)
	f.DurationSec = r.u32()
	f.DurationNsec = r.u32()
	f.Priority = r.u16()
	f.IdleTimeout = r.u16()
	f.HardTimeout = r.u16()
	r.skip(6)
	f.Cookie = r.u64()
	f.PacketCount = r.u64()
	f.ByteCount = r.u64()
	actions, err := refActions(r, start+length-r.off)
	if err != nil {
		return nil, err
	}
	f.Actions = actions
	return &f, r.err
}

func refTelemetryMod(m *TelemetryMod, r *refBuf) error {
	m.Epoch = r.u64()
	m.IntervalMS = r.u32()
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if n*monitorRuleWireLen > r.remaining() {
		return fmt.Errorf("rule count %d exceeds body (%d bytes left)", n, r.remaining())
	}
	m.Rules = nil
	if n == 0 {
		return nil
	}
	m.Rules = make([]MonitorRule, n)
	for i := range m.Rules {
		ru := &m.Rules[i]
		ru.ID = r.u32()
		copy(ru.Src[:], r.take(4))
		ru.SrcBits = r.u8()
		copy(ru.Dst[:], r.take(4))
		ru.DstBits = r.u8()
	}
	return nil
}

func refTelemetryExport(m *TelemetryExport, r *refBuf) error {
	m.Epoch = r.u64()
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	// Each entry is at least three one-byte varints.
	if n*3 > r.remaining() {
		return fmt.Errorf("entry count %d exceeds body (%d bytes left)", n, r.remaining())
	}
	m.Entries = nil
	if n == 0 {
		return nil
	}
	m.Entries = make([]TelemetryEntry, n)
	for i := range m.Entries {
		e := &m.Entries[i]
		id := r.uvarint()
		if id > 0xffffffff {
			if r.err == nil {
				r.err = fmt.Errorf("entry %d: flow id %d overflows uint32", i, id)
			}
			return nil
		}
		e.ID = uint32(id)
		e.Packets = r.uvarint()
		e.Bytes = r.uvarint()
	}
	return nil
}

// refActions decodes an action list of length bytes; an empty list is nil.
func refActions(r *refBuf, length int) ([]Action, error) {
	if length < 0 || length > r.remaining() {
		return nil, fmt.Errorf("action list length %d of %d", length, r.remaining())
	}
	sub := refBuf{b: r.take(length)}
	var list []Action
	for sub.remaining() > 0 {
		if sub.remaining() < 4 {
			return nil, fmt.Errorf("trailing %d bytes in action list", sub.remaining())
		}
		t := sub.u16()
		alen := int(sub.u16())
		if alen < 8 || alen%8 != 0 {
			return nil, fmt.Errorf("action type %d has invalid length %d", t, alen)
		}
		body := refBuf{b: sub.take(alen - 4)}
		if sub.err != nil {
			return nil, sub.err
		}
		a, err := refAction(t, &body)
		if err != nil {
			return nil, err
		}
		list = append(list, a)
	}
	return list, nil
}

func refAction(t uint16, r *refBuf) (Action, error) {
	switch t {
	case ActionTypeOutput:
		a := &ActionOutput{}
		a.Port, a.MaxLen = r.u16(), r.u16()
		return a, r.err
	case ActionTypeSetVlanVid:
		return &ActionSetVlanVid{VlanVid: r.u16()}, r.err
	case ActionTypeSetVlanPcp:
		return &ActionSetVlanPcp{Pcp: r.u8()}, r.err
	case ActionTypeStripVlan:
		return &ActionStripVlan{}, r.err
	case ActionTypeSetDlSrc:
		a := &ActionSetDlSrc{}
		copy(a.Addr[:], r.take(6))
		return a, r.err
	case ActionTypeSetDlDst:
		a := &ActionSetDlDst{}
		copy(a.Addr[:], r.take(6))
		return a, r.err
	case ActionTypeSetNwSrc:
		a := &ActionSetNwSrc{}
		copy(a.Addr[:], r.take(4))
		return a, r.err
	case ActionTypeSetNwDst:
		a := &ActionSetNwDst{}
		copy(a.Addr[:], r.take(4))
		return a, r.err
	case ActionTypeSetNwTos:
		return &ActionSetNwTos{Tos: r.u8()}, r.err
	case ActionTypeSetTpSrc:
		return &ActionSetTpSrc{Port: r.u16()}, r.err
	case ActionTypeSetTpDst:
		return &ActionSetTpDst{Port: r.u16()}, r.err
	case ActionTypeEnqueue:
		a := &ActionEnqueue{}
		a.Port = r.u16()
		r.skip(6)
		a.QueueID = r.u32()
		return a, r.err
	case ActionTypeMultipath:
		n := int(r.u16())
		r.skip(2)
		if r.err != nil {
			return nil, r.err
		}
		if n == 0 || r.remaining() != 16*n {
			return nil, fmt.Errorf("multipath action: %d buckets in %d body bytes", n, r.remaining())
		}
		a := &ActionMultipath{Buckets: make([]MultipathBucket, n)}
		for i := range a.Buckets {
			a.Buckets[i].Port = r.u16()
			copy(a.Buckets[i].DlSrc[:], r.take(6))
			copy(a.Buckets[i].DlDst[:], r.take(6))
			r.skip(2)
		}
		return a, r.err
	case ActionTypeVendor:
		a := &ActionVendor{}
		a.Vendor = r.u32()
		a.Data = r.bytes()
		return a, r.err
	default:
		return nil, fmt.Errorf("unknown action type %d", t)
	}
}

// refBuf is a cursor-based big-endian decoder with a sticky error over one
// frame's body.
type refBuf struct {
	b   []byte
	off int
	err error
}

func (r *refBuf) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("truncated at offset %d (need %d of %d)", r.off, n, len(r.b))
		return true
	}
	return false
}

func (r *refBuf) u8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *refBuf) u16() uint16 {
	if r.fail(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *refBuf) u32() uint32 {
	if r.fail(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *refBuf) u64() uint64 {
	if r.fail(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *refBuf) take(n int) []byte {
	if n < 0 || r.fail(n) {
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *refBuf) skip(n int) { r.take(n) }

func (r *refBuf) rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.b[r.off:]
	r.off = len(r.b)
	return v
}

// bytes returns a copy of the rest of the body, or nil when nothing is left.
func (r *refBuf) bytes() []byte {
	if b := r.rest(); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

func (r *refBuf) remaining() int { return len(r.b) - r.off }

// str reads a fixed-size NUL-padded string field.
func (r *refBuf) str(size int) string {
	raw := r.take(size)
	for i, c := range raw {
		if c == 0 {
			return string(raw[:i])
		}
	}
	return string(raw)
}

// uvarint reads one unsigned LEB128 varint.
func (r *refBuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}
