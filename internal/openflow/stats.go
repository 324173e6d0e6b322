package openflow

import (
	"encoding/binary"
	"fmt"
)

// Stats types (ofp_stats_types).
const (
	StatsDesc      uint16 = 0
	StatsFlow      uint16 = 1
	StatsAggregate uint16 = 2
	StatsTable     uint16 = 3
	StatsPort      uint16 = 4
	StatsQueue     uint16 = 5
	StatsVendor    uint16 = 0xffff
)

// StatsReplyFlagMore marks a multipart reply with more parts following.
const StatsReplyFlagMore uint16 = 1 << 0

// StatsRequest asks for one statistics category. Exactly one of the typed
// request fields is consulted, selected by StatsType; Desc and Table
// requests have empty bodies.
type StatsRequest struct {
	MsgXID
	StatsType uint16
	Flags     uint16
	Flow      *FlowStatsRequest // StatsFlow / StatsAggregate
	Port      *PortStatsRequest // StatsPort
}

// FlowStatsRequest selects flows by match, table and output port.
type FlowStatsRequest struct {
	Match   Match
	TableID uint8
	OutPort uint16
}

// PortStatsRequest selects one port, or all with PortNone.
type PortStatsRequest struct {
	PortNo uint16
}

// MsgType implements Message.
func (*StatsRequest) MsgType() Type { return TypeStatsRequest }

// AppendTo implements Message.
func (m *StatsRequest) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *StatsRequest) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.StatsType)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	switch m.StatsType {
	case StatsFlow, StatsAggregate:
		fr := m.Flow
		if fr == nil {
			fr = &FlowStatsRequest{Match: MatchAll(), TableID: 0xff, OutPort: PortNone}
		}
		b = fr.Match.appendTo(b)
		b = append(b, fr.TableID, 0)
		b = binary.BigEndian.AppendUint16(b, fr.OutPort)
	case StatsPort:
		pr := m.Port
		if pr == nil {
			pr = &PortStatsRequest{PortNo: PortNone}
		}
		b = binary.BigEndian.AppendUint16(b, pr.PortNo)
		b = append(b, 0, 0, 0, 0, 0, 0)
	}
	return b
}

func (m *StatsRequest) decodeBody(b []byte, _ *store) error {
	if len(b) < 4 {
		return short(b, 4)
	}
	m.StatsType = binary.BigEndian.Uint16(b)
	m.Flags = binary.BigEndian.Uint16(b[2:])
	switch b = b[4:]; m.StatsType {
	case StatsFlow, StatsAggregate:
		if len(b) < MatchLen+4 {
			return short(b, MatchLen+4)
		}
		fr := &FlowStatsRequest{TableID: b[MatchLen], OutPort: binary.BigEndian.Uint16(b[MatchLen+2:])}
		fr.Match.decode(b)
		m.Flow = fr
	case StatsPort:
		if len(b) < 8 {
			return short(b, 8)
		}
		m.Port = &PortStatsRequest{PortNo: binary.BigEndian.Uint16(b)}
	}
	return nil
}

// DescStats is the switch description (ofp_desc_stats).
type DescStats struct {
	Manufacturer string
	Hardware     string
	Software     string
	SerialNumber string
	Datapath     string
}

// FlowStats is one flow entry's statistics.
type FlowStats struct {
	TableID      uint8
	Match        Match
	DurationSec  uint32
	DurationNsec uint32
	Priority     uint16
	IdleTimeout  uint16
	HardTimeout  uint16
	Cookie       uint64
	PacketCount  uint64
	ByteCount    uint64
	Actions      []Action
}

// TableStats describes one flow table.
type TableStats struct {
	TableID      uint8
	Name         string
	Wildcards    uint32
	MaxEntries   uint32
	ActiveCount  uint32
	LookupCount  uint64
	MatchedCount uint64
}

// PortStats carries per-port counters.
type PortStats struct {
	PortNo                uint16
	RxPackets, TxPackets  uint64
	RxBytes, TxBytes      uint64
	RxDropped, TxDropped  uint64
	RxErrors, TxErrors    uint64
	RxFrameErr, RxOverErr uint64
	RxCRCErr, Collisions  uint64
}

// StatsReply answers a StatsRequest; the field matching StatsType is set.
type StatsReply struct {
	MsgXID
	StatsType uint16
	Flags     uint16
	Desc      *DescStats
	Flows     []FlowStats
	Tables    []TableStats
	Ports     []PortStats
	Raw       []byte // body of unmodeled categories
}

// MsgType implements Message.
func (*StatsReply) MsgType() Type { return TypeStatsReply }

// AppendTo implements Message.
func (m *StatsReply) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *StatsReply) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.StatsType)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	switch m.StatsType {
	case StatsDesc:
		d := m.Desc
		if d == nil {
			d = &DescStats{}
		}
		b = fixedStr(b, d.Manufacturer, 256)
		b = fixedStr(b, d.Hardware, 256)
		b = fixedStr(b, d.Software, 256)
		b = fixedStr(b, d.SerialNumber, 32)
		b = fixedStr(b, d.Datapath, 256)
	case StatsFlow:
		for i := range m.Flows {
			b = appendFlowStats(b, &m.Flows[i])
		}
	case StatsTable:
		for _, t := range m.Tables {
			b = append(b, t.TableID, 0, 0, 0)
			b = fixedStr(b, t.Name, 32)
			b = binary.BigEndian.AppendUint32(b, t.Wildcards)
			b = binary.BigEndian.AppendUint32(b, t.MaxEntries)
			b = binary.BigEndian.AppendUint32(b, t.ActiveCount)
			b = binary.BigEndian.AppendUint64(b, t.LookupCount)
			b = binary.BigEndian.AppendUint64(b, t.MatchedCount)
		}
	case StatsPort:
		for i := range m.Ports {
			p := &m.Ports[i]
			b = binary.BigEndian.AppendUint16(b, p.PortNo)
			b = append(b, 0, 0, 0, 0, 0, 0)
			for _, v := range [...]uint64{p.RxPackets, p.TxPackets, p.RxBytes, p.TxBytes,
				p.RxDropped, p.TxDropped, p.RxErrors, p.TxErrors,
				p.RxFrameErr, p.RxOverErr, p.RxCRCErr, p.Collisions} {
				b = binary.BigEndian.AppendUint64(b, v)
			}
		}
	default:
		b = append(b, m.Raw...)
	}
	return b
}

// FlowStatsReplies splits a flow-stats answer into the parts of a multipart
// reply, each under MaxMessageLen, with StatsReplyFlagMore on every part but
// the last. A table of a few hundred entries already overflows one message.
func FlowStatsReplies(xid uint32, flows []FlowStats) []*StatsReply {
	var parts []*StatsReply
	var entry []byte
	start, size := 0, HeaderLen+4
	for i := range flows {
		entry = appendFlowStats(entry[:0], &flows[i])
		if i > start && size+len(entry) > MaxMessageLen {
			parts = append(parts, &StatsReply{StatsType: StatsFlow, Flags: StatsReplyFlagMore, Flows: flows[start:i]})
			start, size = i, HeaderLen+4
		}
		size += len(entry)
	}
	parts = append(parts, &StatsReply{StatsType: StatsFlow, Flows: flows[start:]})
	for _, p := range parts {
		p.SetXID(xid)
	}
	return parts
}

func appendFlowStats(b []byte, f *FlowStats) []byte {
	lenAt := len(b)
	b = append(b, 0, 0) // length, patched below
	b = append(b, f.TableID, 0)
	b = f.Match.appendTo(b)
	b = binary.BigEndian.AppendUint32(b, f.DurationSec)
	b = binary.BigEndian.AppendUint32(b, f.DurationNsec)
	b = binary.BigEndian.AppendUint16(b, f.Priority)
	b = binary.BigEndian.AppendUint16(b, f.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, f.HardTimeout)
	b = append(b, 0, 0, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint64(b, f.Cookie)
	b = binary.BigEndian.AppendUint64(b, f.PacketCount)
	b = binary.BigEndian.AppendUint64(b, f.ByteCount)
	b = appendActions(b, f.Actions)
	binary.BigEndian.PutUint16(b[lenAt:], uint16(len(b)-lenAt))
	return b
}

func (m *StatsReply) decodeBody(b []byte, st *store) error {
	if len(b) < 4 {
		return short(b, 4)
	}
	m.StatsType = binary.BigEndian.Uint16(b)
	m.Flags = binary.BigEndian.Uint16(b[2:])
	switch b = b[4:]; m.StatsType {
	case StatsDesc:
		if len(b) < 1056 {
			return short(b, 1056)
		}
		m.Desc = &DescStats{Manufacturer: str(b[:256]), Hardware: str(b[256:512]),
			Software: str(b[512:768]), SerialNumber: str(b[768:800]), Datapath: str(b[800:1056])}
	case StatsFlow:
		for len(b) > 0 {
			var f FlowStats
			n, err := f.decode(b, st)
			if err != nil {
				return err
			}
			m.Flows = append(m.Flows, f)
			b = b[n:]
		}
	case StatsTable:
		for ; len(b) >= 64; b = b[64:] {
			m.Tables = append(m.Tables, TableStats{
				TableID:      b[0],
				Name:         str(b[4:36]),
				Wildcards:    binary.BigEndian.Uint32(b[36:]),
				MaxEntries:   binary.BigEndian.Uint32(b[40:]),
				ActiveCount:  binary.BigEndian.Uint32(b[44:]),
				LookupCount:  binary.BigEndian.Uint64(b[48:]),
				MatchedCount: binary.BigEndian.Uint64(b[56:]),
			})
		}
	case StatsPort:
		for ; len(b) >= 104; b = b[104:] {
			p := PortStats{PortNo: binary.BigEndian.Uint16(b)}
			for i, d := range [...]*uint64{&p.RxPackets, &p.TxPackets, &p.RxBytes, &p.TxBytes,
				&p.RxDropped, &p.TxDropped, &p.RxErrors, &p.TxErrors,
				&p.RxFrameErr, &p.RxOverErr, &p.RxCRCErr, &p.Collisions} {
				*d = binary.BigEndian.Uint64(b[8+8*i:])
			}
			m.Ports = append(m.Ports, p)
		}
	default:
		m.Raw = tail(b)
	}
	return nil
}

// decode reads f from the flow-stats entry that starts b and returns the
// entry's length.
func (f *FlowStats) decode(b []byte, st *store) (int, error) {
	if len(b) < 2 {
		return 0, short(b, 2)
	}
	length := int(binary.BigEndian.Uint16(b))
	if length < 88 || length > len(b) {
		return 0, fmt.Errorf("flow stats entry length %d", length)
	}
	actions, err := st.decodeActions(b[88:length])
	if err != nil {
		return 0, err
	}
	f.TableID = b[2]
	f.Match.decode(b[4:])
	f.DurationSec = binary.BigEndian.Uint32(b[44:])
	f.DurationNsec = binary.BigEndian.Uint32(b[48:])
	f.Priority = binary.BigEndian.Uint16(b[52:])
	f.IdleTimeout = binary.BigEndian.Uint16(b[54:])
	f.HardTimeout = binary.BigEndian.Uint16(b[56:])
	f.Cookie = binary.BigEndian.Uint64(b[64:])
	f.PacketCount = binary.BigEndian.Uint64(b[72:])
	f.ByteCount = binary.BigEndian.Uint64(b[80:])
	f.Actions = actions
	return length, nil
}
