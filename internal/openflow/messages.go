package openflow

import (
	"encoding/binary"
	"fmt"

	"routeflow/internal/pkt"
)

// Hello opens version negotiation.
type Hello struct{ MsgXID }

// MsgType implements Message.
func (*Hello) MsgType() Type { return TypeHello }

// AppendTo implements Message.
func (m *Hello) AppendTo(b []byte) []byte      { return appendMessage(b, m) }
func (*Hello) appendBody(b []byte) []byte      { return b }
func (*Hello) decodeBody([]byte, *store) error { return nil }

// Error type codes (ofp_error_type).
const (
	ErrTypeHelloFailed   uint16 = 0
	ErrTypeBadRequest    uint16 = 1
	ErrTypeBadAction     uint16 = 2
	ErrTypeFlowModFailed uint16 = 3
	ErrTypePortModFailed uint16 = 4
	ErrTypeQueueOpFailed uint16 = 5
)

// Selected error codes.
const (
	ErrCodeBadRequestBadType    uint16 = 1 // OFPBRC_BAD_TYPE
	ErrCodeBadRequestBadStat    uint16 = 2 // OFPBRC_BAD_STAT
	ErrCodeBadRequestEperm      uint16 = 5 // OFPBRC_EPERM
	ErrCodeBadRequestBufUnknown uint16 = 8 // OFPBRC_BUFFER_UNKNOWN
	ErrCodeFlowModAllTablesFull uint16 = 0 // OFPFMFC_ALL_TABLES_FULL
	ErrCodeFlowModOverlap       uint16 = 1 // OFPFMFC_OVERLAP
	ErrCodeBadActionBadType     uint16 = 0 // OFPBAC_BAD_TYPE
	ErrCodeBadActionBadOutPort  uint16 = 4 // OFPBAC_BAD_OUT_PORT
)

// ErrorMsg reports a failure; Data carries (a prefix of) the offending
// request.
type ErrorMsg struct {
	MsgXID
	ErrType uint16
	Code    uint16
	Data    []byte
}

// MsgType implements Message.
func (*ErrorMsg) MsgType() Type { return TypeError }

// AppendTo implements Message.
func (m *ErrorMsg) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *ErrorMsg) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.ErrType)
	b = binary.BigEndian.AppendUint16(b, m.Code)
	return append(b, m.Data...)
}

func (m *ErrorMsg) decodeBody(b []byte, _ *store) error {
	if len(b) < 4 {
		return short(b, 4)
	}
	m.ErrType = binary.BigEndian.Uint16(b)
	m.Code = binary.BigEndian.Uint16(b[2:])
	m.Data = tail(b[4:])
	return nil
}

// Error lets an ErrorMsg be used as a Go error.
func (m *ErrorMsg) Error() string {
	return fmt.Sprintf("openflow error type=%d code=%d", m.ErrType, m.Code)
}

// EchoRequest is the liveness probe; Data is echoed back.
type EchoRequest struct {
	MsgXID
	Data []byte
}

// MsgType implements Message.
func (*EchoRequest) MsgType() Type { return TypeEchoRequest }

// AppendTo implements Message.
func (m *EchoRequest) AppendTo(b []byte) []byte   { return appendMessage(b, m) }
func (m *EchoRequest) appendBody(b []byte) []byte { return append(b, m.Data...) }
func (m *EchoRequest) decodeBody(b []byte, _ *store) error {
	m.Data = tail(b)
	return nil
}

// EchoReply answers an EchoRequest with the same data and XID.
type EchoReply struct {
	MsgXID
	Data []byte
}

// MsgType implements Message.
func (*EchoReply) MsgType() Type { return TypeEchoReply }

// AppendTo implements Message.
func (m *EchoReply) AppendTo(b []byte) []byte   { return appendMessage(b, m) }
func (m *EchoReply) appendBody(b []byte) []byte { return append(b, m.Data...) }
func (m *EchoReply) decodeBody(b []byte, _ *store) error {
	m.Data = tail(b)
	return nil
}

// Vendor is an opaque vendor extension message.
type Vendor struct {
	MsgXID
	VendorID uint32
	Data     []byte
}

// MsgType implements Message.
func (*Vendor) MsgType() Type { return TypeVendor }

// AppendTo implements Message.
func (m *Vendor) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *Vendor) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.VendorID)
	return append(b, m.Data...)
}

func (m *Vendor) decodeBody(b []byte, _ *store) error {
	if len(b) < 4 {
		return short(b, 4)
	}
	m.VendorID = binary.BigEndian.Uint32(b)
	m.Data = tail(b[4:])
	return nil
}

// FeaturesRequest asks the datapath for its identity and port list.
type FeaturesRequest struct{ MsgXID }

// MsgType implements Message.
func (*FeaturesRequest) MsgType() Type { return TypeFeaturesRequest }

// AppendTo implements Message.
func (m *FeaturesRequest) AppendTo(b []byte) []byte      { return appendMessage(b, m) }
func (*FeaturesRequest) appendBody(b []byte) []byte      { return b }
func (*FeaturesRequest) decodeBody([]byte, *store) error { return nil }

// Port config/state bits (subset).
const (
	PortConfigDown uint32 = 1 << 0 // OFPPC_PORT_DOWN
	PortStateDown  uint32 = 1 << 0 // OFPPS_LINK_DOWN
)

// PhyPortLen is the encoded size of ofp_phy_port.
const PhyPortLen = 48

// PhyPort describes one switch port.
type PhyPort struct {
	PortNo     uint16
	HWAddr     pkt.MAC
	Name       string // up to 15 bytes on the wire
	Config     uint32
	State      uint32
	Curr       uint32
	Advertised uint32
	Supported  uint32
	Peer       uint32
}

func (p *PhyPort) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, p.PortNo)
	b = append(b, p.HWAddr[:]...)
	b = fixedStr(b, p.Name, 16)
	b = binary.BigEndian.AppendUint32(b, p.Config)
	b = binary.BigEndian.AppendUint32(b, p.State)
	b = binary.BigEndian.AppendUint32(b, p.Curr)
	b = binary.BigEndian.AppendUint32(b, p.Advertised)
	b = binary.BigEndian.AppendUint32(b, p.Supported)
	return binary.BigEndian.AppendUint32(b, p.Peer)
}

// decode reads p from the first PhyPortLen bytes of b, which the caller has
// checked are there. A name equal to the one p holds is kept, so a
// Decoder's reused port-status for the same port allocates nothing.
func (p *PhyPort) decode(b []byte) {
	_ = b[PhyPortLen-1]
	p.PortNo = binary.BigEndian.Uint16(b)
	p.HWAddr = pkt.MAC(b[2:8])
	if name := b[8 : 8+nulLen(b[8:24])]; p.Name != string(name) {
		p.Name = string(name)
	}
	p.Config = binary.BigEndian.Uint32(b[24:])
	p.State = binary.BigEndian.Uint32(b[28:])
	p.Curr = binary.BigEndian.Uint32(b[32:])
	p.Advertised = binary.BigEndian.Uint32(b[36:])
	p.Supported = binary.BigEndian.Uint32(b[40:])
	p.Peer = binary.BigEndian.Uint32(b[44:])
}

// Capability bits (ofp_capabilities, subset).
const (
	CapFlowStats  uint32 = 1 << 0
	CapTableStats uint32 = 1 << 1
	CapPortStats  uint32 = 1 << 2
)

// FeaturesReply announces the datapath ID, resources and ports.
type FeaturesReply struct {
	MsgXID
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	Capabilities uint32
	Actions      uint32
	Ports        []PhyPort
}

// MsgType implements Message.
func (*FeaturesReply) MsgType() Type { return TypeFeaturesReply }

// AppendTo implements Message.
func (m *FeaturesReply) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *FeaturesReply) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.DatapathID)
	b = binary.BigEndian.AppendUint32(b, m.NBuffers)
	b = append(b, m.NTables, 0, 0, 0)
	b = binary.BigEndian.AppendUint32(b, m.Capabilities)
	b = binary.BigEndian.AppendUint32(b, m.Actions)
	for i := range m.Ports {
		b = m.Ports[i].appendTo(b)
	}
	return b
}

func (m *FeaturesReply) decodeBody(b []byte, _ *store) error {
	if len(b) < 24 {
		return short(b, 24)
	}
	if n := (len(b) - 24) % PhyPortLen; n != 0 {
		return fmt.Errorf("features ports: %d trailing bytes", n)
	}
	m.DatapathID = binary.BigEndian.Uint64(b)
	m.NBuffers = binary.BigEndian.Uint32(b[8:])
	m.NTables = b[12]
	m.Capabilities = binary.BigEndian.Uint32(b[16:])
	m.Actions = binary.BigEndian.Uint32(b[20:])
	for b = b[24:]; len(b) > 0; b = b[PhyPortLen:] {
		var p PhyPort
		p.decode(b)
		m.Ports = append(m.Ports, p)
	}
	return nil
}

// GetConfigRequest asks for the switch configuration.
type GetConfigRequest struct{ MsgXID }

// MsgType implements Message.
func (*GetConfigRequest) MsgType() Type { return TypeGetConfigRequest }

// AppendTo implements Message.
func (m *GetConfigRequest) AppendTo(b []byte) []byte      { return appendMessage(b, m) }
func (*GetConfigRequest) appendBody(b []byte) []byte      { return b }
func (*GetConfigRequest) decodeBody([]byte, *store) error { return nil }

// GetConfigReply carries the switch configuration.
type GetConfigReply struct {
	MsgXID
	Flags       uint16
	MissSendLen uint16
}

// MsgType implements Message.
func (*GetConfigReply) MsgType() Type { return TypeGetConfigReply }

// AppendTo implements Message.
func (m *GetConfigReply) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *GetConfigReply) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	return binary.BigEndian.AppendUint16(b, m.MissSendLen)
}

func (m *GetConfigReply) decodeBody(b []byte, _ *store) error {
	if len(b) < 4 {
		return short(b, 4)
	}
	m.Flags = binary.BigEndian.Uint16(b)
	m.MissSendLen = binary.BigEndian.Uint16(b[2:])
	return nil
}

// SetConfig sets the switch configuration.
type SetConfig struct {
	MsgXID
	Flags       uint16
	MissSendLen uint16
}

// MsgType implements Message.
func (*SetConfig) MsgType() Type { return TypeSetConfig }

// AppendTo implements Message.
func (m *SetConfig) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *SetConfig) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	return binary.BigEndian.AppendUint16(b, m.MissSendLen)
}

func (m *SetConfig) decodeBody(b []byte, _ *store) error {
	if len(b) < 4 {
		return short(b, 4)
	}
	m.Flags = binary.BigEndian.Uint16(b)
	m.MissSendLen = binary.BigEndian.Uint16(b[2:])
	return nil
}

// Packet-in reasons.
const (
	PacketInReasonNoMatch uint8 = 0 // OFPR_NO_MATCH
	PacketInReasonAction  uint8 = 1 // OFPR_ACTION
)

// PacketIn delivers a packet to the controller.
type PacketIn struct {
	MsgXID
	BufferID uint32
	TotalLen uint16
	InPort   uint16
	Reason   uint8
	Data     []byte
}

// MsgType implements Message.
func (*PacketIn) MsgType() Type { return TypePacketIn }

// AppendTo implements Message.
func (m *PacketIn) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *PacketIn) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.TotalLen)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	b = append(b, m.Reason, 0)
	return append(b, m.Data...)
}

func (m *PacketIn) decodeBody(b []byte, _ *store) error {
	if len(b) < 10 {
		return short(b, 10)
	}
	m.BufferID = binary.BigEndian.Uint32(b)
	m.TotalLen = binary.BigEndian.Uint16(b[4:])
	m.InPort = binary.BigEndian.Uint16(b[6:])
	m.Reason = b[8]
	m.Data = tail(b[10:])
	return nil
}

// PacketOut injects a packet into the datapath.
type PacketOut struct {
	MsgXID
	BufferID uint32
	InPort   uint16
	Actions  []Action
	Data     []byte // ignored unless BufferID == NoBuffer
}

// MsgType implements Message.
func (*PacketOut) MsgType() Type { return TypePacketOut }

// AppendTo implements Message.
func (m *PacketOut) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *PacketOut) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	lenAt := len(b)
	b = append(b, 0, 0) // actions_len, patched below
	before := len(b)
	b = appendActions(b, m.Actions)
	binary.BigEndian.PutUint16(b[lenAt:], uint16(len(b)-before))
	return append(b, m.Data...)
}

func (m *PacketOut) decodeBody(b []byte, st *store) error {
	if len(b) < 8 {
		return short(b, 8)
	}
	alen := int(binary.BigEndian.Uint16(b[6:]))
	if alen > len(b)-8 {
		return fmt.Errorf("action list length %d of %d", alen, len(b)-8)
	}
	actions, err := st.decodeActions(b[8 : 8+alen])
	if err != nil {
		return err
	}
	m.BufferID = binary.BigEndian.Uint32(b)
	m.InPort = binary.BigEndian.Uint16(b[4:])
	m.Actions = actions
	m.Data = tail(b[8+alen:])
	return nil
}

// Flow-removed reasons.
const (
	FlowRemovedIdleTimeout uint8 = 0
	FlowRemovedHardTimeout uint8 = 1
	FlowRemovedDelete      uint8 = 2
)

// FlowRemoved notifies the controller that a flow expired or was deleted.
type FlowRemoved struct {
	MsgXID
	Match        Match
	Cookie       uint64
	Priority     uint16
	Reason       uint8
	DurationSec  uint32
	DurationNsec uint32
	IdleTimeout  uint16
	PacketCount  uint64
	ByteCount    uint64
}

// MsgType implements Message.
func (*FlowRemoved) MsgType() Type { return TypeFlowRemoved }

// AppendTo implements Message.
func (m *FlowRemoved) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *FlowRemoved) appendBody(b []byte) []byte {
	b = m.Match.appendTo(b)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = append(b, m.Reason, 0)
	b = binary.BigEndian.AppendUint32(b, m.DurationSec)
	b = binary.BigEndian.AppendUint32(b, m.DurationNsec)
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = append(b, 0, 0)
	b = binary.BigEndian.AppendUint64(b, m.PacketCount)
	return binary.BigEndian.AppendUint64(b, m.ByteCount)
}

func (m *FlowRemoved) decodeBody(b []byte, _ *store) error {
	if len(b) < MatchLen+40 {
		return short(b, MatchLen+40)
	}
	m.Match.decode(b)
	m.Cookie = binary.BigEndian.Uint64(b[40:])
	m.Priority = binary.BigEndian.Uint16(b[48:])
	m.Reason = b[50]
	m.DurationSec = binary.BigEndian.Uint32(b[52:])
	m.DurationNsec = binary.BigEndian.Uint32(b[56:])
	m.IdleTimeout = binary.BigEndian.Uint16(b[60:])
	m.PacketCount = binary.BigEndian.Uint64(b[64:])
	m.ByteCount = binary.BigEndian.Uint64(b[72:])
	return nil
}

// Port-status reasons.
const (
	PortReasonAdd    uint8 = 0
	PortReasonDelete uint8 = 1
	PortReasonModify uint8 = 2
)

// PortStatus notifies the controller of a port change.
type PortStatus struct {
	MsgXID
	Reason uint8
	Desc   PhyPort
}

// MsgType implements Message.
func (*PortStatus) MsgType() Type { return TypePortStatus }

// AppendTo implements Message.
func (m *PortStatus) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *PortStatus) appendBody(b []byte) []byte {
	b = append(b, m.Reason, 0, 0, 0, 0, 0, 0, 0)
	return m.Desc.appendTo(b)
}

func (m *PortStatus) decodeBody(b []byte, _ *store) error {
	if len(b) < 8+PhyPortLen {
		return short(b, 8+PhyPortLen)
	}
	m.Reason = b[0]
	m.Desc.decode(b[8:])
	return nil
}

// BarrierRequest asks the switch to finish all preceding messages first.
type BarrierRequest struct{ MsgXID }

// MsgType implements Message.
func (*BarrierRequest) MsgType() Type { return TypeBarrierRequest }

// AppendTo implements Message.
func (m *BarrierRequest) AppendTo(b []byte) []byte      { return appendMessage(b, m) }
func (*BarrierRequest) appendBody(b []byte) []byte      { return b }
func (*BarrierRequest) decodeBody([]byte, *store) error { return nil }

// BarrierReply confirms a BarrierRequest.
type BarrierReply struct{ MsgXID }

// MsgType implements Message.
func (*BarrierReply) MsgType() Type { return TypeBarrierReply }

// AppendTo implements Message.
func (m *BarrierReply) AppendTo(b []byte) []byte      { return appendMessage(b, m) }
func (*BarrierReply) appendBody(b []byte) []byte      { return b }
func (*BarrierReply) decodeBody([]byte, *store) error { return nil }

// FlowMod commands.
const (
	FlowModAdd          uint16 = 0
	FlowModModify       uint16 = 1
	FlowModModifyStrict uint16 = 2
	FlowModDelete       uint16 = 3
	FlowModDeleteStrict uint16 = 4
)

// FlowMod flags.
const (
	FlowModFlagSendFlowRem  uint16 = 1 << 0
	FlowModFlagCheckOverlap uint16 = 1 << 1
)

// FlowMod adds, modifies or deletes flow-table entries.
type FlowMod struct {
	MsgXID
	Match       Match
	Cookie      uint64
	Command     uint16
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint16 // filter for DELETE*, PortNone = no filter
	Flags       uint16
	Actions     []Action
}

// MsgType implements Message.
func (*FlowMod) MsgType() Type { return TypeFlowMod }

// AppendTo implements Message.
func (m *FlowMod) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *FlowMod) appendBody(b []byte) []byte {
	b = m.Match.appendTo(b)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, m.Command)
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, m.HardTimeout)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.OutPort)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	return appendActions(b, m.Actions)
}

// flowModLen is the size of a flow-mod body before its actions.
const flowModLen = MatchLen + 24

func (m *FlowMod) decodeBody(b []byte, st *store) error {
	if len(b) < flowModLen {
		return short(b, flowModLen)
	}
	actions, err := st.decodeActions(b[flowModLen:])
	if err != nil {
		return err
	}
	m.Match.decode(b)
	m.Cookie = binary.BigEndian.Uint64(b[40:])
	m.Command = binary.BigEndian.Uint16(b[48:])
	m.IdleTimeout = binary.BigEndian.Uint16(b[50:])
	m.HardTimeout = binary.BigEndian.Uint16(b[52:])
	m.Priority = binary.BigEndian.Uint16(b[54:])
	m.BufferID = binary.BigEndian.Uint32(b[56:])
	m.OutPort = binary.BigEndian.Uint16(b[60:])
	m.Flags = binary.BigEndian.Uint16(b[62:])
	m.Actions = actions
	return nil
}
