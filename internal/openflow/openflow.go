// Package openflow implements the OpenFlow 1.0 wire protocol (wire version
// 0x01) — the protocol spoken between the emulated switches, FlowVisor and
// the two controllers in this reproduction. The full message set needed by a
// RouteFlow deployment is covered: hello/error/echo, features, switch
// config, packet-in/out, flow-mod, flow-removed, port-status, stats
// (description, flow, table, port), barrier and vendor messages.
//
// Messages are plain structs. The encoder is append-style: every message
// implements AppendTo(buf) []byte, which appends the complete framed wire
// encoding to buf (growing it as append does) and returns the extended
// slice; AppendTo(nil) gives a message its own bytes. Encoding into a
// reused buffer is allocation-free — this is the hot path the control
// channel uses. On the decode side, Decoder owns an io.Reader: it reads
// whatever the transport has ready into a per-connection buffer and cuts
// complete frames out of it, so a batch of messages costs a few reads
// instead of two per message. A message decodes
// its fixed part at constant offsets after one length check, and walks only
// its variable-length parts (action lists, port and stats records,
// telemetry entries). Decode lends the message it returns until the next
// Decode: byte fields alias the buffer and action lists are the Decoder's
// reused storage, so a steady-state decode of a flow-mod, packet-in or
// packet-out allocates nothing, and a consumer keeps a message by cloning it
// (Clone). Unmarshal is that decode of one framed message followed by Clone,
// so its result owns everything and never aliases its input.
//
// Conn is one end of a control channel, the one type the switch, the
// FlowVisor proxy and the controllers all speak through. It owns its
// transport, reads through its Decoder, and encodes what it sends onto a
// bounded queue of frames before the send returns (Send waits for room,
// TrySend never waits, SendFrame relays a lent frame with a new XID). One
// writer goroutine takes the whole queue at once and writes it in batches,
// each ended early at a barrier.
//
// Unknown message types decode to *Raw, which re-encodes byte for byte. A
// proxy (the FlowVisor substrate) forwards any message, understood or not,
// as its frame through Conn.SendFrame, without re-encoding it.
package openflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Version is the OpenFlow wire version this package implements (1.0).
const Version = 0x01

// HeaderLen is the length of the common ofp_header.
const HeaderLen = 8

// MaxMessageLen caps accepted message frames; the length field is 16-bit so
// this is the protocol's own ceiling.
const MaxMessageLen = 1<<16 - 1

// Type is the ofp_type message discriminator.
type Type uint8

// OpenFlow 1.0 message types.
const (
	TypeHello              Type = 0
	TypeError              Type = 1
	TypeEchoRequest        Type = 2
	TypeEchoReply          Type = 3
	TypeVendor             Type = 4
	TypeFeaturesRequest    Type = 5
	TypeFeaturesReply      Type = 6
	TypeGetConfigRequest   Type = 7
	TypeGetConfigReply     Type = 8
	TypeSetConfig          Type = 9
	TypePacketIn           Type = 10
	TypeFlowRemoved        Type = 11
	TypePortStatus         Type = 12
	TypePacketOut          Type = 13
	TypeFlowMod            Type = 14
	TypePortMod            Type = 15
	TypeStatsRequest       Type = 16
	TypeStatsReply         Type = 17
	TypeBarrierRequest     Type = 18
	TypeBarrierReply       Type = 19
	TypeQueueGetConfigReq  Type = 20
	TypeQueueGetConfigRepl Type = 21
	// Types 22-24 are the telemetry extension; see telemetry.go.
)

var typeNames = map[Type]string{
	TypeHello: "HELLO", TypeError: "ERROR", TypeEchoRequest: "ECHO_REQUEST",
	TypeEchoReply: "ECHO_REPLY", TypeVendor: "VENDOR",
	TypeFeaturesRequest: "FEATURES_REQUEST", TypeFeaturesReply: "FEATURES_REPLY",
	TypeGetConfigRequest: "GET_CONFIG_REQUEST", TypeGetConfigReply: "GET_CONFIG_REPLY",
	TypeSetConfig: "SET_CONFIG", TypePacketIn: "PACKET_IN",
	TypeFlowRemoved: "FLOW_REMOVED", TypePortStatus: "PORT_STATUS",
	TypePacketOut: "PACKET_OUT", TypeFlowMod: "FLOW_MOD", TypePortMod: "PORT_MOD",
	TypeStatsRequest: "STATS_REQUEST", TypeStatsReply: "STATS_REPLY",
	TypeBarrierRequest: "BARRIER_REQUEST", TypeBarrierReply: "BARRIER_REPLY",
	TypeQueueGetConfigReq: "QUEUE_GET_CONFIG_REQUEST", TypeQueueGetConfigRepl: "QUEUE_GET_CONFIG_REPLY",
	TypeTelemetryMod: "TELEMETRY_MOD", TypeTelemetryExport: "TELEMETRY_EXPORT",
}

// String names the message type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Special port numbers (ofp_port).
const (
	PortMax        uint16 = 0xff00
	PortInPort     uint16 = 0xfff8
	PortTable      uint16 = 0xfff9
	PortNormal     uint16 = 0xfffa
	PortFlood      uint16 = 0xfffb
	PortAll        uint16 = 0xfffc
	PortController uint16 = 0xfffd
	PortLocal      uint16 = 0xfffe
	PortNone       uint16 = 0xffff
)

// NoBuffer is the buffer_id meaning "packet carried inline, not buffered".
const NoBuffer uint32 = 0xffffffff

// Message is one OpenFlow message. All message structs embed MsgXID and so
// carry their transaction ID. AppendTo appends the complete framed wire
// encoding (header included) to buf and returns the extended slice;
// appending to a reused buffer of sufficient capacity performs no
// allocation.
type Message interface {
	MsgType() Type
	XID() uint32
	SetXID(uint32)
	AppendTo(buf []byte) []byte
	appendBody(b []byte) []byte
	// decodeBody decodes the frame's body b into the message, taking action
	// values from st; the byte fields it sets alias b.
	decodeBody(b []byte, st *store) error
}

// MsgXID provides the transaction-ID part of every message.
type MsgXID struct {
	Xid uint32
}

// XID returns the message transaction ID.
func (m *MsgXID) XID() uint32 { return m.Xid }

// SetXID sets the message transaction ID (used by proxies when rewriting).
func (m *MsgXID) SetXID(x uint32) { m.Xid = x }

// ErrBadMessage wraps all decode failures.
var ErrBadMessage = errors.New("openflow: bad message")

// appendMessage frames m: common header, body, then the length field is
// patched in place. Shared by every message's AppendTo.
func appendMessage(buf []byte, m Message) []byte {
	start := len(buf)
	buf = append(buf, Version, uint8(m.MsgType()), 0, 0) // length patched below
	buf = binary.BigEndian.AppendUint32(buf, m.XID())
	buf = m.appendBody(buf)
	n := len(buf) - start
	if n > MaxMessageLen {
		panic(fmt.Sprintf("openflow: %v message of %d bytes exceeds 64KiB", m.MsgType(), n))
	}
	binary.BigEndian.PutUint16(buf[start+2:], uint16(n))
	return buf
}

// zeroPad is the source for appending runs of zero padding (and NUL string
// padding) without allocating. 256 covers the largest fixed-size field
// (ofp_desc_stats strings).
var zeroPad [256]byte

// pad appends n zero bytes.
func pad(b []byte, n int) []byte {
	for n > len(zeroPad) {
		b = append(b, zeroPad[:]...)
		n -= len(zeroPad)
	}
	return append(b, zeroPad[:n]...)
}

// fixedStr appends s into a fixed-size NUL-padded field.
func fixedStr(b []byte, s string, size int) []byte {
	if len(s) > size {
		s = s[:size]
	}
	b = append(b, s...)
	return pad(b, size-len(s))
}

// newMessage returns the empty struct for a message type; types this
// package does not model decode as *Raw.
func newMessage(t Type) Message {
	switch t {
	case TypeHello:
		return &Hello{}
	case TypeError:
		return &ErrorMsg{}
	case TypeEchoRequest:
		return &EchoRequest{}
	case TypeEchoReply:
		return &EchoReply{}
	case TypeVendor:
		return &Vendor{}
	case TypeFeaturesRequest:
		return &FeaturesRequest{}
	case TypeFeaturesReply:
		return &FeaturesReply{}
	case TypeGetConfigRequest:
		return &GetConfigRequest{}
	case TypeGetConfigReply:
		return &GetConfigReply{}
	case TypeSetConfig:
		return &SetConfig{}
	case TypePacketIn:
		return &PacketIn{}
	case TypeFlowRemoved:
		return &FlowRemoved{}
	case TypePortStatus:
		return &PortStatus{}
	case TypePacketOut:
		return &PacketOut{}
	case TypeFlowMod:
		return &FlowMod{}
	case TypeStatsRequest:
		return &StatsRequest{}
	case TypeStatsReply:
		return &StatsReply{}
	case TypeBarrierRequest:
		return &BarrierRequest{}
	case TypeBarrierReply:
		return &BarrierReply{}
	case TypeTelemetryMod:
		return &TelemetryMod{}
	case TypeTelemetryExport:
		return &TelemetryExport{}
	default:
		return &Raw{T: t}
	}
}

// checkHeader validates the common header of b and returns the type, frame
// length and transaction ID.
func checkHeader(b []byte) (t Type, length int, xid uint32, err error) {
	if len(b) < HeaderLen {
		return 0, 0, 0, fmt.Errorf("%w: short header (%d bytes)", ErrBadMessage, len(b))
	}
	if b[0] != Version {
		return 0, 0, 0, fmt.Errorf("%w: version 0x%02x, want 0x%02x", ErrBadMessage, b[0], Version)
	}
	length = int(binary.BigEndian.Uint16(b[2:]))
	if length < HeaderLen || length > len(b) {
		return 0, 0, 0, fmt.Errorf("%w: length field %d of %d", ErrBadMessage, length, len(b))
	}
	return Type(b[1]), length, binary.BigEndian.Uint32(b[4:]), nil
}

// scratch holds the Decoders Unmarshal decodes in; what one decodes is
// cloned before it goes back.
var scratch = sync.Pool{New: func() any { return new(Decoder) }}

// Unmarshal decodes one complete framed message from b, which must contain
// exactly one message. It is Decode's decode of the frame followed by Clone,
// so the result owns everything it refers to and never aliases b.
func Unmarshal(b []byte) (Message, error) {
	d := scratch.Get().(*Decoder)
	defer scratch.Put(d)
	m, err := d.decode(b)
	if err != nil {
		return nil, err
	}
	return Clone(m), nil
}

// Clone returns a deep copy of m that shares no memory with it: how a
// consumer keeps a message Decode lent it.
func Clone(m Message) Message {
	switch m := m.(type) {
	case *ErrorMsg:
		cp := *m
		cp.Data = bytes.Clone(m.Data)
		return &cp
	case *EchoRequest:
		return &EchoRequest{MsgXID: m.MsgXID, Data: bytes.Clone(m.Data)}
	case *EchoReply:
		return &EchoReply{MsgXID: m.MsgXID, Data: bytes.Clone(m.Data)}
	case *Vendor:
		cp := *m
		cp.Data = bytes.Clone(m.Data)
		return &cp
	case *FeaturesReply:
		cp := *m
		cp.Ports = slices.Clone(m.Ports)
		return &cp
	case *PacketIn:
		cp := *m
		cp.Data = bytes.Clone(m.Data)
		return &cp
	case *PacketOut:
		cp := *m
		cp.Actions, cp.Data = CloneActions(m.Actions), bytes.Clone(m.Data)
		return &cp
	case *FlowMod:
		cp := *m
		cp.Actions = CloneActions(m.Actions)
		return &cp
	case *StatsRequest:
		cp := *m
		cp.Flow, cp.Port = copyOf(m.Flow), copyOf(m.Port)
		return &cp
	case *StatsReply:
		cp := *m
		cp.Desc, cp.Flows = copyOf(m.Desc), slices.Clone(m.Flows)
		for i := range cp.Flows {
			cp.Flows[i].Actions = CloneActions(m.Flows[i].Actions)
		}
		cp.Tables, cp.Ports, cp.Raw = slices.Clone(m.Tables), slices.Clone(m.Ports), bytes.Clone(m.Raw)
		return &cp
	case *TelemetryMod:
		cp := *m
		cp.Rules = slices.Clone(m.Rules)
		return &cp
	case *TelemetryExport:
		cp := *m
		cp.Entries = slices.Clone(m.Entries)
		return &cp
	case *Raw:
		cp := *m
		cp.Body = bytes.Clone(m.Body)
		return &cp
	// The rest refer to nothing: a copy of the value is a deep copy.
	case *Hello:
		return copyOf(m)
	case *FeaturesRequest:
		return copyOf(m)
	case *GetConfigRequest:
		return copyOf(m)
	case *GetConfigReply:
		return copyOf(m)
	case *SetConfig:
		return copyOf(m)
	case *FlowRemoved:
		return copyOf(m)
	case *PortStatus:
		return copyOf(m)
	case *BarrierRequest:
		return copyOf(m)
	case *BarrierReply:
		return copyOf(m)
	}
	panic(fmt.Sprintf("openflow: Clone of %T", m))
}

// copyOf returns a pointer to a copy of *p, or nil for nil.
func copyOf[T any](p *T) *T {
	if p == nil {
		return nil
	}
	cp := *p
	return &cp
}

// short is the error for a body b too short for the need bytes of its fixed
// part.
func short(b []byte, need int) error {
	return fmt.Errorf("%d bytes, need %d", len(b), need)
}

// tail returns b as a decoded byte field: nil when it is empty, else b capped
// so that appending to it cannot write past it.
func tail(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// str reads a NUL-padded fixed-size string field.
func str(b []byte) string { return string(b[:nulLen(b)]) }

// nulLen is the length of the string in the NUL-padded field b.
func nulLen(b []byte) int {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return i
	}
	return len(b)
}

// decoderReadSize is the least a Decoder asks its reader for in one Read. A
// Decoder's buffer holds twice this, so after the partial frame left over
// from the last read is moved to the front there is always room for a full
// read behind it; frames larger than decoderReadSize grow the buffer.
const decoderReadSize = 512

// Decoder reads a stream of framed messages from an io.Reader. Each Read
// takes whatever the transport has ready, up to the free space in the
// Decoder's per-connection buffer, and Decode then cuts complete frames out
// of that buffer; it reads again only when the next frame is incomplete. A
// batch written in one Write (see Conn) is therefore consumed in a
// few large reads rather than two reads per message, and on a buffered
// transport (ctlkit's in-memory stream, a socket) each of those reads takes
// whatever has arrived without waiting for the writer.
//
// A Decoder owns its reader: bytes it has read ahead belong to frames it has
// not returned yet, so nothing else may read from the same stream.
//
// What Decode returns is borrowed: it is valid until the next call to Decode
// or Next, which may overwrite it. Its byte fields alias the Decoder's
// buffer, its action lists and their values are the Decoder's reused
// storage, and a FlowMod, PacketIn, PacketOut, BarrierReply or PortStatus is
// itself one value the Decoder decodes every message of that type into. The
// contract is the same for every type. A consumer copies what it keeps:
// Clone for a whole message, CloneActions for an action list. Each message
// decodes its fixed part at constant offsets after one check of the body's
// length, so a flow-mod's match and fields cost one bounds check, and each
// fixed-size action one more. Decoder is not safe for concurrent use.
type Decoder struct {
	r          io.Reader
	buf        []byte
	start, end int    // buf[start:end] is read but not yet decoded
	err        error  // the reader's error, returned once buffered frames run out
	frame      []byte // the frame of the message Decode last returned
	reads      uint64 // Reads of r so far

	st           store
	flowMod      FlowMod
	packetIn     PacketIn
	packetOut    PacketOut
	barrierReply BarrierReply
	portStatus   PortStatus
}

// NewDecoder returns a Decoder that owns r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 2*decoderReadSize)}
}

// Decode returns the next message, borrowed until the next Decode or Next.
// It returns io.EOF unwrapped on a clean end of stream between frames; an end
// of stream inside a frame is an error wrapping io.ErrUnexpectedEOF. A frame
// that fails to decode is consumed, so the next Decode starts at the frame
// after it.
func (d *Decoder) Decode() (Message, error) {
	frame, err := d.Next()
	if err != nil {
		return nil, err
	}
	d.frame = frame
	return d.decode(frame)
}

// decode decodes the framed message b into the Decoder's storage.
func (d *Decoder) decode(b []byte) (Message, error) {
	t, length, xid, err := checkHeader(b)
	if err != nil {
		return nil, err
	}
	d.st.reset()
	m := d.message(t)
	if err := m.decodeBody(b[HeaderLen:length], &d.st); err != nil {
		return nil, fmt.Errorf("%w: %v body: %v", ErrBadMessage, t, err)
	}
	m.SetXID(xid)
	return m, nil
}

// Frame returns the wire bytes of the message Decode last returned,
// borrowed like the message. A proxy relays a message by handing them to
// Conn.SendFrame, which copies them.
func (d *Decoder) Frame() []byte { return d.frame }

// Reads returns how many times the Decoder has called its reader's Read. A
// consumer that sees it unchanged across a Decode knows the message came
// from bytes an earlier read brought, in the same batch.
func (d *Decoder) Reads() uint64 { return d.reads }

// message returns the message Decode fills for type t: the Decoder's own
// value for the hot types, which their decodeBody overwrites field by field
// (all but the XID), and a new one for the rest.
func (d *Decoder) message(t Type) Message {
	switch t {
	case TypeFlowMod:
		return &d.flowMod
	case TypePacketIn:
		return &d.packetIn
	case TypePacketOut:
		return &d.packetOut
	case TypeBarrierReply:
		return &d.barrierReply
	case TypePortStatus:
		return &d.portStatus
	}
	return newMessage(t)
}

// Next returns the next frame undecoded, a slice of the Decoder's buffer
// valid until the next call to Next or Decode.
func (d *Decoder) Next() ([]byte, error) {
	d.frame = nil
	for {
		need := HeaderLen
		if d.end-d.start >= HeaderLen {
			need = int(binary.BigEndian.Uint16(d.buf[d.start+2:]))
			if need < HeaderLen {
				return nil, fmt.Errorf("%w: header length %d", ErrBadMessage, need)
			}
			if d.end-d.start >= need {
				frame := d.buf[d.start : d.start+need]
				d.start += need
				return frame, nil
			}
		}
		if err := d.fill(need); err != nil {
			return nil, err
		}
	}
}

// fill reads once into the buffer behind the buffered bytes, first moving
// them to the front if fewer than decoderReadSize bytes are free behind
// them. need is the length of the frame they start; a buffer that could not
// then hold it plus a full read is replaced by one that can.
func (d *Decoder) fill(need int) error {
	if d.err == nil {
		if len(d.buf)-d.end < decoderReadSize {
			buf := d.buf
			if need+decoderReadSize > len(buf) {
				buf = make([]byte, need+decoderReadSize)
			}
			d.end = copy(buf, d.buf[d.start:d.end])
			d.start, d.buf = 0, buf
		}
		n, err := d.r.Read(d.buf[d.end:])
		d.reads++
		d.end += n
		d.err = err
		if n > 0 || err == nil {
			return nil
		}
	}
	switch {
	case d.err == io.EOF && d.start == d.end:
		return io.EOF
	case d.err == io.EOF:
		return fmt.Errorf("openflow: stream ends inside a frame: %w", io.ErrUnexpectedEOF)
	default:
		return fmt.Errorf("openflow: reading: %w", d.err)
	}
}

// Raw is a message of a type this package does not model; Body is the frame
// minus the header. It re-encodes byte for byte, so proxies can forward it
// without understanding it.
type Raw struct {
	MsgXID
	T    Type
	Body []byte
}

// MsgType returns the original wire type.
func (m *Raw) MsgType() Type { return m.T }

// AppendTo implements Message.
func (m *Raw) AppendTo(b []byte) []byte   { return appendMessage(b, m) }
func (m *Raw) appendBody(b []byte) []byte { return append(b, m.Body...) }
func (m *Raw) decodeBody(b []byte, _ *store) error {
	m.Body = tail(b)
	return nil
}
