package openflow

import (
	"encoding/binary"
	"fmt"
)

// Telemetry message types. These extend the OpenFlow 1.0 type space past the
// standard 0..21 range with the streaming-telemetry protocol the RouteFlow
// controller and the emulated switches speak on the existing control channel:
// the controller installs monitor rules with a TELEMETRY_MOD, and the switch
// streams each rule's cumulative counters in TELEMETRY_EXPORT batches. An
// export carries absolute values, so the controller applies one idempotently
// and nothing flows back: a lost export is covered by the next, and a
// repeated one charges nothing. A FlowVisor in the path forwards both, and
// the substrate broadcasts exports to its slices like any other asynchronous
// switch event.
const (
	TypeTelemetryMod    Type = 22
	TypeTelemetryExport Type = 23
)

// MonitorRule is one flow-monitoring assignment carried by TelemetryMod: the
// switch counts IPv4 packets whose source and destination addresses fall
// inside the two prefixes. Rules installed together are disjoint by
// construction (the placement layer monitors each host pair at exactly one
// switch), so at most one rule matches a packet.
type MonitorRule struct {
	// ID names the monitored flow; it is stable across switches and
	// re-placements so the controller can aggregate by it.
	ID uint32
	// Src/SrcBits and Dst/DstBits are the IPv4 source and destination
	// prefixes (address plus prefix length) the rule matches.
	Src     [4]byte
	SrcBits uint8
	Dst     [4]byte
	DstBits uint8
}

// monitorRuleWireLen is the fixed on-wire size of one MonitorRule.
const monitorRuleWireLen = 14

// TelemetryMod (controller → switch) replaces the switch's whole monitor
// rule set. It is idempotent and level-triggered: the switch keeps counters
// for rules whose (ID, prefixes) survive the replacement and starts fresh
// ones for new rules. Epoch identifies the controller instance that issued
// the rules; when it changes the switch re-exports every rule once, so a
// failed-over controller's aggregator sees each rule's level. IntervalMS sets
// the export cadence (0 keeps the switch's current interval).
type TelemetryMod struct {
	MsgXID
	Epoch      uint64
	IntervalMS uint32
	Rules      []MonitorRule
}

// MsgType implements Message.
func (m *TelemetryMod) MsgType() Type { return TypeTelemetryMod }

// AppendTo implements Message.
func (m *TelemetryMod) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *TelemetryMod) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.Epoch)
	b = binary.BigEndian.AppendUint32(b, m.IntervalMS)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Rules)))
	for i := range m.Rules {
		r := &m.Rules[i]
		b = binary.BigEndian.AppendUint32(b, r.ID)
		b = append(b, r.Src[:]...)
		b = append(b, r.SrcBits)
		b = append(b, r.Dst[:]...)
		b = append(b, r.DstBits)
	}
	return b
}

func (m *TelemetryMod) decodeBody(b []byte, _ *store) error {
	if len(b) < 14 {
		return short(b, 14)
	}
	m.Epoch = binary.BigEndian.Uint64(b)
	m.IntervalMS = binary.BigEndian.Uint32(b[8:])
	n := int(binary.BigEndian.Uint16(b[12:]))
	if b = b[14:]; n*monitorRuleWireLen > len(b) {
		return fmt.Errorf("rule count %d exceeds body (%d bytes left)", n, len(b))
	}
	if n == 0 {
		return nil
	}
	m.Rules = make([]MonitorRule, n)
	for i := range m.Rules {
		ru := b[monitorRuleWireLen*i:]
		m.Rules[i] = MonitorRule{ID: binary.BigEndian.Uint32(ru), Src: [4]byte(ru[4:8]), SrcBits: ru[8],
			Dst: [4]byte(ru[9:13]), DstBits: ru[13]}
	}
	return nil
}

// TelemetryEntry is one monitored flow's absolute counters inside a
// TelemetryExport.
type TelemetryEntry struct {
	ID      uint32
	Packets uint64
	Bytes   uint64
}

// TelemetryExport (switch → controller) is one batch of per-flow counter
// readings, each the rule's cumulative count since the switch installed it.
// Entries are varint-encoded. The switch exports a rule only when its
// counters moved since the last export it queued on this session and epoch,
// so an idle rule costs nothing.
type TelemetryExport struct {
	MsgXID
	Epoch   uint64
	Entries []TelemetryEntry
}

// MsgType implements Message.
func (m *TelemetryExport) MsgType() Type { return TypeTelemetryExport }

// AppendTo implements Message.
func (m *TelemetryExport) AppendTo(b []byte) []byte { return appendMessage(b, m) }

func (m *TelemetryExport) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.Epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		b = binary.AppendUvarint(b, uint64(e.ID))
		b = binary.AppendUvarint(b, e.Packets)
		b = binary.AppendUvarint(b, e.Bytes)
	}
	return b
}

func (m *TelemetryExport) decodeBody(b []byte, _ *store) error {
	if len(b) < 10 {
		return short(b, 10)
	}
	m.Epoch = binary.BigEndian.Uint64(b)
	n := int(binary.BigEndian.Uint16(b[8:]))
	// Each entry is at least three one-byte varints.
	if b = b[10:]; n*3 > len(b) {
		return fmt.Errorf("entry count %d exceeds body (%d bytes left)", n, len(b))
	}
	if n == 0 {
		return nil
	}
	m.Entries = make([]TelemetryEntry, n)
	var v [3]uint64 // id, packets, bytes
	for i := range m.Entries {
		for j := range v {
			x, k := binary.Uvarint(b)
			if k <= 0 {
				return fmt.Errorf("entry %d: bad varint", i)
			}
			v[j], b = x, b[k:]
		}
		if v[0] > 0xffffffff {
			return fmt.Errorf("entry %d: flow id %d overflows uint32", i, v[0])
		}
		m.Entries[i] = TelemetryEntry{ID: uint32(v[0]), Packets: v[1], Bytes: v[2]}
	}
	return nil
}
