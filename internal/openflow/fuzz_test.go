package openflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"routeflow/internal/pkt"
)

// FuzzUnmarshal throws arbitrary bytes at the decoder. The invariants:
// Unmarshal never panics; when it accepts a frame, re-encoding the decoded
// message and decoding that again must succeed and agree on type and XID
// (a full fixed point is not required — e.g. vendor action padding is
// canonicalized — but the canonical form must be stable).
func FuzzUnmarshal(f *testing.F) {
	// Seed corpus: one well-formed frame of every modeled message plus the
	// malformed shapes the table tests cover.
	for _, m := range seedMessages() {
		f.Add(m.AppendTo(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{Version, 0, 0, 4})                           // length below header
	f.Add(frame(Version, TypeFlowMod, 200, 1, nil))           // length beyond buffer
	f.Add(validFrame(TypeFlowMod, 1, make([]byte, 45)))       // truncated flow-mod
	f.Add(validFrame(TypeFeaturesReply, 1, make([]byte, 25))) // trailing port bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected is fine; panicking is the bug
		}
		wire := m.AppendTo(nil)
		m2, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-decode of canonical form failed: %v\nwire: %x", err, wire)
		}
		if m2.MsgType() != m.MsgType() || m2.XID() != m.XID() {
			t.Fatalf("type/xid changed across round trip: %v/%d vs %v/%d",
				m.MsgType(), m.XID(), m2.MsgType(), m2.XID())
		}
		if !bytes.Equal(m2.AppendTo(nil), wire) {
			t.Fatalf("canonical form is not stable:\n first %x\nsecond %x", wire, m2.AppendTo(nil))
		}
	})
}

// FuzzDecoderStream feeds a byte stream to a Decoder through a reader that
// returns it in fuzzer-chosen chunks (each byte of cuts is one chunk length
// minus one, used in turn). The invariants: the Decoder never panics, and it
// returns exactly what Unmarshal returns for each frame the stream's length
// fields delimit, whatever the chunking, and each borrowed message encodes,
// before the next Decode, to what Unmarshal's result encodes to; then io.EOF
// if the stream ends between frames, or an error wrapping
// io.ErrUnexpectedEOF if it ends inside one.
func FuzzDecoderStream(f *testing.F) {
	var all []byte
	for _, m := range seedMessages() {
		all = m.AppendTo(all)
	}
	f.Add(all, []byte{0})
	f.Add(all, []byte{7, 255, 1, 99})
	f.Add(all[:len(all)-3], []byte{200})
	f.Add(append((&EchoRequest{Data: make([]byte, 3000)}).AppendTo(nil), all...), []byte{255, 3})
	f.Add(append((&Hello{}).AppendTo(nil), Version, 0, 0, 4, 0, 0, 0, 0), []byte{5}) // length below header
	f.Add(append((&Hello{}).AppendTo(nil), validFrame(TypeFlowMod, 1, make([]byte, 45))...), []byte{10})

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		if len(cuts) == 0 {
			cuts = []byte{255}
		}
		dec := NewDecoder(&chunkReader{b: stream, cuts: cuts})
		rest := stream
		for i := 0; len(rest) >= HeaderLen; i++ {
			length := int(binary.BigEndian.Uint16(rest[2:]))
			got, err := dec.Decode()
			if length < HeaderLen {
				if !errors.Is(err, ErrBadMessage) {
					t.Fatalf("frame %d: length field %d gave %v, %v", i, length, got, err)
				}
				return
			}
			if length > len(rest) {
				break
			}
			want, wantErr := Unmarshal(rest[:length])
			if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d: Decode gave %v, %v; Unmarshal gave %v, %v", i, got, err, want, wantErr)
			}
			if err == nil && !bytes.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
				t.Fatalf("frame %d: borrowed %v encodes to %x, Unmarshal's to %x", i, got.MsgType(), got.AppendTo(nil), want.AppendTo(nil))
			}
			rest = rest[length:]
		}
		_, err := dec.Decode()
		if len(rest) == 0 && err != io.EOF {
			t.Fatalf("clean end of stream gave %v, want io.EOF", err)
		}
		if len(rest) > 0 && (err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Fatalf("stream ending %d bytes into a frame gave %v", len(rest), err)
		}
	})
}

// seedMessages returns one well-formed message of every modeled type (and a
// Raw, and a second export whose absolute counters take wide varints), each
// with its own transaction ID.
func seedMessages() []Message {
	seeds := []Message{
		&Hello{},
		&ErrorMsg{ErrType: ErrTypeBadRequest, Code: ErrCodeBadRequestEperm, Data: []byte{1, 2}},
		&EchoRequest{Data: []byte("probe")},
		&EchoReply{Data: []byte("probe")},
		&Vendor{VendorID: 0x2320, Data: []byte("nicira")},
		&FeaturesRequest{},
		&FeaturesReply{DatapathID: 0xbeef, NBuffers: 256, NTables: 1,
			Ports: []PhyPort{{PortNo: 1, HWAddr: pkt.LocalMAC(1), Name: "eth1"}}},
		&GetConfigRequest{},
		&GetConfigReply{MissSendLen: 128},
		&SetConfig{MissSendLen: 0xffff},
		&PacketIn{BufferID: NoBuffer, TotalLen: 64, InPort: 3, Data: []byte("frame")},
		&PacketOut{BufferID: NoBuffer, InPort: PortNone,
			Actions: []Action{&ActionOutput{Port: 2}}, Data: []byte("payload")},
		&FlowRemoved{Match: MatchAll(), Cookie: 9, PacketCount: 1},
		&PortStatus{Reason: PortReasonModify, Desc: PhyPort{PortNo: 7, Name: "p7"}},
		&FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer,
			OutPort: PortNone, Actions: []Action{
				&ActionSetDlSrc{Addr: pkt.LocalMAC(1)},
				&ActionOutput{Port: 4},
			}},
		&FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer,
			OutPort: PortNone, Actions: []Action{
				&ActionMultipath{Buckets: []MultipathBucket{
					{DlSrc: pkt.LocalMAC(1), DlDst: pkt.LocalMAC(2), Port: 2},
					{DlSrc: pkt.LocalMAC(1), DlDst: pkt.LocalMAC(3), Port: 3},
				}},
			}},
		&FlowMod{Match: MatchAll(), Command: FlowModModify, BufferID: NoBuffer,
			OutPort: PortNone, Actions: []Action{
				&ActionVendor{Vendor: 0x2320, Data: []byte("nicira!!")},
				&ActionOutput{Port: 5},
			}},
		&StatsRequest{StatsType: StatsFlow,
			Flow: &FlowStatsRequest{Match: MatchAll(), TableID: 0xff, OutPort: PortNone}},
		&StatsRequest{StatsType: StatsPort, Port: &PortStatsRequest{PortNo: 3}},
		&StatsReply{StatsType: StatsDesc, Desc: &DescStats{Manufacturer: "routeflow"}},
		&StatsReply{StatsType: StatsFlow, Flags: StatsReplyFlagMore, Flows: []FlowStats{
			{Match: MatchAll(), Priority: 100, PacketCount: 10, Actions: everyAction()},
			{Match: MatchAll(), Priority: 50},
		}},
		&StatsReply{StatsType: StatsTable, Tables: []TableStats{{Name: "classifier", ActiveCount: 12}}},
		&StatsReply{StatsType: StatsPort, Ports: []PortStats{{PortNo: 1, RxPackets: 10}, {PortNo: 2, Collisions: 7}}},
		&StatsReply{StatsType: StatsAggregate, Raw: make([]byte, 24)},
		&PacketOut{BufferID: 9, InPort: 1, Actions: everyAction()},
		&BarrierRequest{},
		&BarrierReply{},
		&Raw{T: TypeQueueGetConfigReq, Body: []byte{0, 5, 0, 0}},
		&TelemetryMod{Epoch: 7, IntervalMS: 250, Rules: []MonitorRule{
			{ID: 1, Src: [4]byte{10, 1, 0, 0}, SrcBits: 24, Dst: [4]byte{10, 2, 0, 0}, DstBits: 24}}},
		&TelemetryExport{Epoch: 7, Entries: []TelemetryEntry{{ID: 1, Packets: 12, Bytes: 18000}}},
		&TelemetryExport{Epoch: 8, Entries: []TelemetryEntry{
			{ID: 1 << 20, Packets: 1 << 40, Bytes: 1 << 50}, {ID: 2, Packets: 0, Bytes: 0}}},
	}
	for i, m := range seeds {
		m.SetXID(uint32(i + 1))
	}
	return seeds
}

// everyAction returns one action of every modeled type, each with a body
// that re-encodes byte for byte.
func everyAction() []Action {
	return []Action{
		&ActionOutput{Port: PortController, MaxLen: 256},
		&ActionSetVlanVid{VlanVid: 100},
		&ActionSetVlanPcp{Pcp: 5},
		&ActionStripVlan{},
		&ActionSetDlSrc{Addr: pkt.LocalMAC(3)},
		&ActionSetDlDst{Addr: pkt.LocalMAC(4)},
		&ActionSetNwSrc{Addr: [4]byte{10, 0, 0, 1}},
		&ActionSetNwDst{Addr: [4]byte{10, 0, 0, 2}},
		&ActionSetNwTos{Tos: 0x10},
		&ActionSetTpSrc{Port: 5004},
		&ActionSetTpDst{Port: 5005},
		&ActionEnqueue{Port: 1, QueueID: 3},
		&ActionMultipath{Buckets: []MultipathBucket{
			{DlSrc: pkt.LocalMAC(5), DlDst: pkt.LocalMAC(6), Port: 2},
			{DlSrc: pkt.LocalMAC(5), DlDst: pkt.LocalMAC(7), Port: 3},
		}},
		&ActionVendor{Vendor: 0x1234, Data: []byte("8 bytes!")},
	}
}

// FuzzDecodeMatchesReference holds the fixed-offset decoder to refUnmarshal,
// the cursor decoder it replaced, on arbitrary frames: Unmarshal and the
// lent decode a Decoder makes both give a message equal to the reference's,
// or both fail with ErrBadMessage when the reference does.
func FuzzDecodeMatchesReference(f *testing.F) {
	// Seed corpus: every seed message whole, and cut short inside its body
	// (the length field cut with it, so the body decoder sees the cut);
	// then action lists the reference rejects or reads only in part.
	for _, m := range seedMessages() {
		wire := m.AppendTo(nil)
		for _, n := range []int{HeaderLen + 1, HeaderLen + 9, len(wire) / 2, len(wire) - 9, len(wire) - 4, len(wire) - 1, len(wire)} {
			if n >= HeaderLen && n <= len(wire) {
				cut := append([]byte(nil), wire[:n]...)
				binary.BigEndian.PutUint16(cut[2:], uint16(n))
				f.Add(cut)
			}
		}
	}
	flowMod := func(actions ...byte) []byte {
		return validFrame(TypeFlowMod, 1, append((&FlowMod{Match: MatchAll()}).AppendTo(nil)[HeaderLen:], actions...))
	}
	f.Add(flowMod(0, 4, 0, 8, 1, 2, 3, 4))                                                     // set-dl-src in 8 bytes
	f.Add(flowMod(0, 11, 0, 8, 0, 1, 0, 0))                                                    // enqueue in 8 bytes
	f.Add(flowMod(0, 0, 0, 16, 0, 1, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9))                            // output in 16 bytes
	f.Add(flowMod(0, 12, 0, 24, 0, 2, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6))                           // multipath: 2 buckets, room for 1
	f.Add(flowMod(0xff, 0xff, 0, 8, 0, 0, 0x23, 0x20))                                         // vendor action, no data
	f.Add(flowMod(0, 0, 0, 8, 0, 1, 0, 0, 0, 0))                                               // 2 trailing bytes
	f.Add(validFrame(TypeTelemetryExport, 1, append(make([]byte, 8), 0, 1, 0x80, 0x80, 0x80))) // unterminated varint

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refUnmarshal(data)
		got, err := Unmarshal(data)
		lent, lentErr := new(Decoder).decode(data)
		if wantErr != nil {
			if !errors.Is(wantErr, ErrBadMessage) || !errors.Is(err, ErrBadMessage) || !errors.Is(lentErr, ErrBadMessage) {
				t.Fatalf("reference rejects %x with %v; Unmarshal gave %v, %v; Decoder gave %v, %v", data, wantErr, got, err, lent, lentErr)
			}
			return
		}
		if err != nil || lentErr != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(lent, want) {
			t.Fatalf("frame %x:\nreference %#v\nUnmarshal %#v, %v\n Decoder %#v, %v", data, want, got, err, lent, lentErr)
		}
	})
}

// FuzzExtractKey throws arbitrary bytes at the dataplane classifier, the
// parser every frame on every switch port goes through. The invariants:
// ExtractKey never panics, never writes to the frame, gives an exact key,
// and on every input agrees with decoderKey, the generic-decoder extractor
// it replaced: the same key, and an error exactly when the reference gives
// one, which then wraps pkt.ErrTruncated.
func FuzzExtractKey(f *testing.F) {
	// Seed corpus: the frame shapes the pkt tests build — UDP, ICMP echo,
	// OSPF, ARP, LLDP-typed, tagged and untagged — whole, and cut inside
	// each header; then the header corruptions malformedKeyFrames names
	// (bad IPv4 checksum, IHL > 5, total length below IHL or past the
	// frame, VLAN id 0, ARP with a wrong htype or address lengths).
	for _, kt := range keyTestFrames(rand.New(rand.NewSource(17)), 20) {
		f.Add(kt.frame)
		for _, cut := range []int{13, 17, 30, kt.headersEnd - 1} {
			if cut < len(kt.frame) {
				f.Add(kt.frame[:cut])
			}
		}
	}
	for _, frame := range malformedKeyFrames() {
		f.Add(frame)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		k, err := ExtractKey(5, data)
		if !bytes.Equal(data, orig) {
			t.Fatalf("ExtractKey wrote to the frame:\n before %x\n after  %x", orig, data)
		}
		ref, refErr := decoderKey(5, orig)
		if k != ref || (err == nil) != (refErr == nil) {
			t.Fatalf("ExtractKey and the decoder reference disagree:\n got %v (%v)\n ref %v (%v)\nframe %x", &k, err, &ref, refErr, orig)
		}
		if err != nil && !errors.Is(err, pkt.ErrTruncated) {
			t.Fatalf("error %v does not wrap pkt.ErrTruncated", err)
		}
		if err == nil && k.Wildcards != 0 {
			t.Fatalf("key is not exact: %v", &k)
		}
	})
}
