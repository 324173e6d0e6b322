package openflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// frame hand-builds a wire frame with the given header fields and body,
// letting tests lie about the length field.
func frame(version uint8, t Type, length uint16, xid uint32, body []byte) []byte {
	b := []byte{version, uint8(t), 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint16(b[2:], length)
	binary.BigEndian.PutUint32(b[4:], xid)
	return append(b, body...)
}

// validFrame frames body with a correct length field.
func validFrame(t Type, xid uint32, body []byte) []byte {
	return frame(Version, t, uint16(HeaderLen+len(body)), xid, body)
}

// TestUnmarshalMalformed is the table of truncated/oversized/corrupt frames;
// each must fail with an error — never panic, never succeed.
func TestUnmarshalMalformed(t *testing.T) {
	goodFlowMod := (&FlowMod{Match: MatchAll(), Command: FlowModAdd,
		BufferID: NoBuffer, OutPort: PortNone,
		Actions: []Action{&ActionOutput{Port: 1}}}).AppendTo(nil)

	corrupt := func(b []byte, off int, v byte) []byte {
		c := append([]byte(nil), b...)
		c[off] = v
		return c
	}

	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short header", []byte{Version, 0}},
		{"seven header bytes", []byte{Version, 0, 0, 8, 0, 0, 0}},
		{"wrong version", frame(0x04, TypeHello, 8, 1, nil)},
		{"length below header", frame(Version, TypeHello, 4, 1, nil)},
		{"length beyond buffer", frame(Version, TypeHello, 200, 1, nil)},
		{"truncated match in flow-mod", validFrame(TypeFlowMod, 1, make([]byte, MatchLen-1))},
		{"flow-mod body ends inside fixed fields", validFrame(TypeFlowMod, 1, make([]byte, MatchLen+10))},
		{"action length zero", corrupt(goodFlowMod, HeaderLen+MatchLen+24+3, 0)},
		{"action length not multiple of 8", corrupt(goodFlowMod, HeaderLen+MatchLen+24+3, 5)},
		{"action length beyond list", corrupt(goodFlowMod, HeaderLen+MatchLen+24+3, 64)},
		{"unknown action type", corrupt(corrupt(goodFlowMod, HeaderLen+MatchLen+24, 0xee), HeaderLen+MatchLen+24+1, 0xee)},
		{"truncated features port", validFrame(TypeFeaturesReply, 1, make([]byte, 24+PhyPortLen-1))},
		{"truncated packet-in fixed fields", validFrame(TypePacketIn, 1, make([]byte, 5))},
		{"packet-out actions_len beyond body", func() []byte {
			body := make([]byte, 8)
			binary.BigEndian.PutUint32(body[0:], NoBuffer)
			binary.BigEndian.PutUint16(body[4:], PortNone)
			binary.BigEndian.PutUint16(body[6:], 0xffff) // actions_len > remaining
			return validFrame(TypePacketOut, 1, body)
		}()},
		{"truncated flow-removed", validFrame(TypeFlowRemoved, 1, make([]byte, MatchLen+10))},
		{"truncated port-status", validFrame(TypePortStatus, 1, make([]byte, 8+PhyPortLen-4))},
		{"flow stats entry length lies", func() []byte {
			body := make([]byte, 4+4)
			binary.BigEndian.PutUint16(body[0:], StatsFlow)
			binary.BigEndian.PutUint16(body[4:], 200) // entry length > body
			return validFrame(TypeStatsReply, 1, body)
		}()},
		{"flow stats entry length below minimum", func() []byte {
			body := make([]byte, 4+88)
			binary.BigEndian.PutUint16(body[0:], StatsFlow)
			binary.BigEndian.PutUint16(body[4:], 8)
			return validFrame(TypeStatsReply, 1, body)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Unmarshal(tc.in)
			if err == nil {
				t.Fatalf("accepted malformed frame as %T", m)
			}
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("error %v does not wrap ErrBadMessage", err)
			}
		})
	}
}

// TestAppendToKeepsPrefix pins the append-style contract: AppendTo onto a
// non-empty prefix appends exactly the bytes AppendTo(nil) returns.
func TestAppendToKeepsPrefix(t *testing.T) {
	msgs := []Message{
		&Hello{},
		&EchoRequest{Data: []byte("x")},
		&ErrorMsg{ErrType: 1, Code: 2, Data: []byte{9}},
		&FeaturesReply{DatapathID: 5, Ports: []PhyPort{{PortNo: 1, Name: "eth1"}}},
		&PacketIn{BufferID: 3, InPort: 2, Data: []byte("frame")},
		&PacketOut{BufferID: NoBuffer, InPort: PortNone,
			Actions: []Action{&ActionOutput{Port: 2}}, Data: []byte("p")},
		&FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer,
			OutPort: PortNone, Actions: []Action{&ActionOutput{Port: 1}}},
		&StatsRequest{StatsType: StatsDesc},
		&BarrierRequest{},
		&Raw{T: TypeQueueGetConfigReq, Body: []byte{0, 5, 0, 0}},
	}
	for _, m := range msgs {
		m.SetXID(42)
		prefix := []byte("prefix")
		out := m.AppendTo(append([]byte(nil), prefix...))
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("%v: AppendTo clobbered the prefix", m.MsgType())
		}
		if !bytes.Equal(out[len(prefix):], m.AppendTo(nil)) {
			t.Fatalf("%v: AppendTo onto a prefix differs from AppendTo(nil)", m.MsgType())
		}
	}
}

func TestDecoderStream(t *testing.T) {
	var buf bytes.Buffer
	var want []Message
	for i := 1; i <= 50; i++ {
		m := &EchoRequest{Data: bytes.Repeat([]byte{byte(i)}, i*20)}
		m.SetXID(uint32(i))
		want = append(want, m)
		buf.Write(m.AppendTo(nil))
	}
	dec := NewDecoder(&buf)
	for i, w := range want {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("message %d: got %+v want %+v", i, got, w)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestDecoderBorrowsUnmarshalOwns pins the decode contract. A message Decode
// returns is borrowed: until the next Decode it equals what Unmarshal makes
// of the same frame and re-encodes to that frame, and its byte fields alias
// the Decoder's buffer; a FlowMod, PacketIn, PacketOut, BarrierReply or
// PortStatus is the same value every time. Unmarshal's result owns
// everything: overwriting the input leaves it intact.
func TestDecoderBorrowsUnmarshalOwns(t *testing.T) {
	filler := (&EchoRequest{Data: bytes.Repeat([]byte{0xBB}, 100)}).AppendTo(nil)
	for _, m := range seedMessages() {
		first := m.AppendTo(nil)
		stream := append(append([]byte(nil), first...), first...)
		for len(stream) < 4*decoderReadSize {
			stream = append(stream, filler...)
		}
		dec := NewDecoder(bytes.NewReader(stream))
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Unmarshal(first)
		if !reflect.DeepEqual(got, want) || !bytes.Equal(got.AppendTo(nil), first) || !bytes.Equal(dec.Frame(), first) {
			t.Fatalf("%v: borrowed message %v, want %v", m.MsgType(), got, want)
		}
		again, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		switch m.MsgType() {
		case TypeFlowMod, TypePacketIn, TypePacketOut, TypeBarrierReply, TypePortStatus:
			if again != got {
				t.Fatalf("%v: a second message of the type was not decoded into the first's value", m.MsgType())
			}
		}
		if pi, ok := again.(*PacketIn); ok && &pi.Data[0] != &dec.Frame()[len(first)-len(pi.Data)] {
			t.Fatal("PacketIn.Data does not alias the frame")
		}

		wire := m.AppendTo(nil)
		owned, err := Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wire {
			wire[i] = 0xFF
		}
		if !reflect.DeepEqual(owned, want) {
			t.Fatalf("%v: Unmarshal result changed with its input: got %v, want %v", m.MsgType(), owned, want)
		}
	}
}

func TestDecoderTruncatedBody(t *testing.T) {
	b := (&EchoRequest{Data: []byte("0123456789")}).AppendTo(nil)
	dec := NewDecoder(bytes.NewReader(b[:12]))
	if _, err := dec.Decode(); err == nil {
		t.Fatal("truncated body accepted")
	}
}
