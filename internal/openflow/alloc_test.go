package openflow

import (
	"net/netip"
	"testing"

	"routeflow/internal/pkt"
)

// Allocation budgets for the hottest codec and classification operations.
// These are the gates, not benchmarks: a regression that re-introduces
// per-message or per-packet garbage fails the test suite instead of only
// drifting a number (bench/ measures the speed).

func allocBudgetFlowMod() *FlowMod {
	m := MatchAll()
	m.Wildcards &^= WildcardDlType
	m.DlType = 0x0800
	m.SetNwDstPrefix(netip.MustParsePrefix("10.1.2.0/24"))
	return &FlowMod{
		Match: m, Command: FlowModAdd, Priority: 124,
		BufferID: NoBuffer, OutPort: PortNone,
		Actions: []Action{
			&ActionSetDlSrc{Addr: pkt.LocalMAC(1)},
			&ActionSetDlDst{Addr: pkt.LocalMAC(2)},
			&ActionOutput{Port: 3},
		},
	}
}

// TestAppendToFlowModAllocBudget: encoding a representative flow-mod into a
// reused buffer — the batched write path — allocates nothing once the buffer
// has grown.
func TestAppendToFlowModAllocBudget(t *testing.T) {
	fm := allocBudgetFlowMod()
	buf := fm.AppendTo(nil) // warm the buffer to working-set capacity
	if got := testing.AllocsPerRun(200, func() {
		buf = fm.AppendTo(buf[:0])
	}); got != 0 {
		t.Fatalf("AppendTo(FlowMod) = %.1f allocs/op, budget 0", got)
	}
}

// TestExtractKeyAllocBudget: dataplane classification of a full-size UDP
// frame does not allocate (all packet layers decode into stack values).
func TestExtractKeyAllocBudget(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.9.0.100")
	u := &pkt.UDP{SrcPort: 5004, DstPort: 5004, Payload: make([]byte, 1472)}
	ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP, Src: src, Dst: dst,
		Payload: u.Marshal(src, dst)}
	f := &pkt.Frame{Dst: pkt.LocalMAC(2), Src: pkt.LocalMAC(1),
		Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
	frame := f.Marshal()

	if got := testing.AllocsPerRun(200, func() {
		if _, err := ExtractKey(1, frame); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("ExtractKey = %.1f allocs/op, budget 0", got)
	}
}

// repeatReader returns frame over and over, as a stream that never ends.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	for n := 0; ; {
		c := copy(p[n:], r.frame[r.off:])
		n += c
		r.off = (r.off + c) % len(r.frame)
		if n == len(p) {
			return n, nil
		}
	}
}

// TestDecodeAllocBudget: once a Decoder has seen a message type, decoding
// another FlowMod (three actions), PacketIn (64 B), PacketOut, BarrierReply
// or PortStatus (of the same named port) allocates nothing — the message,
// its action list and its data are borrowed.
func TestDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	frame64 := make([]byte, 64)
	for name, m := range map[string]Message{
		"FlowMod":  allocBudgetFlowMod(),
		"PacketIn": &PacketIn{BufferID: 7, TotalLen: 64, InPort: 2, Data: frame64},
		"PacketOut": &PacketOut{BufferID: NoBuffer, InPort: PortNone,
			Actions: []Action{&ActionOutput{Port: 3}}, Data: frame64},
		"BarrierReply": &BarrierReply{MsgXID: MsgXID{Xid: 9}},
		"PortStatus": &PortStatus{Reason: PortReasonModify,
			Desc: PhyPort{PortNo: 3, HWAddr: pkt.LocalMAC(3), Name: "s1-eth3", State: PortStateDown}},
	} {
		dec := NewDecoder(&repeatReader{frame: m.AppendTo(nil)})
		decode := func() {
			if got, err := dec.Decode(); err != nil || got.MsgType() != m.MsgType() {
				t.Fatalf("%s: decoded %v, %v", name, got, err)
			}
		}
		decode() // the first message of a type sizes the Decoder's storage
		if got := testing.AllocsPerRun(200, decode); got != 0 {
			t.Errorf("Decode(%s) = %.1f allocs/op, budget 0", name, got)
		}
	}
}

// TestMatchCoversAllocBudget: evaluating a flow entry's match against an
// extracted key allocates nothing.
func TestMatchCoversAllocBudget(t *testing.T) {
	key := Match{DlType: 0x0800, NwDst: [4]byte{10, 9, 0, 100}}
	m := MatchAll()
	m.Wildcards &^= WildcardDlType
	m.DlType = 0x0800
	m.SetNwDstPrefix(netip.MustParsePrefix("10.9.0.0/24"))
	if got := testing.AllocsPerRun(200, func() {
		if !m.Covers(&key) {
			t.Fatal("must match")
		}
	}); got != 0 {
		t.Fatalf("Match.Covers = %.1f allocs/op, budget 0", got)
	}
}

// BenchmarkDecodeFlowMod prices decoding an rf-shaped flow-mod (a /24
// destination match, SetDlSrc, SetDlDst, Output): lent by a Decoder, as
// FlowVisor and the switch read it, and owned by Unmarshal, which is that
// decode plus Clone.
func BenchmarkDecodeFlowMod(b *testing.B) {
	frame := allocBudgetFlowMod().AppendTo(nil)
	b.Run("Decode", func(b *testing.B) {
		dec := NewDecoder(&repeatReader{frame: frame})
		b.ReportAllocs()
		for b.Loop() {
			if _, err := dec.Decode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Unmarshal(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
