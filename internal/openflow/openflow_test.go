package openflow

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"routeflow/internal/pkt"
)

// roundTrip marshals m, unmarshals the bytes and compares deeply.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := m.AppendTo(nil)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("%v: unmarshal: %v", m.MsgType(), err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(m)) {
		t.Fatalf("%v round trip:\n got %#v\nwant %#v", m.MsgType(), got, m)
	}
	return got
}

// normalize maps empty slices to nil so DeepEqual ignores that distinction.
func normalize(m Message) Message { return m }

func TestHelloRoundTrip(t *testing.T) {
	m := &Hello{}
	m.SetXID(7)
	got := roundTrip(t, m)
	if got.XID() != 7 {
		t.Fatalf("xid = %d", got.XID())
	}
	if len(m.AppendTo(nil)) != HeaderLen {
		t.Fatalf("hello length = %d", len(m.AppendTo(nil)))
	}
}

func TestErrorRoundTrip(t *testing.T) {
	m := &ErrorMsg{ErrType: ErrTypeFlowModFailed, Code: ErrCodeFlowModAllTablesFull,
		Data: []byte{1, 2, 3}}
	roundTrip(t, m)
	if m.Error() == "" {
		t.Fatal("Error() empty")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	roundTrip(t, &EchoRequest{Data: []byte("probe")})
	roundTrip(t, &EchoReply{Data: []byte("probe")})
	roundTrip(t, &EchoRequest{}) // empty payload
}

func TestVendorRoundTrip(t *testing.T) {
	roundTrip(t, &Vendor{VendorID: 0x2320, Data: []byte("nicira")})
}

func TestFeaturesRoundTrip(t *testing.T) {
	roundTrip(t, &FeaturesRequest{})
	m := &FeaturesReply{
		DatapathID:   0x00000000deadbeef,
		NBuffers:     256,
		NTables:      2,
		Capabilities: CapFlowStats | CapPortStats,
		Actions:      0xfff,
		Ports: []PhyPort{
			{PortNo: 1, HWAddr: pkt.LocalMAC(0x101), Name: "eth1", State: 0},
			{PortNo: 2, HWAddr: pkt.LocalMAC(0x102), Name: "eth2", State: PortStateDown},
		},
	}
	got := roundTrip(t, m).(*FeaturesReply)
	if got.Ports[1].Name != "eth2" || got.Ports[1].State != PortStateDown {
		t.Fatalf("port round trip: %+v", got.Ports[1])
	}
}

func TestFeaturesReplyRejectsTrailingBytes(t *testing.T) {
	m := &FeaturesReply{DatapathID: 1}
	b := m.AppendTo(nil)
	b = append(b, 0xAA) // one stray byte after the ports array
	b[2] = byte(len(b) >> 8)
	b[3] = byte(len(b))
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	roundTrip(t, &GetConfigRequest{})
	roundTrip(t, &GetConfigReply{Flags: 1, MissSendLen: 128})
	roundTrip(t, &SetConfig{MissSendLen: 0xffff})
}

func TestPacketInRoundTrip(t *testing.T) {
	m := &PacketIn{BufferID: NoBuffer, TotalLen: 60, InPort: 3,
		Reason: PacketInReasonNoMatch, Data: []byte("frame-bytes")}
	roundTrip(t, m)
}

func TestPacketOutRoundTrip(t *testing.T) {
	m := &PacketOut{
		BufferID: NoBuffer,
		InPort:   PortNone,
		Actions: []Action{
			&ActionOutput{Port: 2, MaxLen: 0},
			&ActionSetDlDst{Addr: pkt.LocalMAC(9)},
		},
		Data: []byte("payload"),
	}
	got := roundTrip(t, m).(*PacketOut)
	if len(got.Actions) != 2 {
		t.Fatalf("actions = %d", len(got.Actions))
	}
	if out, ok := got.Actions[0].(*ActionOutput); !ok || out.Port != 2 {
		t.Fatalf("action 0 = %#v", got.Actions[0])
	}
}

func TestPacketOutNoActions(t *testing.T) {
	m := &PacketOut{BufferID: 42, InPort: 1}
	got := roundTrip(t, m).(*PacketOut)
	if got.BufferID != 42 || len(got.Actions) != 0 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	match := MatchAll()
	match.Wildcards &^= WildcardDlType
	match.DlType = uint16(pkt.EtherTypeIPv4)
	match.SetNwDstPrefix(netip.MustParsePrefix("10.1.2.0/24"))
	m := &FlowMod{
		Match:       match,
		Cookie:      0xc00c1e,
		Command:     FlowModAdd,
		IdleTimeout: 30,
		HardTimeout: 600,
		Priority:    0x8000,
		BufferID:    NoBuffer,
		OutPort:     PortNone,
		Flags:       FlowModFlagSendFlowRem,
		Actions: []Action{
			&ActionSetDlSrc{Addr: pkt.LocalMAC(1)},
			&ActionSetDlDst{Addr: pkt.LocalMAC(2)},
			&ActionOutput{Port: 4},
		},
	}
	got := roundTrip(t, m).(*FlowMod)
	if got.Match.NwDstPrefix() != netip.MustParsePrefix("10.1.2.0/24") {
		t.Fatalf("prefix = %v", got.Match.NwDstPrefix())
	}
}

func TestAllActionsRoundTrip(t *testing.T) {
	actions := []Action{
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
		&ActionVendor{Vendor: 0x1234, Data: []byte{1, 2, 3}}, // padded to 8n
	}
	m := &FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer,
		OutPort: PortNone, Actions: actions}
	// The vendor action's payload is zero-padded to an 8-byte multiple on
	// the wire, so compare piecewise rather than with the strict helper.
	decoded, err := Unmarshal(m.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.(*FlowMod)
	if len(got.Actions) != len(actions) {
		t.Fatalf("decoded %d actions, want %d", len(got.Actions), len(actions))
	}
	for i := range actions[:13] {
		if !reflect.DeepEqual(got.Actions[i], actions[i]) {
			t.Fatalf("action %d: got %#v want %#v", i, got.Actions[i], actions[i])
		}
	}
	v := got.Actions[13].(*ActionVendor)
	// Vendor data is zero-padded to an 8-byte multiple on the wire.
	if v.Vendor != 0x1234 || !bytes.Equal(v.Data[:3], []byte{1, 2, 3}) {
		t.Fatalf("vendor action = %#v", v)
	}
}

// TestActionMultipathWire pins the extension action's exact wire layout
// (8-byte header with bucket count, 16 bytes per bucket) and its decode
// robustness: a bucket count disagreeing with the action length is rejected,
// as is an empty bucket list.
func TestActionMultipathWire(t *testing.T) {
	a := &ActionMultipath{Buckets: []MultipathBucket{
		{DlSrc: pkt.MAC{1, 2, 3, 4, 5, 6}, DlDst: pkt.MAC{7, 8, 9, 10, 11, 12}, Port: 0x0203},
	}}
	wire := a.appendTo(nil)
	want := []byte{
		0, 12, 0, 24, // type=multipath, len=8+16
		0, 1, 0, 0, // 1 bucket, pad
		2, 3, // port
		1, 2, 3, 4, 5, 6, // dl_src
		7, 8, 9, 10, 11, 12, // dl_dst
		0, 0, // pad
	}
	if !bytes.Equal(wire, want) {
		t.Fatalf("wire = %x, want %x", wire, want)
	}
	// Per-flow stability: the same hash always picks the same bucket.
	two := &ActionMultipath{Buckets: []MultipathBucket{{Port: 1}, {Port: 2}}}
	if two.Bucket(4).Port != 1 || two.Bucket(5).Port != 2 {
		t.Fatalf("bucket selection: %v %v", two.Bucket(4), two.Bucket(5))
	}

	bad := append([]byte(nil), wire...)
	bad[5] = 2 // claims 2 buckets, body has 1
	if _, err := new(store).decodeActions(bad); err == nil {
		t.Fatal("bucket-count mismatch accepted")
	}
	empty := []byte{0, 12, 0, 8, 0, 0, 0, 0}
	if _, err := new(store).decodeActions(empty); err == nil {
		t.Fatal("empty bucket list accepted")
	}
}

// TestResolveMultipath: an action list without a group comes back as it is;
// an empty group is dropped; a group becomes the rewrites and output of
// Bucket(key.KeyHash()), in the group's place.
func TestResolveMultipath(t *testing.T) {
	key, err := ExtractKey(1, (&pkt.Frame{Dst: pkt.LocalMAC(2), Src: pkt.LocalMAC(1),
		Type: pkt.EtherTypeARP, Payload: make([]byte, pkt.ARPLen)}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	group := &ActionMultipath{}
	for p := uint16(2); p <= 5; p++ {
		group.Buckets = append(group.Buckets, MultipathBucket{
			DlSrc: pkt.LocalMAC(0x50 + uint64(p)), DlDst: pkt.LocalMAC(0xD0 + uint64(p)), Port: p})
	}
	bk := group.Bucket(key.KeyHash())
	vlan := &ActionSetVlanVid{VlanVid: 7}
	out := &ActionOutput{Port: 9}
	for _, tc := range []struct {
		name    string
		actions []Action
		want    []Action
	}{
		{"no group", []Action{vlan, out}, []Action{vlan, out}},
		{"empty group", []Action{vlan, &ActionMultipath{}, out}, []Action{vlan, out}},
		{"group", []Action{vlan, group, out}, []Action{vlan,
			&ActionSetDlSrc{Addr: bk.DlSrc}, &ActionSetDlDst{Addr: bk.DlDst}, &ActionOutput{Port: bk.Port}, out}},
	} {
		got := ResolveMultipath(tc.actions, &key)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		if tc.name == "no group" && &got[0] != &tc.actions[0] {
			t.Errorf("%s: the list was copied, want it returned as it is", tc.name)
		}
	}
}

func TestActionListRejectsBadLength(t *testing.T) {
	m := &FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer,
		OutPort: PortNone, Actions: []Action{&ActionOutput{Port: 1}}}
	b := m.AppendTo(nil)
	// Corrupt the action length field (offset: header 8 + match 40 + 24 + 2).
	b[HeaderLen+MatchLen+24+2] = 0
	b[HeaderLen+MatchLen+24+3] = 5 // not a multiple of 8
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("bad action length accepted")
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	m := &FlowRemoved{Match: MatchAll(), Cookie: 9, Priority: 10,
		Reason: FlowRemovedIdleTimeout, DurationSec: 100, DurationNsec: 500,
		IdleTimeout: 30, PacketCount: 1234, ByteCount: 56789}
	roundTrip(t, m)
}

func TestPortStatusRoundTrip(t *testing.T) {
	m := &PortStatus{Reason: PortReasonDelete,
		Desc: PhyPort{PortNo: 7, HWAddr: pkt.LocalMAC(0x77), Name: "port-7"}}
	got := roundTrip(t, m).(*PortStatus)
	if got.Desc.PortNo != 7 || got.Desc.Name != "port-7" {
		t.Fatalf("desc = %+v", got.Desc)
	}
}

func TestBarrierRoundTrip(t *testing.T) {
	roundTrip(t, &BarrierRequest{})
	roundTrip(t, &BarrierReply{})
}

func TestStatsDescRoundTrip(t *testing.T) {
	roundTrip(t, &StatsRequest{StatsType: StatsDesc})
	m := &StatsReply{StatsType: StatsDesc, Desc: &DescStats{
		Manufacturer: "routeflow-repro", Hardware: "netemu", Software: "ofswitch",
		SerialNumber: "0001", Datapath: "emulated datapath"}}
	got := roundTrip(t, m).(*StatsReply)
	if got.Desc.Manufacturer != "routeflow-repro" {
		t.Fatalf("desc = %+v", got.Desc)
	}
}

func TestStatsFlowRoundTrip(t *testing.T) {
	req := &StatsRequest{StatsType: StatsFlow,
		Flow: &FlowStatsRequest{Match: MatchAll(), TableID: 0xff, OutPort: PortNone}}
	got := roundTrip(t, req).(*StatsRequest)
	if got.Flow == nil || got.Flow.TableID != 0xff {
		t.Fatalf("flow req = %+v", got.Flow)
	}
	rep := &StatsReply{StatsType: StatsFlow, Flows: []FlowStats{
		{TableID: 0, Match: MatchAll(), DurationSec: 5, Priority: 100,
			Cookie: 1, PacketCount: 10, ByteCount: 1000,
			Actions: []Action{&ActionOutput{Port: 1}}},
		{TableID: 0, Match: MatchAll(), Priority: 50},
	}}
	gotRep := roundTrip(t, rep).(*StatsReply)
	if len(gotRep.Flows) != 2 || gotRep.Flows[0].PacketCount != 10 {
		t.Fatalf("flows = %+v", gotRep.Flows)
	}
}

func TestStatsTableAndPortRoundTrip(t *testing.T) {
	roundTrip(t, &StatsReply{StatsType: StatsTable, Tables: []TableStats{
		{TableID: 0, Name: "classifier", Wildcards: WildcardAll,
			MaxEntries: 1 << 20, ActiveCount: 12, LookupCount: 100, MatchedCount: 90}}})
	roundTrip(t, &StatsRequest{StatsType: StatsPort, Port: &PortStatsRequest{PortNo: PortNone}})
	roundTrip(t, &StatsReply{StatsType: StatsPort, Ports: []PortStats{
		{PortNo: 1, RxPackets: 10, TxPackets: 20, RxBytes: 300, TxBytes: 400},
		{PortNo: 2, Collisions: 7},
	}})
}

func TestRawPassThrough(t *testing.T) {
	// QueueGetConfig is not modeled: it must survive as Raw, byte for byte.
	wire := []byte{
		Version, uint8(TypeQueueGetConfigReq),
		0, 12, // length
		0, 0, 0, 99, // xid
		0, 5, // port
		0, 0, // pad
	}
	m, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := m.(*Raw)
	if !ok {
		t.Fatalf("got %T", m)
	}
	if raw.MsgType() != TypeQueueGetConfigReq || raw.XID() != 99 {
		t.Fatalf("raw = %+v", raw)
	}
	if !bytes.Equal(raw.AppendTo(nil), wire) {
		t.Fatal("raw re-encode differs")
	}
}

func TestUnmarshalRejects(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 0}); err == nil {
		t.Fatal("short buffer accepted")
	}
	m := (&Hello{}).AppendTo(nil)
	m[0] = 4 // OpenFlow 1.3 version
	if _, err := Unmarshal(m); err == nil {
		t.Fatal("wrong version accepted")
	}
	m = (&Hello{}).AppendTo(nil)
	m[3] = 200 // length > buffer
	if _, err := Unmarshal(m); err == nil {
		t.Fatal("overlong length accepted")
	}
}

func TestReadWriteStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Hello{},
		&EchoRequest{Data: []byte("x")},
		&FeaturesRequest{},
		&BarrierRequest{},
	}
	for i, m := range msgs {
		m.SetXID(uint32(i + 1))
		buf.Write(m.AppendTo(nil))
	}
	dec := NewDecoder(&buf)
	for i := range msgs {
		m, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if m.XID() != uint32(i+1) {
			t.Fatalf("message %d xid = %d", i, m.XID())
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestMatchAllCoversEverything(t *testing.T) {
	m := MatchAll()
	keys := []Match{
		{},
		{InPort: 5, DlType: 0x0800, NwProto: 17},
		{DlSrc: pkt.LocalMAC(1), TpDst: 80},
	}
	for _, k := range keys {
		if !m.Covers(&k) {
			t.Fatalf("match-all does not cover %+v", k)
		}
	}
}

func TestMatchExactFields(t *testing.T) {
	m := MatchAll()
	m.Wildcards &^= WildcardInPort | WildcardDlType
	m.InPort, m.DlType = 3, 0x0800
	k := Match{InPort: 3, DlType: 0x0800}
	if !m.Covers(&k) {
		t.Fatal("exact match failed")
	}
	k.InPort = 4
	if m.Covers(&k) {
		t.Fatal("in_port mismatch covered")
	}
}

func TestMatchPrefixSemantics(t *testing.T) {
	m := MatchAll()
	m.SetNwDstPrefix(netip.MustParsePrefix("192.168.4.0/22"))
	in := Match{NwDst: [4]byte{192, 168, 7, 200}}
	out := Match{NwDst: [4]byte{192, 168, 8, 1}}
	if !m.Covers(&in) {
		t.Fatal("/22 should cover 192.168.7.200")
	}
	if m.Covers(&out) {
		t.Fatal("/22 should not cover 192.168.8.1")
	}
	if m.NwDstIgnoredBits() != 10 {
		t.Fatalf("ignored bits = %d", m.NwDstIgnoredBits())
	}
}

func TestMatchHostRoute(t *testing.T) {
	m := MatchAll()
	m.SetNwSrcPrefix(netip.MustParsePrefix("10.0.0.1/32"))
	hit := Match{NwSrc: [4]byte{10, 0, 0, 1}}
	miss := Match{NwSrc: [4]byte{10, 0, 0, 2}}
	if !m.Covers(&hit) || m.Covers(&miss) {
		t.Fatal("/32 semantics wrong")
	}
}

func TestMatchDefaultPrefixIsWildcard(t *testing.T) {
	// A /0 prefix must cover everything.
	m := MatchAll()
	m.SetNwDstPrefix(netip.MustParsePrefix("0.0.0.0/0"))
	k := Match{NwDst: [4]byte{203, 0, 113, 9}}
	if !m.Covers(&k) {
		t.Fatal("/0 did not cover arbitrary address")
	}
}

func TestExtractKeyIPv4UDP(t *testing.T) {
	ip := &pkt.IPv4{TTL: 64, Proto: pkt.ProtoUDP,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Payload: (&pkt.UDP{SrcPort: 1000, DstPort: 2000}).Marshal(
			netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"))}
	f := &pkt.Frame{Dst: pkt.LocalMAC(2), Src: pkt.LocalMAC(1),
		Type: pkt.EtherTypeIPv4, Payload: ip.Marshal()}
	k, err := ExtractKey(7, f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if k.InPort != 7 || k.DlType != 0x0800 || k.NwProto != 17 ||
		k.TpSrc != 1000 || k.TpDst != 2000 {
		t.Fatalf("key = %+v", k)
	}
	if k.NwSrc != [4]byte{10, 0, 0, 1} {
		t.Fatalf("nw_src = %v", k.NwSrc)
	}
	if k.DlVlan != 0xffff {
		t.Fatalf("untagged dl_vlan = %#x, want 0xffff", k.DlVlan)
	}
}

func TestExtractKeyARP(t *testing.T) {
	a := pkt.NewARPRequest(pkt.LocalMAC(1), netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"))
	f := &pkt.Frame{Dst: pkt.BroadcastMAC, Src: pkt.LocalMAC(1),
		Type: pkt.EtherTypeARP, Payload: a.Marshal()}
	k, err := ExtractKey(1, f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if k.DlType != 0x0806 || k.NwProto != uint8(pkt.ARPRequest) {
		t.Fatalf("arp key = %+v", k)
	}
}

func TestExtractKeyBadFrame(t *testing.T) {
	if _, err := ExtractKey(1, []byte{1, 2}); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

func TestMatchStringer(t *testing.T) {
	m := MatchAll()
	if m.String() != "match{*}" {
		t.Fatalf("all = %s", m.String())
	}
	m.Wildcards &^= WildcardInPort
	m.InPort = 9
	if got := m.String(); got != "match{in_port=9}" {
		t.Fatalf("got %s", got)
	}
}

func TestTypeString(t *testing.T) {
	if TypeFlowMod.String() != "FLOW_MOD" {
		t.Fatal(TypeFlowMod.String())
	}
	if Type(99).String() != "Type(99)" {
		t.Fatal(Type(99).String())
	}
}

// Property: any match produced from random field values survives an
// encode/decode cycle bit-exactly.
func TestMatchRoundTripQuick(t *testing.T) {
	prop := func(wc uint32, inPort uint16, dlSrc, dlDst [6]byte, vlan uint16,
		pcp uint8, dlType uint16, tos, proto uint8, nwSrc, nwDst [4]byte,
		tpSrc, tpDst uint16) bool {
		m := Match{Wildcards: wc & WildcardAll, InPort: inPort,
			DlSrc: pkt.MAC(dlSrc), DlDst: pkt.MAC(dlDst), DlVlan: vlan,
			DlVlanPcp: pcp, DlType: dlType, NwTos: tos, NwProto: proto,
			NwSrc: nwSrc, NwDst: nwDst, TpSrc: tpSrc, TpDst: tpDst}
		fm := &FlowMod{Match: m, Command: FlowModAdd, BufferID: NoBuffer, OutPort: PortNone}
		got, err := Unmarshal(fm.AppendTo(nil))
		if err != nil {
			return false
		}
		return got.(*FlowMod).Match == m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: PacketIn data of any size and content survives framing.
func TestPacketInRoundTripQuick(t *testing.T) {
	prop := func(buffer uint32, total uint16, inPort uint16, reason uint8, data []byte) bool {
		if len(data) > 40000 {
			data = data[:40000]
		}
		m := &PacketIn{BufferID: buffer, TotalLen: total, InPort: inPort,
			Reason: reason % 2, Data: data}
		got, err := Unmarshal(m.AppendTo(nil))
		if err != nil {
			return false
		}
		g := got.(*PacketIn)
		return g.BufferID == buffer && g.TotalLen == total && g.InPort == inPort &&
			bytes.Equal(g.Data, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every prefix length 0..32 round-trips through the wildcard
// encoding and matches exactly the addresses inside the prefix.
func TestPrefixWildcardQuick(t *testing.T) {
	prop := func(addr [4]byte, bits uint8, probe [4]byte) bool {
		b := int(bits % 33)
		p := netip.PrefixFrom(netip.AddrFrom4(addr), b).Masked()
		m := MatchAll()
		m.SetNwDstPrefix(p)
		k := Match{NwDst: probe}
		want := p.Contains(netip.AddrFrom4(probe))
		return m.Covers(&k) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
