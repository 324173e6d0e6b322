package ofswitch

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// The switch's Decoder lends each message until the next one is decoded.
// These tests write a whole batch in one write, so that the batch's frames
// share the Decoder's buffer and are overwritten while the switch still
// runs: whatever the switch keeps or queues without copying shows up
// corrupted (and as a race under -race).

// sendBatch writes msgs to the switch in one write.
func (h *harness) sendBatch(msgs []openflow.Message) {
	h.t.Helper()
	var buf []byte
	for _, m := range msgs {
		buf = m.AppendTo(buf)
	}
	if _, err := h.conn.Write(buf); err != nil {
		h.t.Fatalf("controller send: %v", err)
	}
}

// barrier sends a barrier request and waits for its reply: every message
// written before it has been handled.
func (h *harness) barrier() {
	h.t.Helper()
	req := &openflow.BarrierRequest{}
	req.SetXID(0xBA44)
	h.send(req)
	if rep := h.expect(openflow.TypeBarrierReply); rep.XID() != 0xBA44 {
		h.t.Fatalf("barrier reply xid %d", rep.XID())
	}
}

// TestFlowModBatchInstallsWhatWasSent installs 512 distinct flows in one
// write, over several priorities and with every flow's actions its own, and
// requires the table to hold exactly what was sent, in classify order.
func TestFlowModBatchInstallsWhatWasSent(t *testing.T) {
	h := newHarness(t, nil)
	prios := []uint16{500, 132, 400, 124}
	var msgs []openflow.Message
	want := map[uint16][]*openflow.FlowMod{}
	for i := 0; i < 512; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = uint16(pkt.EtherTypeIPv4)
		m.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24))
		actions := []openflow.Action{
			&openflow.ActionSetDlSrc{Addr: pkt.LocalMAC(uint64(i))},
			&openflow.ActionSetDlDst{Addr: pkt.LocalMAC(uint64(0x10000 + i))},
			&openflow.ActionOutput{Port: uint16(1 + i%2)},
		}
		if i%16 == 0 {
			actions = []openflow.Action{&openflow.ActionMultipath{Buckets: []openflow.MultipathBucket{
				{DlSrc: pkt.LocalMAC(uint64(i)), DlDst: pkt.LocalMAC(1), Port: 1},
				{DlSrc: pkt.LocalMAC(uint64(i)), DlDst: pkt.LocalMAC(2), Port: 2},
			}}}
		}
		fm := &openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: prios[i%len(prios)],
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone, Cookie: uint64(i), Actions: actions}
		fm.SetXID(uint32(i + 1))
		msgs = append(msgs, fm)
		want[fm.Priority] = append(want[fm.Priority], fm)
	}
	h.sendBatch(msgs)
	h.barrier()

	var order []*openflow.FlowMod
	for _, p := range []uint16{500, 400, 132, 124} {
		order = append(order, want[p]...)
	}
	got := h.sw.FlowTable()
	if len(got) != len(order) {
		t.Fatalf("table holds %d flows, sent %d", len(got), len(order))
	}
	for i, fi := range got {
		fm := order[i]
		if fi.Cookie != fm.Cookie || fi.Priority != fm.Priority || fi.Match != fm.Match ||
			!reflect.DeepEqual(fi.Actions, fm.Actions) {
			t.Fatalf("flow %d: installed cookie %d prio %d %v %v, sent cookie %d prio %d %v %v",
				i, fi.Cookie, fi.Priority, &fi.Match, fi.Actions, fm.Cookie, fm.Priority, &fm.Match, fm.Actions)
		}
	}
}

// TestPacketOutBatchFramesArriveIntact sends 128 packet-outs in one write,
// each a distinct frame with a MAC rewrite, and requires every frame to
// reach port 2 rewritten and otherwise as sent, in order.
func TestPacketOutBatchFramesArriveIntact(t *testing.T) {
	h := newHarness(t, nil)
	rx := make(chan []byte, 256)
	h.h2.SetReceiver(func(f []byte) { rx <- append([]byte(nil), f...) })
	const n = 128
	var msgs []openflow.Message
	var want [][]byte
	for i := 0; i < n; i++ {
		frame := udpFrame(pkt.LocalMAC(1), pkt.LocalMAC(2), "10.0.0.1", "10.0.0.2", 1000, uint16(i),
			fmt.Sprintf("packet-out %03d %s", i, bytes.Repeat([]byte{byte(i)}, 40)))
		po := &openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: openflow.PortNone,
			Actions: []openflow.Action{
				&openflow.ActionSetDlDst{Addr: pkt.LocalMAC(0xA2)},
				&openflow.ActionOutput{Port: 2},
			},
			Data: frame}
		po.SetXID(uint32(i + 1))
		msgs = append(msgs, po)
		rewritten := append([]byte(nil), frame...)
		dst := pkt.LocalMAC(0xA2)
		copy(rewritten[0:6], dst[:])
		want = append(want, rewritten)
	}
	h.sendBatch(msgs)
	h.barrier()
	for i, w := range want {
		if got := expectFrame(t, rx, fmt.Sprintf("packet-out %d", i)); !bytes.Equal(got, w) {
			t.Fatalf("packet-out %d arrived as\n%x\nwant\n%x", i, got, w)
		}
	}
}

// TestEchoBatchRepliesCarryTheirOwnData sends 200 echo requests in one
// write, each with its own data, and requires every reply to carry its
// request's data.
func TestEchoBatchRepliesCarryTheirOwnData(t *testing.T) {
	h := newHarness(t, nil)
	const n = 200
	var msgs []openflow.Message
	for i := 0; i < n; i++ {
		req := &openflow.EchoRequest{Data: bytes.Repeat([]byte{byte(i)}, 64+i%32)}
		req.SetXID(uint32(i + 1))
		msgs = append(msgs, req)
	}
	h.sendBatch(msgs)
	for i, m := range msgs {
		rep := h.expect(openflow.TypeEchoReply).(*openflow.EchoReply)
		if req := m.(*openflow.EchoRequest); rep.XID() != req.XID() || !bytes.Equal(rep.Data, req.Data) {
			t.Fatalf("echo %d: reply xid %d data %x, want xid %d data %x", i, rep.XID(), rep.Data, req.XID(), req.Data)
		}
	}
}
