package ofswitch

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routeflow/internal/netemu"
	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// waitCaptured waits until cs has captured want frames in all.
func waitCaptured(t *testing.T, cs *captureSwitch, want int) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); cs.total() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: captured %d frames, want %d", cs.sw.Name(), cs.total(), want)
		}
	}
}

// TestControllerMultipathMatchesTable: a packet-out, and a flow-mod
// releasing a buffered packet, that carry a multipath action verbatim send
// each frame on the bucket a table flow with that group picks for it — same
// port, same dl_src and dl_dst.
func TestControllerMultipathMatchesTable(t *testing.T) {
	group := &openflow.ActionMultipath{}
	for p := uint16(2); p <= 4; p++ {
		group.Buckets = append(group.Buckets, openflow.MultipathBucket{
			DlSrc: pkt.LocalMAC(0x50 + uint64(p)), DlDst: pkt.LocalMAC(0xD0 + uint64(p)), Port: p})
	}
	table, packetOut, release := newCaptureSwitch(t, 4), newCaptureSwitch(t, 4), newCaptureSwitch(t, 4)
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType
	m.DlType = uint16(pkt.EtherTypeIPv4)
	e := tableEntry(m, 100, 0)
	e.actions = []openflow.Action{group}
	if err := table.sw.table.add(e, false); err != nil {
		t.Fatal(err)
	}

	const flows = 32
	for i := 0; i < flows; i++ {
		frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xD1), "10.0.0.1", "10.9.0.9",
			uint16(1000+i), 5004, fmt.Sprintf("multipath-%d", i))
		table.sw.batchIn(1, [][]byte{append([]byte(nil), frame...)})
		packetOut.sw.handlePacketOut(&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1,
			Data: append([]byte(nil), frame...), Actions: []openflow.Action{group}})
		// A table miss buffers the frame; the flow-mod for its microflow
		// releases it through the group.
		release.sw.batchIn(1, [][]byte{append([]byte(nil), frame...)})
		key, err := openflow.ExtractKey(1, frame)
		if err != nil {
			t.Fatal(err)
		}
		release.sw.handleFlowMod(&openflow.FlowMod{Match: key, Command: openflow.FlowModAdd,
			Priority: 1, BufferID: release.sw.nextBuf, OutPort: openflow.PortNone,
			Actions: []openflow.Action{group}}, release.sw.clk.Now())
	}

	for _, cs := range []*captureSwitch{table, packetOut, release} {
		waitCaptured(t, cs, flows)
	}
	table.mu.Lock()
	defer table.mu.Unlock()
	used := 0
	for p := uint16(1); p <= 4; p++ {
		if len(table.rx[p]) > 0 {
			used++
		}
		for _, cs := range []*captureSwitch{packetOut, release} {
			cs.mu.Lock()
			got := cs.rx[p]
			cs.mu.Unlock()
			if len(got) != len(table.rx[p]) {
				t.Fatalf("%s: port %d sent %d frames, the table flow %d", cs.sw.Name(), p, len(got), len(table.rx[p]))
			}
			for i := range got {
				if !bytes.Equal(got[i], table.rx[p][i]) {
					t.Fatalf("%s: port %d frame %d differs from the table flow's:\n got: %x\nwant: %x",
						cs.sw.Name(), p, i, got[i], table.rx[p][i])
				}
			}
		}
	}
	if used < 2 {
		t.Fatalf("%d microflows used %d of the group's 3 buckets", flows, used)
	}
}

// TestPacketOutFrameCopiedBeforeReturn: a packet-out's frame is on its
// egress cable, as a copy, by the time the switch has handled the message,
// so the frame's bytes are the caller's again.
func TestPacketOutFrameCopiedBeforeReturn(t *testing.T) {
	cs := newCaptureSwitch(t, 2)
	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 1, 2, "packet-out")
	data := append([]byte(nil), frame...)
	cs.sw.handlePacketOut(&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1, Data: data,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}})
	clear(data)
	waitCaptured(t, cs, 1)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.rx[2]) != 1 || !bytes.Equal(cs.rx[2][0], frame) {
		t.Fatalf("port 2 sent %x, want %x", cs.rx[2], frame)
	}
}

// stalledConn is a control connection whose controller never reads: the
// switch's first write blocks until the connection closes.
type stalledConn struct {
	writing chan struct{} // receives once a write is blocked
	closed  chan struct{}
	once    sync.Once
}

func (c *stalledConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *stalledConn) Write([]byte) (int, error) {
	select {
	case c.writing <- struct{}{}:
	default:
	}
	<-c.closed
	return 0, io.ErrClosedPipe
}

func (c *stalledConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestControlQueueDropsCounted: with the controller not reading, the
// session's outbound queue fills, and every packet-in past its depth is
// dropped and counted — exactly the overflow, no more.
func TestControlQueueDropsCounted(t *testing.T) {
	cs := newCaptureSwitch(t, 1)
	conn := &stalledConn{writing: make(chan struct{}, 1), closed: make(chan struct{})}
	if err := cs.sw.Start(conn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.sw.Stop)
	select {
	case <-conn.writing: // the HELLO left the queue and nothing drains it now
	case <-time.After(3 * time.Second):
		t.Fatal("the switch never wrote its HELLO")
	}

	const overflow = 7
	frame := udpFrame(pkt.LocalMAC(0xA1), pkt.LocalMAC(0xA2), "10.0.0.1", "10.0.0.2", 1, 2, "punt")
	burst := make([][]byte, netemu.MaxBurst)
	for i := range burst {
		burst[i] = frame
	}
	for left := openflow.SendQueueDepth + overflow; left > 0; left -= len(burst) {
		cs.sw.batchIn(1, burst[:min(left, len(burst))]) // empty table: every frame punts
	}
	if got := cs.sw.ControlQueueDrops(); got != overflow {
		t.Fatalf("ControlQueueDrops = %d after %d punts into a %d-deep queue, want %d",
			got, openflow.SendQueueDepth+overflow, openflow.SendQueueDepth, overflow)
	}
}

// countConn is a control connection whose controller reads everything at
// once: it counts the bytes written. Reads wait for Close.
type countConn struct {
	n      atomic.Int64
	closed chan struct{}
	once   sync.Once
}

func (c *countConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *countConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return len(p), nil
}

func (c *countConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestPuntAllocBudget: a table miss with the buffer pool full costs two
// objects, the buffered copy of the frame and the packet-in, plus a share of
// the pool's bookkeeping. The packet-in's
// data aliases the frame, because sending encodes it before the frame is
// reused; copying it, as the switch did while the writer encoded after
// send returned, cost a third.
func TestPuntAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	sw := New(Config{DPID: 0xBE, Name: "punt"})
	ctl := &countConn{closed: make(chan struct{})}
	sw.conn = openflow.NewConn(ctl)
	defer sw.conn.Close()
	frame := benchFrameFor(1, 0)
	sent := int64(len((&openflow.PacketIn{Data: frame}).AppendTo(nil)))
	var want int64
	punt := func() {
		sw.punt(1, frame)
		for want += sent; ctl.n.Load() < want; {
			runtime.Gosched()
		}
	}
	for range 2 * DefaultNumBuffers { // fill the pool: each punt now recycles a buffer
		punt()
	}
	if objects, _ := allocsPerRun(1000, punt); math.Round(objects) > 2 {
		t.Fatalf("a punt = %.3f allocs, want 2 (the buffered frame and the packet-in)", objects)
	}
	if sw.ControlQueueDrops() != 0 {
		t.Fatalf("%d packet-ins dropped", sw.ControlQueueDrops())
	}
}
