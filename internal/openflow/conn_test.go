package openflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateConn is a transport that hands each Write's batch to the test and
// holds the Write until the test releases it with the error it is to return
// (or the transport closes). Reads wait for Close.
type gateConn struct {
	batches chan []byte
	release chan error
	closed  chan struct{}
	once    sync.Once
}

func newGateConn() *gateConn {
	return &gateConn{batches: make(chan []byte), release: make(chan error), closed: make(chan struct{})}
}

func (g *gateConn) Read([]byte) (int, error) {
	<-g.closed
	return 0, io.EOF
}

func (g *gateConn) Write(p []byte) (int, error) {
	select {
	case g.batches <- append([]byte(nil), p...):
	case <-g.closed:
		return 0, io.ErrClosedPipe
	}
	select {
	case err := <-g.release:
		if err != nil {
			return 0, err
		}
		return len(p), nil
	case <-g.closed:
		return 0, io.ErrClosedPipe
	}
}

func (g *gateConn) Close() error {
	g.once.Do(func() { close(g.closed) })
	return nil
}

// batch returns the next batch the Conn's writer wrote.
func (g *gateConn) batch(t *testing.T) []byte {
	t.Helper()
	select {
	case b := <-g.batches:
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("no write")
		return nil
	}
}

// xids decodes a batch and returns the XIDs of its messages in order.
func xids(t *testing.T, batch []byte) []uint32 {
	t.Helper()
	var out []uint32
	dec := NewDecoder(bytes.NewReader(batch))
	for {
		m, err := dec.Decode()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m.XID())
	}
}

func flowModXID(xid uint32) *FlowMod {
	fm := &FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer,
		OutPort: PortNone, Actions: []Action{&ActionOutput{Port: uint16(xid)}}}
	fm.SetXID(xid)
	return fm
}

// stallWriter sends one message and waits until the writer holds it in a
// Write, so that what is sent next queues up behind it.
func stallWriter(t *testing.T, c *Conn, g *gateConn) {
	t.Helper()
	if err := c.Send(flowModXID(1000)); err != nil {
		t.Fatal(err)
	}
	if got := xids(t, g.batch(t)); len(got) != 1 || got[0] != 1000 {
		t.Fatalf("first batch %v, want [1000]", got)
	}
}

// fillQueue queues messages with TrySend while the writer is held, checks
// that the queue takes exactly SendQueueDepth of them, and that TrySend on
// the full queue then fails at once with ErrQueueFull.
func fillQueue(t *testing.T, c *Conn) {
	t.Helper()
	for i := range SendQueueDepth {
		if err := c.TrySend(flowModXID(uint32(i + 1))); err != nil {
			t.Fatalf("TrySend %d of a %d-deep queue: %v", i+1, SendQueueDepth, err)
		}
	}
	if err := c.TrySend(&Hello{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySend on a full queue: %v, want ErrQueueFull", err)
	}
}

// blockedSend starts a Send on c, whose queue is full, checks that it waits,
// and returns the channel its error arrives on.
func blockedSend(t *testing.T, c *Conn) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- c.Send(&Hello{}) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-res:
		t.Fatalf("Send on a full queue returned %v without waiting", err)
	default:
	}
	return res
}

func awaitErr(t *testing.T, res <-chan error, want error) {
	t.Helper()
	select {
	case err := <-res:
		if !errors.Is(err, want) {
			t.Fatalf("Send returned %v, want %v", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked")
	}
}

// TestConnOneWritePerBatch: what is queued while the writer is busy reaches
// the transport as one Write, in order.
func TestConnOneWritePerBatch(t *testing.T) {
	g := newGateConn()
	c := NewConn(g)
	defer c.Close()
	stallWriter(t, c, g)
	const n = 64
	for i := uint32(1); i <= n; i++ {
		if err := c.Send(flowModXID(i)); err != nil {
			t.Fatal(err)
		}
	}
	g.release <- nil
	got := xids(t, g.batch(t))
	if len(got) != n {
		t.Fatalf("second write carried %d messages, want all %d queued", len(got), n)
	}
	for i, x := range got {
		if x != uint32(i+1) {
			t.Fatalf("message %d has xid %d: out of order", i, x)
		}
	}
}

// TestConnFlushesAtBarrier: a barrier ends its batch; what is queued behind
// it goes in the next write.
func TestConnFlushesAtBarrier(t *testing.T) {
	g := newGateConn()
	c := NewConn(g)
	defer c.Close()
	stallWriter(t, c, g)
	br := &BarrierRequest{}
	br.SetXID(2)
	after := &Hello{}
	after.SetXID(3)
	for _, m := range []Message{flowModXID(1), br, after} {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	g.release <- nil
	if got := xids(t, g.batch(t)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("batch ending at the barrier: xids %v, want [1 2]", got)
	}
	g.release <- nil
	if got := xids(t, g.batch(t)); len(got) != 1 || got[0] != 3 {
		t.Fatalf("batch after the barrier: xids %v, want [3]", got)
	}
}

// TestConnWriteErrorClosesAndUnblocksSend: a failed Write closes the Conn,
// its transport with it, and a Send waiting on the full queue returns.
func TestConnWriteErrorClosesAndUnblocksSend(t *testing.T) {
	g := newGateConn()
	c := NewConn(g)
	defer c.Close()
	stallWriter(t, c, g)
	fillQueue(t, c)
	res := blockedSend(t, c)
	g.release <- errors.New("wire down")
	awaitErr(t, res, ErrClosed)
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed after a write error")
	}
	select {
	case <-g.closed:
	default:
		t.Fatal("transport not closed after a write error")
	}
	if err := c.TrySend(&Hello{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySend after a write error: %v, want ErrClosed", err)
	}
}

// TestConnCloseUnblocksSend: Close releases a Send waiting on the full
// queue, and returns only once the writer has.
func TestConnCloseUnblocksSend(t *testing.T) {
	g := newGateConn()
	c := NewConn(g)
	stallWriter(t, c, g)
	fillQueue(t, c)
	res := blockedSend(t, c)
	c.Close()
	awaitErr(t, res, ErrClosed)
	select {
	case <-c.writer:
	default:
		t.Fatal("Close returned before the writer did")
	}
	c.Close() // a second Close is harmless
}

// sinkConn counts the bytes written to it; Reads wait for Close.
type sinkConn struct {
	n      atomic.Int64
	closed chan struct{}
	once   sync.Once
}

func (s *sinkConn) Read([]byte) (int, error) {
	<-s.closed
	return 0, io.EOF
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.n.Add(int64(len(p)))
	return len(p), nil
}

func (s *sinkConn) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// TestConnSendAllocBudget: once the writer's batch buffer has grown, sending
// a burst of flow-mods and writing it out allocates nothing.
func TestConnSendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on channel operations")
	}
	sink := &sinkConn{closed: make(chan struct{})}
	c := NewConn(sink)
	defer c.Close()
	fm := allocBudgetFlowMod()
	size := int64(len(fm.AppendTo(nil)))
	var sent int64
	burst := func() {
		for range 64 {
			if err := c.Send(fm); err != nil {
				t.Fatal(err)
			}
		}
		sent += 64 * size
		for sink.n.Load() < sent {
			runtime.Gosched()
		}
	}
	burst() // grow the writer's batch buffer to working-set size
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Fatalf("Conn burst of 64 flow-mods = %.1f allocs/op, budget 0", got)
	}
}

// TestBatchedLoopsInterop runs the real thing end to end: two Conns on the
// ends of a pipe, one sending, the other decoding.
func TestBatchedLoopsInterop(t *testing.T) {
	client, server := net.Pipe()
	tx, rx := NewConn(client), NewConn(server)
	defer tx.Close()
	defer rx.Close()

	const n = 100
	go func() {
		for i := 1; i <= n; i++ {
			m := &EchoRequest{Data: []byte{byte(i)}}
			m.SetXID(uint32(i))
			if tx.Send(m) != nil {
				return
			}
		}
	}()
	for i := 1; i <= n; i++ {
		m, err := rx.Decode()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.XID() != uint32(i) || !bytes.Equal(rx.Frame(), m.AppendTo(nil)) {
			t.Fatalf("message %d: xid %d, frame %x", i, m.XID(), rx.Frame())
		}
	}
}

// TestConnSendEncodesAtSend: Send encodes before it returns, so a sender may
// change or reuse its message, and the bytes it aliases, at once; the wire
// carries what the message was at Send.
func TestConnSendEncodesAtSend(t *testing.T) {
	g := newGateConn()
	c := NewConn(g)
	defer c.Close()
	stallWriter(t, c, g)
	fm := flowModXID(1)
	data := []byte("keepalive")
	echo := &EchoRequest{Data: data}
	echo.SetXID(2)
	var want []byte
	for _, m := range []Message{fm, echo} {
		want = m.AppendTo(want)
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	// Reuse both at once: new XIDs and fields, the action rewritten in
	// place, the echo's bytes overwritten.
	fm.SetXID(3)
	fm.Priority = 9
	fm.Actions[0].(*ActionOutput).Port = 99
	echo.SetXID(4)
	copy(data, "XXXXXXXXX")
	for _, m := range []Message{fm, echo} {
		want = m.AppendTo(want)
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	g.release <- nil
	if got := g.batch(t); !bytes.Equal(got, want) {
		t.Fatalf("wire carries\n %x\nwant what each message was at its Send\n %x", got, want)
	}
}

// TestConnSendFrameChangesOnlyXID: SendFrame queues the frame with its
// transaction ID replaced and leaves the caller's frame as it was; a frame
// whose length field is not its length is refused.
func TestConnSendFrameChangesOnlyXID(t *testing.T) {
	g := newGateConn()
	c := NewConn(g)
	defer c.Close()
	stallWriter(t, c, g)
	frame := flowModXID(7).AppendTo(nil)
	orig := bytes.Clone(frame)
	if err := c.SendFrame(frame, 0xA1B2C3D4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, orig) {
		t.Fatalf("SendFrame changed the caller's frame:\n %x\nwas %x", frame, orig)
	}
	for _, bad := range [][]byte{orig[:HeaderLen-1], orig[:len(orig)-1], append(bytes.Clone(orig), 0)} {
		if err := c.SendFrame(bad, 1); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("SendFrame of a %d-byte frame claiming %d: %v, want ErrBadMessage", len(bad), len(orig), err)
		}
	}
	g.release <- nil
	got := g.batch(t)
	if len(got) != len(orig) {
		t.Fatalf("wire carries %d bytes, want the one %d-byte frame", len(got), len(orig))
	}
	for i := range got {
		if (i < 4 || i >= 8) && got[i] != orig[i] {
			t.Fatalf("byte %d of the relayed frame is %#x, was %#x", i, got[i], orig[i])
		}
	}
	if x := binary.BigEndian.Uint32(got[4:]); x != 0xA1B2C3D4 {
		t.Fatalf("relayed xid %#x, want 0xa1b2c3d4", x)
	}
}

// recConn records every byte written to it; Reads wait for Close.
type recConn struct {
	mu     sync.Mutex
	b      []byte
	closed chan struct{}
	once   sync.Once
}

func (r *recConn) Read([]byte) (int, error) {
	<-r.closed
	return 0, io.EOF
}

func (r *recConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.b = append(r.b, p...)
	return len(p), nil
}

func (r *recConn) Close() error {
	r.once.Do(func() { close(r.closed) })
	return nil
}

func (r *recConn) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return bytes.Clone(r.b)
}

// TestConnConcurrentSendersAndClose: eight goroutines feed one Conn with
// Send, TrySend and SendFrame, each reusing one message and one frame, while
// two Closes race them. Every call returns an error the contract names,
// every frame on the wire decodes whole and carries what its sender meant,
// and each sender's frames arrive in the order it sent them.
func TestConnConcurrentSendersAndClose(t *testing.T) {
	rec := &recConn{closed: make(chan struct{})}
	c := NewConn(rec)
	const senders, each = 8, 2000
	var wg sync.WaitGroup
	for g := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fm := flowModXID(0)
			var frame []byte
			for i := range each {
				xid := uint32(g)<<24 | uint32(i)
				port := uint16(xid ^ xid>>24)
				var err error
				switch i % 3 {
				case 0:
					fm.SetXID(xid)
					fm.Actions[0].(*ActionOutput).Port = port
					err = c.Send(fm)
				case 1:
					fm.SetXID(xid)
					fm.Actions[0].(*ActionOutput).Port = port
					err = c.TrySend(fm)
				default:
					fm.SetXID(0)
					fm.Actions[0].(*ActionOutput).Port = port
					frame = fm.AppendTo(frame[:0])
					err = c.SendFrame(frame, xid)
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}()
	}
	for len(rec.bytes()) == 0 {
		runtime.Gosched()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	wg.Wait()
	if err := c.Send(&Hello{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: %v, want ErrClosed", err)
	}

	wire := rec.bytes()
	dec := NewDecoder(bytes.NewReader(wire))
	last := make([]int, senders)
	for i := range last {
		last[i] = -1
	}
	n := 0
	for {
		m, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d of the wire: %v", n, err)
		}
		fm, ok := m.(*FlowMod)
		if !ok || len(fm.Actions) != 1 {
			t.Fatalf("frame %d: %v, want a one-action flow-mod", n, m)
		}
		xid := fm.XID()
		g, i := int(xid>>24), int(xid&0xffffff)
		if g >= senders || i <= last[g] {
			t.Fatalf("frame %d: xid %#x after sender %d's message %d: out of order", n, xid, g, last[g])
		}
		if port := fm.Actions[0].(*ActionOutput).Port; port != uint16(xid^xid>>24) {
			t.Fatalf("frame %d: xid %#x carries port %d, another message's bytes", n, xid, port)
		}
		last[g] = i
		n++
	}
	t.Logf("%d frames on the wire before Close", n)
}
