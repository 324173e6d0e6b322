package openflow

import (
	"bytes"
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

// TestConnConcurrentSendersAndClose: senders on several goroutines, with
// Send and TrySend, race two Closes; every call returns, and each error is
// one the contract names.
func TestConnConcurrentSendersAndClose(t *testing.T) {
	sink := &sinkConn{closed: make(chan struct{})}
	c := NewConn(sink)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				var err error
				if (g+i)%2 == 0 {
					err = c.Send(flowModXID(uint32(i + 1)))
				} else {
					err = c.TrySend(flowModXID(uint32(i + 1)))
				}
				if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	wg.Wait()
	if err := c.Send(&Hello{}); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: %v", err)
	}
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
