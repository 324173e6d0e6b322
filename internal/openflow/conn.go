package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// DefaultFlushThreshold is the batch size, in encoded bytes, past which a
// Conn's writer stops coalescing and writes: large enough to carry a whole
// flow-mod burst (dozens of ~100-byte messages) in one write, small enough
// to keep a batch inside one socket write on any sane transport.
const DefaultFlushThreshold = 32 * 1024

// SendQueueDepth bounds the messages a Conn holds queued for its writer. A
// peer that stops reading fills it; Send then waits and TrySend fails, so a
// stalled peer costs bounded memory.
const SendQueueDepth = 1024

// ErrQueueFull is TrySend's error when the outbound queue is full.
var ErrQueueFull = errors.New("openflow: send queue full")

// ErrClosed is Send's and TrySend's error once the Conn is closed.
var ErrClosed = errors.New("openflow: connection closed")

// Conn is one end of an OpenFlow control channel: the switch's session, a
// controller's switch connection and each side of the FlowVisor proxy. It
// owns its transport. Reads go through the Conn's Decoder (Decode, Frame,
// Reads), under the Decoder's lending contract, from one goroutine. Writes
// go through a bounded queue (Send, TrySend, SendFrame) that any goroutine
// may feed.
//
// The queue holds encoded frames: Send encodes the message into it before
// it returns, so the sender may change or reuse the message, and anything
// it aliases, at once; the wire carries the message as it was at Send. One
// writer goroutine per Conn swaps the whole queue out and writes it, in
// batches cut after a barrier request or reply (the peer synchronizes on
// it) and after the frame that takes a batch past DefaultFlushThreshold
// bytes. A failed Write closes the Conn.
type Conn struct {
	rwc io.ReadWriteCloser
	dec *Decoder

	mu     sync.Mutex
	q      []byte        // encoded frames queued for the writer
	n      int           // frames in q
	room   chan struct{} // closed when q is next taken; made by a sender that waits for room
	closed bool

	wake   chan struct{} // one token: q became non-empty
	once   sync.Once
	done   chan struct{} // closed by Close or a failed write
	writer chan struct{} // closed when the writer goroutine returns
}

// NewConn returns a Conn that owns rwc and starts its writer.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	c := &Conn{
		rwc:    rwc,
		dec:    NewDecoder(rwc),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		writer: make(chan struct{}),
	}
	go c.writeLoop()
	return c
}

// Decode returns the next message, borrowed until the next Decode (see
// Decoder.Decode).
func (c *Conn) Decode() (Message, error) { return c.dec.Decode() }

// Frame returns the wire bytes of the message Decode last returned,
// borrowed like the message.
func (c *Conn) Frame() []byte { return c.dec.Frame() }

// Reads returns how many times the Decoder has read the transport (see
// Decoder.Reads).
func (c *Conn) Reads() uint64 { return c.dec.Reads() }

// Send encodes m onto the queue, waiting while the queue is full. It
// returns ErrClosed if the Conn closes first.
func (c *Conn) Send(m Message) error {
	if err := c.reserve(true); err != nil {
		return err
	}
	c.queued(m.AppendTo(c.q))
	return nil
}

// TrySend encodes m onto the queue without ever waiting: it returns
// ErrQueueFull when the queue is full and ErrClosed when the Conn is closed.
func (c *Conn) TrySend(m Message) error {
	if err := c.reserve(false); err != nil {
		return err
	}
	c.queued(m.AppendTo(c.q))
	return nil
}

// SendFrame queues a copy of frame, one whole framed message such as a
// Decoder lends, with its transaction ID set to xid; frame itself is not
// changed. It waits like Send, and refuses a frame whose length field is
// not its length with ErrBadMessage.
func (c *Conn) SendFrame(frame []byte, xid uint32) error {
	if len(frame) < HeaderLen || int(binary.BigEndian.Uint16(frame[2:])) != len(frame) {
		return fmt.Errorf("%w: frame of %d bytes", ErrBadMessage, len(frame))
	}
	if err := c.reserve(true); err != nil {
		return err
	}
	q := append(c.q, frame...)
	binary.BigEndian.PutUint32(q[len(q)-len(frame)+4:], xid)
	c.queued(q)
	return nil
}

// reserve locks the queue once it has room for one more frame, waiting for
// the writer to take it if wait is set. On success the caller holds mu and
// must call queued.
func (c *Conn) reserve(wait bool) error {
	for {
		c.mu.Lock()
		switch {
		case c.closed:
			c.mu.Unlock()
			return ErrClosed
		case c.n < SendQueueDepth:
			return nil
		case !wait:
			c.mu.Unlock()
			return ErrQueueFull
		}
		if c.room == nil {
			c.room = make(chan struct{})
		}
		room := c.room
		c.mu.Unlock()
		select {
		case <-room:
		case <-c.done:
			return ErrClosed
		}
	}
}

// queued publishes q, the queue with one more frame appended, unlocks mu
// and wakes the writer if the queue was empty.
func (c *Conn) queued(q []byte) {
	wasEmpty := c.n == 0
	c.q = q
	c.n++
	c.mu.Unlock()
	if wasEmpty {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// Close closes the transport, which ends a Decode in progress, and waits for
// the writer to return; frames still queued are dropped. It may be called
// more than once and from any goroutine.
func (c *Conn) Close() {
	c.shut()
	<-c.writer
}

// Done is closed when the Conn closes, by Close or a failed write.
func (c *Conn) Done() <-chan struct{} { return c.done }

// shut closes the Conn without waiting for the writer, which calls it.
func (c *Conn) shut() {
	c.once.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.done)
		c.rwc.Close()
	})
}

// writeLoop takes the queue whenever it is woken and writes it in batches
// until the Conn closes. It keeps the buffer the last swap returned and
// hands it back as the next empty queue, so the two buffers are reused.
func (c *Conn) writeLoop() {
	defer close(c.writer)
	var buf []byte
	for {
		select {
		case <-c.wake:
		case <-c.done:
			return
		}
		c.mu.Lock()
		buf, c.q = c.q, buf[:0]
		c.n = 0
		if c.room != nil {
			close(c.room)
			c.room = nil
		}
		c.mu.Unlock()
		for b := buf; len(b) > 0; {
			n := batchLen(b)
			if _, err := c.rwc.Write(b[:n]); err != nil {
				c.shut()
				return
			}
			b = b[n:]
		}
	}
}

// batchLen returns the length of the batch at the front of b, which holds
// whole frames, found from their length fields: up to and including the
// first barrier, or the frame that takes it past DefaultFlushThreshold
// bytes, or all of b.
func batchLen(b []byte) int {
	n := 0
	for n < len(b) {
		t := Type(b[n+1])
		n += int(binary.BigEndian.Uint16(b[n+2:]))
		if t == TypeBarrierRequest || t == TypeBarrierReply || n >= DefaultFlushThreshold {
			break
		}
	}
	return n
}
