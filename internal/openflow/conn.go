package openflow

import (
	"errors"
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
// owns its transport. Reads go through the Conn's Decoder (Decode, Frame),
// under the Decoder's lending contract, from one goroutine. Writes go
// through a bounded queue (Send, TrySend) that any goroutine may feed. One
// writer goroutine per Conn drains it: after taking a message it takes
// whatever else is already queued, up to DefaultFlushThreshold bytes, and
// writes the batch in one Write. A barrier request or reply ends its batch,
// since the peer synchronizes on it. A failed Write closes the Conn.
//
// Messages are encoded by the writer, after Send returns, so a sender hands
// over the message and must not change it afterwards. A *Raw re-encodes its
// stored body byte for byte, so a proxy relays a frame without re-encoding
// it.
type Conn struct {
	rwc io.ReadWriteCloser
	dec *Decoder
	out chan Message

	once   sync.Once
	done   chan struct{} // closed by Close or a failed write
	writer chan struct{} // closed when the writer goroutine returns
}

// NewConn returns a Conn that owns rwc and starts its writer.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	c := &Conn{
		rwc:    rwc,
		dec:    NewDecoder(rwc),
		out:    make(chan Message, SendQueueDepth),
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

// Send queues m for the writer, waiting while the queue is full. It returns
// ErrClosed if the Conn closes first.
func (c *Conn) Send(m Message) error {
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

// TrySend queues m for the writer without ever waiting: it returns
// ErrQueueFull when the queue is full and ErrClosed when the Conn is closed.
func (c *Conn) TrySend(m Message) error {
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return ErrClosed
	default:
		return ErrQueueFull
	}
}

// Close closes the transport, which ends a Decode in progress, and waits for
// the writer to return; messages still queued are dropped. It may be called
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
		close(c.done)
		c.rwc.Close()
	})
}

// writeLoop writes queued messages in batches until the Conn closes.
func (c *Conn) writeLoop() {
	defer close(c.writer)
	var buf []byte
	for {
		select {
		case m := <-c.out:
			buf = m.AppendTo(buf[:0])
		drain:
			for !isBarrier(m) && len(buf) < DefaultFlushThreshold {
				select {
				case m = <-c.out:
					buf = m.AppendTo(buf)
				default:
					break drain
				}
			}
			if _, err := c.rwc.Write(buf); err != nil {
				c.shut()
				return
			}
		case <-c.done:
			return
		}
	}
}

// isBarrier reports whether m ends a write batch.
func isBarrier(m Message) bool {
	t := m.MsgType()
	return t == TypeBarrierRequest || t == TypeBarrierReply
}
