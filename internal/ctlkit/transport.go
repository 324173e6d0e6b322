// Package ctlkit is the controller framework both controllers in the paper's
// architecture are built on (the topology controller and the RF-controller),
// and the substrate FlowVisor reuses for its listening side. It provides:
//
//   - a transport abstraction with an in-memory implementation (MemListener,
//     whose connections are bounded, buffered byte streams: a writer hands
//     over a whole batch and goes on, and the reader drains whatever has
//     arrived) so deployments need no real TCP ports;
//   - per-switch connection handling: OpenFlow 1.0 handshake (hello,
//     features), echo keepalive, transaction-ID management and synchronous
//     request/reply helpers;
//   - an event callback surface (switch up/down, packet-in, port-status,
//     flow-removed, error) that controller applications build on. Packet-ins
//     are lent to their callback, decoded in place in the connection's read
//     buffer; every other message is owned by whoever receives it.
package ctlkit

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"routeflow/internal/openflow"
)

// ErrListenerClosed is returned by Accept after Close.
var ErrListenerClosed = errors.New("ctlkit: listener closed")

// Listener accepts switch connections. *MemListener implements it in-process.
type Listener interface {
	Accept() (net.Conn, error)
	Close() error
	Addr() string
}

// MemListener is an in-process Listener. Dial returns the client end of a
// memConn pair whose server end is handed to Accept — the emulation's
// replacement for TCP between switches, FlowVisor and controllers.
type MemListener struct {
	name string
	ch   chan net.Conn
	once sync.Once
	done chan struct{}
}

// NewMemListener creates a listener with the given display address.
func NewMemListener(name string) *MemListener {
	return &MemListener{name: name, ch: make(chan net.Conn, 16), done: make(chan struct{})}
}

// Accept returns the next dialed connection.
func (l *MemListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, ErrListenerClosed
	}
}

// Dial connects to the listener, returning the client side.
func (l *MemListener) Dial() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, fmt.Errorf("ctlkit: dial %s: %w", l.name, ErrListenerClosed)
	default:
	}
	client, server := newMemConnPair(l.Addr())
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("ctlkit: dial %s: %w", l.name, ErrListenerClosed)
	}
}

// Close stops the listener; blocked Accepts return ErrListenerClosed.
func (l *MemListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr returns the display address.
func (l *MemListener) Addr() string { return "mem://" + l.name }

// memStreamBytes bounds the bytes one direction of a memConn holds unread.
// Every control-channel writer is an openflow.Conn's, which cuts what it
// takes from its queue into writes that end with the frame passing
// DefaultFlushThreshold, however much was queued, so with twice that a
// whole batch fits beside the unread tail of the previous one and a writer
// whose peer keeps up never waits. A writer blocks only when the reader has
// fallen a full bound behind: the same backpressure as a synchronous pipe,
// with that much slack.
const memStreamBytes = 2 * openflow.DefaultFlushThreshold

// memStreamMinBytes is the first allocation of a stream's buffer, which
// then grows on demand, at least doubling, up to memStreamBytes: an idle
// connection holds little, and one that carries flow-mod bursts grows to
// what they need.
const memStreamMinBytes = 1 << 10

// memStream is one direction of a memConn: the bytes one end wrote and the
// other has not read yet. One Read and one Write run at a time, so at most
// one reader and one writer ever wait, each on its own channel, which every
// event that may let it go on signals: bytes or room, a close of either
// end, a deadline. The mutex guards the buffer and the two flags, and no
// one waits on it.
type memStream struct {
	rd, wr chan struct{} // hold a token while a Read or a Write is in progress

	mu          sync.Mutex
	buf         []byte
	r, w        int  // buf[r:w] is written and not yet read
	readerWaits bool // the reader found nothing and waits on readable
	writerWaits bool // the writer found no room and waits on writable

	readable, writable chan struct{} // capacity 1: wake the reader or writer to look again
}

func newMemStream() *memStream {
	return &memStream{
		rd:       make(chan struct{}, 1),
		wr:       make(chan struct{}, 1),
		readable: make(chan struct{}, 1),
		writable: make(chan struct{}, 1),
	}
}

// signal wakes the goroutine waiting on ch, or the next one to wait. A wake
// with nothing to find is harmless: the woken operation looks again.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put copies as much of b as the bound leaves room for and returns how much.
// When it stops short the stream is full, and the writer is to wait.
func (s *memStream) put(b []byte) int {
	s.mu.Lock()
	if len(s.buf)-s.w < len(b) && s.r > 0 {
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
	}
	if len(s.buf)-s.w < len(b) && len(s.buf) < memStreamBytes {
		size := max(memStreamMinBytes, 2*len(s.buf), s.w+len(b))
		buf := make([]byte, min(size, memStreamBytes))
		copy(buf, s.buf[:s.w])
		s.buf = buf
	}
	n := copy(s.buf[s.w:], b)
	s.w += n
	s.writerWaits = n < len(b)
	wake := n > 0 && s.readerWaits
	if wake {
		s.readerWaits = false
	}
	s.mu.Unlock()
	if wake {
		signal(s.readable)
	}
	return n
}

// take copies buffered bytes into p and returns how many. It returns 0 only
// when nothing is buffered, and the reader is then to wait.
func (s *memStream) take(p []byte) int {
	s.mu.Lock()
	n := copy(p, s.buf[s.r:s.w])
	s.r += n
	if s.r == s.w {
		s.r, s.w = 0, 0
	}
	s.readerWaits = n == 0
	wake := n > 0 && s.writerWaits
	if wake {
		s.writerWaits = false
	}
	s.mu.Unlock()
	if wake {
		signal(s.writable)
	}
	return n
}

// memConn is one end of an in-memory, full-duplex connection made of two
// memStreams. It implements net.Conn: a Read returns whatever has arrived
// and waits only when nothing has, and a Write waits only while the peer's
// stream is full. After the peer closes, Reads drain what it wrote and then
// return io.EOF, and Writes fail. Deadlines follow the net.Conn contract,
// including one set while an operation waits.
type memConn struct {
	rx, tx     *memStream
	localDone  chan struct{}
	remoteDone chan struct{}
	once       sync.Once
	addr       memAddr

	readDeadline, writeDeadline *deadline
}

func newMemConnPair(addr string) (*memConn, *memConn) {
	ab, ba := newMemStream(), newMemStream()
	aDone, bDone := make(chan struct{}), make(chan struct{})
	a := &memConn{rx: ba, tx: ab, localDone: aDone, remoteDone: bDone, addr: memAddr(addr),
		readDeadline: newDeadline(ba.readable), writeDeadline: newDeadline(ab.writable)}
	b := &memConn{rx: ab, tx: ba, localDone: bDone, remoteDone: aDone, addr: memAddr(addr),
		readDeadline: newDeadline(ab.readable), writeDeadline: newDeadline(ba.writable)}
	return a, b
}

// memAddr is a memConn's address: its listener's display address.
type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }

func (c *memConn) LocalAddr() net.Addr  { return c.addr }
func (c *memConn) RemoteAddr() net.Addr { return c.addr }

// acquire takes the token of sem, waiting while another operation holds it,
// unless this end closes or the deadline passes first.
func (c *memConn) acquire(sem chan struct{}, d *deadline) error {
	select {
	case sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case sem <- struct{}{}:
		return nil
	case <-c.localDone:
		return io.ErrClosedPipe
	case <-d.wait():
		return os.ErrDeadlineExceeded
	}
}

func (c *memConn) Read(p []byte) (int, error) {
	n, err := c.read(p)
	if err != nil && err != io.EOF && err != io.ErrClosedPipe {
		err = &net.OpError{Op: "read", Net: "mem", Err: err}
	}
	return n, err
}

func (c *memConn) read(p []byte) (int, error) {
	if err := c.acquire(c.rx.rd, c.readDeadline); err != nil {
		return 0, err
	}
	defer func() { <-c.rx.rd }()
	for {
		switch {
		case isClosed(c.localDone):
			return 0, io.ErrClosedPipe
		case isClosed(c.readDeadline.wait()):
			return 0, os.ErrDeadlineExceeded
		case len(p) == 0:
			return 0, nil
		}
		if n := c.rx.take(p); n > 0 {
			return n, nil
		}
		if isClosed(c.remoteDone) {
			// The peer's last bytes may have landed after take looked.
			if n := c.rx.take(p); n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		<-c.rx.readable
	}
}

func (c *memConn) Write(b []byte) (int, error) {
	n, err := c.write(b)
	if err != nil && err != io.ErrClosedPipe {
		err = &net.OpError{Op: "write", Net: "mem", Err: err}
	}
	return n, err
}

func (c *memConn) write(b []byte) (n int, err error) {
	if err := c.acquire(c.tx.wr, c.writeDeadline); err != nil {
		return 0, err
	}
	defer func() { <-c.tx.wr }()
	for {
		switch {
		case isClosed(c.localDone), isClosed(c.remoteDone):
			return n, io.ErrClosedPipe
		case isClosed(c.writeDeadline.wait()):
			return n, os.ErrDeadlineExceeded
		}
		n += c.tx.put(b[n:])
		if n == len(b) {
			return n, nil
		}
		<-c.tx.writable
	}
}

func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline fails only on a closed conn: after the peer closes, its
// last bytes may still be read.
func (c *memConn) SetReadDeadline(t time.Time) error {
	if isClosed(c.localDone) {
		return io.ErrClosedPipe
	}
	c.readDeadline.set(t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	if isClosed(c.localDone) {
		return io.ErrClosedPipe
	}
	c.writeDeadline.set(t)
	return nil
}

// Close closes this end. The peer drains what was written before it and
// then reads io.EOF; operations waiting on either end wake and fail.
func (c *memConn) Close() error {
	c.once.Do(func() {
		close(c.localDone)
		for _, ch := range [...]chan struct{}{c.rx.readable, c.tx.writable, c.tx.readable, c.rx.writable} {
			signal(ch)
		}
	})
	return nil
}

// deadline is one of a memConn's deadlines: a channel that is closed once
// the deadline passes, and a wake of the operation it bounds, so one that
// waits wakes even when the deadline was set after the wait began. A passed
// deadline is cleared, or moved into the future, by setting it again.
// Reading the channel takes no lock; the mutex serializes set.
type deadline struct {
	mu     sync.Mutex
	timer  *time.Timer // made by the first set in the future, then reset
	armed  bool        // timer is set and not stopped
	cancel atomic.Pointer[chan struct{}]
	wake   chan struct{} // the channel the bounded operation waits on
}

func newDeadline(wake chan struct{}) *deadline {
	d := &deadline{wake: wake}
	cancel := make(chan struct{})
	d.cancel.Store(&cancel)
	return d
}

// pass closes cancel and wakes the operation the deadline bounds.
func (d *deadline) pass() {
	close(*d.cancel.Load())
	signal(d.wake)
}

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.armed && !d.timer.Stop() {
		<-d.wait() // the timer fired: wait until its callback has closed cancel
	}
	d.armed = false
	passed := isClosed(d.wait())
	dur := time.Until(t)
	if passed && (t.IsZero() || dur > 0) {
		cancel := make(chan struct{})
		d.cancel.Store(&cancel)
	}
	switch {
	case t.IsZero():
	case dur > 0:
		if d.timer == nil {
			d.timer = time.AfterFunc(dur, d.pass)
		} else {
			d.timer.Reset(dur)
		}
		d.armed = true
	case !passed:
		d.pass()
	}
}

// wait returns the channel that is closed when the deadline passes.
func (d *deadline) wait() <-chan struct{} { return *d.cancel.Load() }

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
