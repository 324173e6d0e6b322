package ctlkit

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"routeflow/internal/openflow"
)

// pattern returns n stream bytes starting at offset off, each distinct from
// its neighbours so a reordered, lost or repeated chunk shows.
func pattern(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		x := off + i
		b[i] = byte(x ^ x>>8 ^ x>>16)
	}
	return b
}

// done reports whether ch yields within a second.
func done[T any](ch <-chan T) (T, bool) {
	select {
	case v := <-ch:
		return v, true
	case <-time.After(time.Second):
		var zero T
		return zero, false
	}
}

func TestMemConnReaderDrainsThenEOF(t *testing.T) {
	a, b := newMemConnPair("t")
	want := pattern(0, 3000)
	if _, err := a.Write(want); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := b.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatalf("read deadline on a conn whose peer closed: %v", err)
	}
	got, err := io.ReadAll(b)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes, err %v; want the %d written, then EOF", len(got), err, len(want))
	}
	if _, err := b.Write([]byte{1}); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
	if _, err := a.Read(make([]byte, 1)); err != io.ErrClosedPipe {
		t.Fatalf("read on a closed conn: %v", err)
	}
}

// A Write larger than the bound hands over what fits, waits for the reader,
// and returns once all of it is taken; a Write the peer's close interrupts
// wakes and fails.
func TestMemConnWriteWaitsOnlyAtTheBound(t *testing.T) {
	a, b := newMemConnPair("t")
	if _, err := a.Write(pattern(0, memStreamBytes)); err != nil {
		t.Fatalf("a write of the bound blocked or failed: %v", err)
	}
	wrote := make(chan error, 1)
	go func() { _, err := a.Write(pattern(memStreamBytes, 100)); wrote <- err }()
	select {
	case <-wrote:
		t.Fatal("a write past the bound did not wait for the reader")
	case <-time.After(20 * time.Millisecond):
	}
	got := make([]byte, memStreamBytes+100)
	if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, pattern(0, len(got))) {
		t.Fatalf("read back: %v", err)
	}
	if err, ok := done(wrote); !ok || err != nil {
		t.Fatalf("waiting write: returned %v, err %v", ok, err)
	}

	go func() { _, err := a.Write(pattern(0, 2*memStreamBytes)); wrote <- err }()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	if err, ok := done(wrote); !ok || err == nil {
		t.Fatalf("write blocked on a peer that closed: returned %v, err %v", ok, err)
	}
}

// A deadline set while a Read or Write waits still wakes it, with an error
// that is os.ErrDeadlineExceeded and a net.Error timeout; clearing the
// deadline makes the conn usable again.
func TestMemConnDeadlineSetWhileBlocked(t *testing.T) {
	a, b := newMemConnPair("t")
	read := make(chan error, 1)
	go func() { _, err := b.Read(make([]byte, 8)); read <- err }()
	time.Sleep(10 * time.Millisecond)
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	err, ok := done(read)
	var ne net.Error
	if !ok || !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("blocked read after deadline: returned %v, err %v", ok, err)
	}
	b.SetReadDeadline(time.Time{})
	a.Write([]byte("hi"))
	if n, err := b.Read(make([]byte, 8)); n != 2 || err != nil {
		t.Fatalf("read after clearing the deadline: %d, %v", n, err)
	}
	b.SetReadDeadline(time.Now().Add(time.Hour))
	b.SetReadDeadline(time.Now().Add(10 * time.Millisecond)) // moved in, while armed
	if _, err := b.Read(make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past a re-armed deadline: %v", err)
	}

	a.Write(pattern(0, memStreamBytes))
	wrote := make(chan error, 1)
	go func() { _, err := a.Write([]byte{1}); wrote <- err }()
	time.Sleep(10 * time.Millisecond)
	a.SetWriteDeadline(time.Now().Add(-time.Second))
	if err, ok := done(wrote); !ok || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blocked write after deadline: returned %v, err %v", ok, err)
	}
}

// FuzzMemPipe runs a schedule of writes (up to three bounds of bytes in
// all), reads of any size, and a close by the writer or the reader, and
// checks the stream against a reference: the bytes read are a prefix of the
// bytes written, in order; after the writer closes the reader drains all of
// them and then reads io.EOF; after the reader closes, the writer fails
// instead of waiting; and no operation hangs.
func FuzzMemPipe(f *testing.F) {
	f.Add([]byte{0, 0x10, 0, 1, 0, 8, 0})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 1, 0, 0, 2})
	f.Add([]byte{1, 0x80, 0, 0x80, 0, 0x80, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		readerCloses := data[0]&1 == 1
		data = data[1:]
		var writes, reads []int
		total := 0
		for len(data) >= 3 {
			size := (int(data[1])<<8 | int(data[2])) % (memStreamBytes + 1)
			if data[0]&1 == 0 && total < 3*memStreamBytes {
				size = min(size, 3*memStreamBytes-total)
				writes = append(writes, size)
				total += size
			} else {
				reads = append(reads, size)
			}
			data = data[3:]
		}

		w, r := newMemConnPair("fuzz")
		type result struct {
			n   int
			err error
		}
		wrote := make(chan result, 1)
		go func() {
			n := 0
			for _, size := range writes {
				k, err := w.Write(pattern(n, size))
				n += k
				if err != nil {
					wrote <- result{n, err}
					return
				}
			}
			if !readerCloses {
				w.Close()
			}
			wrote <- result{n, nil}
		}()

		var got []byte
		readErr := make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				size := 4096
				if i < len(reads) && !(readerCloses && len(got) == total) {
					size = reads[i]
				} else if readerCloses {
					r.Close()
					_, err := r.Read(make([]byte, 1))
					if err != io.ErrClosedPipe {
						readErr <- errors.New("read on a closed conn did not fail")
						return
					}
					readErr <- nil
					return
				}
				buf := make([]byte, size)
				n, err := r.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF && n == 0 {
					readErr <- nil
					return
				}
				if err != nil {
					readErr <- err
					return
				}
			}
		}()

		err, ok := done(readErr)
		if !ok {
			t.Fatalf("a read hung: %d of %d bytes read", len(got), total)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, ok := done(wrote)
		if !ok {
			t.Fatalf("a write hung after the reader finished (reader closes: %v)", readerCloses)
		}
		if !bytes.Equal(got, pattern(0, len(got))) || len(got) > res.n {
			t.Fatalf("read %d bytes that are not a prefix of the %d written", len(got), res.n)
		}
		switch {
		case !readerCloses && (res.err != nil || len(got) != total):
			t.Fatalf("writer closed: read %d of %d bytes, write error %v", len(got), total, res.err)
		case readerCloses && res.err != nil && res.err != io.ErrClosedPipe:
			t.Fatalf("write to a closed reader: %v", res.err)
		case readerCloses && res.err == nil && res.n != total:
			t.Fatalf("writer reported success after %d of %d bytes", res.n, total)
		}
	})
}

// TestPacketInDispatchAllocBudget gates the lent packet-in path: frames a
// switch writes into a MemListener conn reach the PacketIn callback without
// an allocation, read by the stream, cut and decoded in place by the
// Decoder and dispatched.
func TestPacketInDispatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	const dpid, batch = 0x42, 8
	seen := make(chan struct{}, batch)
	ctl := New("test", nil, Callbacks{
		PacketIn: func(*SwitchConn, *openflow.PacketIn) { seen <- struct{}{} },
	}, WithEchoInterval(0))
	l := NewMemListener("ctl")
	defer l.Close()
	go ctl.Serve(l)
	defer ctl.Stop()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go io.Copy(io.Discard, conn) // the controller's hello and features request
	hello := (&openflow.Hello{}).AppendTo(nil)
	if _, err := conn.Write(append(hello, (&openflow.FeaturesReply{DatapathID: dpid}).AppendTo(nil)...)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "switch up", func() bool { _, ok := ctl.Switch(dpid); return ok })

	var frames []byte
	for i := 0; i < batch; i++ {
		frames = (&openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1,
			Data: pattern(i, 60+i*40)}).AppendTo(frames)
	}
	send := func() {
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			<-seen
		}
	}
	for i := 0; i < 16; i++ { // warm the stream, the Decoder and its store
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg > 0 {
		t.Fatalf("packet-in dispatch = %.2f allocs per batch of %d, budget 0", avg, batch)
	}
}
