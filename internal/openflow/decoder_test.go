package openflow

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/iotest"
)

// chunkReader returns b in chunks whose lengths are the bytes of cuts plus
// one, used in turn.
type chunkReader struct {
	b    []byte
	cuts []byte
	i    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := min(int(r.cuts[r.i%len(r.cuts)])+1, len(p), len(r.b))
	r.i++
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// countingReader counts the Read calls made on r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	return r.r.Read(p)
}

// streamFrames returns the seed messages framed back to back, with frames
// larger than the Decoder's whole buffer among them, and each frame on its
// own.
func streamFrames() (stream []byte, frames [][]byte) {
	seeds := seedMessages()
	big := &PacketIn{BufferID: NoBuffer, InPort: 1, Data: bytes.Repeat([]byte{0x5A}, 3*decoderReadSize)}
	huge := &EchoRequest{Data: bytes.Repeat([]byte{0xA5}, MaxMessageLen-HeaderLen)}
	msgs := append([]Message{}, seeds[:4]...)
	msgs = append(msgs, big, huge)
	msgs = append(msgs, seeds[4:]...)
	for _, m := range append(msgs, big) {
		start := len(stream)
		stream = m.AppendTo(stream)
		frames = append(frames, stream[start:])
	}
	return stream, frames
}

// checkDecodesFrames decodes r to its end and requires exactly what
// Unmarshal gives for each frame, then io.EOF.
func checkDecodesFrames(t *testing.T, r io.Reader, frames [][]byte) {
	t.Helper()
	dec := NewDecoder(r)
	for i, f := range frames {
		want, err := Unmarshal(f)
		if err != nil {
			t.Fatalf("frame %d: Unmarshal: %v", i, err)
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("frame %d (%v, %d bytes): %v", i, want.MsgType(), len(f), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %v, want %v", i, got, want)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestDecoderChunking decodes one stream through readers that hand it over
// in different chunkings; each must give the messages Unmarshal gives frame
// by frame.
func TestDecoderChunking(t *testing.T) {
	stream, frames := streamFrames()
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 97)
	rng.Read(random)
	for name, r := range map[string]io.Reader{
		"whole":         bytes.NewReader(stream),
		"one byte":      iotest.OneByteReader(bytes.NewReader(stream)),
		"half":          iotest.HalfReader(bytes.NewReader(stream)),
		"data with EOF": iotest.DataErrReader(bytes.NewReader(stream)),
		"random chunks": &chunkReader{b: stream, cuts: random},
		"header splits": &chunkReader{b: stream, cuts: []byte{2, 4, 0}},
	} {
		t.Run(name, func(t *testing.T) { checkDecodesFrames(t, r, frames) })
	}
}

// TestDecoderFrameLargerThanBuffer puts a frame larger than the Decoder's
// buffer between small ones, arriving whole and a byte at a time.
func TestDecoderFrameLargerThanBuffer(t *testing.T) {
	small := (&BarrierRequest{}).AppendTo(nil)
	big := (&EchoRequest{Data: bytes.Repeat([]byte{7}, 5*decoderReadSize)}).AppendTo(nil)
	stream := append(append(append([]byte(nil), small...), big...), small...)
	if len(big) <= len(NewDecoder(nil).buf) {
		t.Fatalf("frame of %d bytes fits the decoder's buffer", len(big))
	}
	frames := [][]byte{small, big, small}
	checkDecodesFrames(t, bytes.NewReader(stream), frames)
	checkDecodesFrames(t, iotest.OneByteReader(bytes.NewReader(stream)), frames)
}

// TestDecoderEOF pins the end-of-stream contract: io.EOF unwrapped between
// frames, an error wrapping io.ErrUnexpectedEOF (and not io.EOF) inside one.
func TestDecoderEOF(t *testing.T) {
	hello := (&Hello{}).AppendTo(nil)
	echo := (&EchoRequest{Data: []byte("0123456789")}).AppendTo(nil)
	for _, tc := range []struct {
		name   string
		stream []byte
		frames int // whole frames before the end
		clean  bool
	}{
		{"empty", nil, 0, true},
		{"after a frame", hello, 1, true},
		{"inside a header", echo[:3], 0, false},
		{"after a header", echo[:HeaderLen], 0, false},
		{"inside a body", echo[:12], 0, false},
		{"inside a header after a frame", append(append([]byte(nil), hello...), echo[:5]...), 1, false},
		{"inside a body after a frame", append(append([]byte(nil), hello...), echo[:15]...), 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range []io.Reader{
				bytes.NewReader(tc.stream),
				iotest.OneByteReader(bytes.NewReader(tc.stream)),
				iotest.DataErrReader(bytes.NewReader(tc.stream)),
			} {
				dec := NewDecoder(r)
				for i := 0; i < tc.frames; i++ {
					if _, err := dec.Decode(); err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
				}
				_, err := dec.Decode()
				if tc.clean && err != io.EOF {
					t.Fatalf("got %v, want io.EOF", err)
				}
				if !tc.clean && (err == io.EOF || errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF)) {
					t.Fatalf("got %v, want an error wrapping io.ErrUnexpectedEOF", err)
				}
				if _, again := dec.Decode(); again == nil {
					t.Fatal("Decode after the end of stream succeeded")
				}
			}
		})
	}
}

// TestDecoderReadErrorsAndBadLength: a transport error is wrapped, and a
// length field below the header size is a bad message, not a read.
func TestDecoderReadErrorsAndBadLength(t *testing.T) {
	wire := errors.New("wire down")
	dec := NewDecoder(io.MultiReader(bytes.NewReader((&Hello{}).AppendTo(nil)), iotest.ErrReader(wire)))
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); !errors.Is(err, wire) {
		t.Fatalf("got %v, want the reader's error", err)
	}
	dec = NewDecoder(bytes.NewReader(frame(Version, TypeHello, 4, 1, nil)))
	if _, err := dec.Decode(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("length field 4: got %v, want ErrBadMessage", err)
	}
}

// TestDecoderReadsBatchInFewReads pins what the buffered Decoder is for: one
// batch of 256 flow-mods written in one Write, as a Conn's writer does, over
// net.Pipe, where every Read is a rendezvous with the writing goroutine, is
// consumed in at most ceil(bytes/decoderReadSize)+1 Read calls instead of two
// per message.
func TestDecoderReadsBatchInFewReads(t *testing.T) {
	const n = 256
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	var batch []byte
	for i := 1; i <= n; i++ {
		fm := &FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer,
			OutPort: PortNone, Actions: []Action{&ActionOutput{Port: uint16(i)}}}
		fm.SetXID(uint32(i))
		batch = fm.AppendTo(batch)
	}
	total := len(batch)
	if total > DefaultFlushThreshold {
		t.Fatalf("%d bytes of flow-mods do not fit one batch", total)
	}
	go client.Write(batch) //nolint:errcheck

	cr := &countingReader{r: server}
	dec := NewDecoder(cr)
	for i := 1; i <= n; i++ {
		m, err := dec.Decode()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.XID() != uint32(i) {
			t.Fatalf("message %d: xid %d", i, m.XID())
		}
	}
	if limit := (total+decoderReadSize-1)/decoderReadSize + 1; cr.reads > limit {
		t.Fatalf("%d flow-mods (%d bytes) took %d reads, want at most %d", n, total, cr.reads, limit)
	}
	if got := dec.Reads(); got != uint64(cr.reads) {
		t.Fatalf("Decoder.Reads() = %d, its reader saw %d", got, cr.reads)
	}
}
