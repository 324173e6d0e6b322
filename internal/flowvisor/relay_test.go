package flowvisor

import (
	"encoding/binary"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

// loopPipe is the far end of one of a session's connections, in memory:
// Reads take what feed queued, and each Write is handed to onWrite on the
// Conn's writer goroutine.
type loopPipe struct {
	mu      sync.Mutex
	buf     []byte
	ready   chan struct{} // one token: buf became non-empty
	closed  chan struct{}
	once    sync.Once
	onWrite func(p []byte)
}

func newLoopPipe(onWrite func(p []byte)) *loopPipe {
	return &loopPipe{ready: make(chan struct{}, 1), closed: make(chan struct{}), onWrite: onWrite}
}

func (p *loopPipe) feed(b []byte) {
	p.mu.Lock()
	p.buf = append(p.buf, b...)
	p.mu.Unlock()
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

func (p *loopPipe) Read(b []byte) (int, error) {
	for {
		p.mu.Lock()
		if len(p.buf) > 0 {
			n := copy(b, p.buf)
			p.buf = p.buf[:copy(p.buf, p.buf[n:])]
			p.mu.Unlock()
			return n, nil
		}
		p.mu.Unlock()
		select {
		case <-p.ready:
		case <-p.closed:
			return 0, io.EOF
		}
	}
}

func (p *loopPipe) Write(b []byte) (int, error) {
	select {
	case <-p.closed:
		return 0, io.ErrClosedPipe
	default:
	}
	p.onWrite(b)
	return len(b), nil
}

func (p *loopPipe) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

// relayRig is one proxy session between in-memory slice controllers (topo,
// rf) and a switch that answers every barrier request at once and counts
// the flow-mods it is sent.
type relayRig struct {
	s        *session
	rf       *loopPipe
	flowMods atomic.Uint64
	wg       sync.WaitGroup
}

func newRelayRig(t *testing.T) *relayRig {
	r := &relayRig{}
	var sw *loopPipe
	sw = newLoopPipe(func(b []byte) {
		for len(b) > 0 {
			n := int(binary.BigEndian.Uint16(b[2:]))
			switch openflow.Type(b[1]) {
			case openflow.TypeFlowMod:
				r.flowMods.Add(1)
			case openflow.TypeBarrierRequest:
				rep := [openflow.HeaderLen]byte{openflow.Version, byte(openflow.TypeBarrierReply), 0, openflow.HeaderLen}
				copy(rep[4:], b[4:8])
				sw.feed(rep[:])
			}
			b = b[n:]
		}
	})
	fv := New("fv", []Slice{LLDPSlice("topo", nil), DefaultSlice("rf", nil)})
	r.s = newSession(fv, sw)
	r.rf = newLoopPipe(func([]byte) {})
	r.s.ctls = []*openflow.Conn{openflow.NewConn(newLoopPipe(func([]byte) {})), openflow.NewConn(r.rf)}
	r.wg.Add(3)
	go func() { defer r.wg.Done(); r.s.switchReadLoop() }()
	for i := range r.s.ctls {
		go func() { defer r.wg.Done(); r.s.controllerReadLoop(i) }()
	}
	t.Cleanup(func() {
		r.s.close()
		r.wg.Wait()
	})
	return r
}

// send has the rf controller write burst, a batch of n flow-mods, and waits
// until the switch has been sent all of them.
func (r *relayRig) send(burst []byte, n uint64) {
	want := r.flowMods.Load() + n
	r.rf.feed(burst)
	for r.flowMods.Load() < want {
		runtime.Gosched()
	}
}

// TestRelayAllocBudget: on a warm session, relaying a burst of rf-shaped
// flow-mods from a controller to the switch allocates nothing per message.
// The flow-mods carry no barrier, as rf's do not, so every fenceEvery of them
// the proxy queues a barrier of its own (one object) and the switch's reply
// fences the transaction-ID map, which was made for a whole window.
func TestRelayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	r := newRelayRig(t)
	const n = 64
	var burst []byte
	for i := range n {
		fm := flowMod(132, 0)
		fm.Match.Wildcards &^= openflow.WildcardDlType
		fm.Match.DlType = uint16(pkt.EtherTypeIPv4)
		fm.Match.SetNwDstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24))
		fm.Actions = []openflow.Action{
			&openflow.ActionSetDlSrc{Addr: pkt.LocalMAC(1)},
			&openflow.ActionSetDlDst{Addr: pkt.LocalMAC(2)},
			&openflow.ActionOutput{Port: 2},
		}
		fm.SetXID(uint32(i + 1))
		burst = fm.AppendTo(burst)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 4 * fenceEvery / n { // warm: buffers, queues and four fences
		r.send(burst, n)
	}
	const runs = 8 * fenceEvery / n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		r.send(burst, n)
	}
	runtime.ReadMemStats(&after)
	perBurst := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("relaying %d flow-mods: %.3f allocs (the proxy's barrier is %.3f)", n, perBurst, float64(n)/fenceEvery)
	if perBurst > float64(n)/fenceEvery {
		t.Fatalf("relaying %d flow-mods = %.3f allocs, budget %.3f (the proxy's own barrier every %d)",
			n, perBurst, float64(n)/fenceEvery, fenceEvery)
	}
}
