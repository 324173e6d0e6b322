package main

import (
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe. The machines this benchmark runs on are a few virtual
// cores of a shared host: with nothing changed, everything CPU-bound runs 1.5
// to 2 times slower for minutes at a time when a neighbour is busy, and for
// tens of milliseconds at a time in between. No run length averages that
// away, so every CPU-bound figure the benchmark bounds is measured in slices,
// a fixed piece of work is timed beside each slice, and the slice is reported
// as it would have read on the undisturbed machine: its time divided by how
// many times slower than its reference the probe ran.
//
// The probe is three kinds of work a packet path is made of: arithmetic on an
// L1-resident buffer, one load per cache line over a 16 MB buffer, and
// dependent-address loads at random over the same buffer. It runs on two
// threads at once (the workloads keep two cores busy) while the workload
// stands still, and takes about 5 ms.
type probeBuf struct {
	small []uint64
	big   []uint64
	idx   uint64
	sink  uint64
}

// probeBig is the size of the probe's large buffer in bytes.
const probeBig = 16 << 20

// newProbeBuf maps the large buffer outside the Go heap: 32 MB of live heap
// would double the heap the collector lets the program grow to between two
// cycles, and the workloads would pay for fewer collections than they do
// without the probe.
func newProbeBuf() *probeBuf {
	p := &probeBuf{small: make([]uint64, 2048), idx: 1}
	mem, err := syscall.Mmap(-1, 0, probeBig, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bench: mapping the speed probe's buffer: " + err.Error())
	}
	p.big = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeBig/8)
	for i := range p.big {
		p.big[i] = uint64(i)
	}
	return p
}

// Reference times of the probe's three parts: what they take on the machine
// this was built on when it is quiet. Only their ratios to one another matter
// to a comparison of two commits; their size makes a slowdown of 1 mean
// "undisturbed", so that normalised figures read like measured ones.
const (
	refALU    = 1450 * time.Microsecond
	refStream = 1750 * time.Microsecond
	refRandom = 1300 * time.Microsecond
)

// run does the fixed work once and returns how many times slower than the
// reference it ran: the weighted geometric mean over the three parts, half
// arithmetic and half memory. Of the mixes tried over sixty runs of the three
// traffic workloads, through quiet and slow stretches of the machine, this
// one left the least run-to-run movement in all three (arithmetic alone slows
// by more than a packet path does, memory alone by less).
func (p *probeBuf) run() float64 {
	t0 := time.Now()
	s := p.sink
	for k := 0; k < 1000; k++ {
		for i := range p.small {
			s += p.small[i]*31 + uint64(k)
			p.small[i] = s
		}
	}
	t1 := time.Now()
	for i := 0; i < len(p.big); i += 8 {
		s += p.big[i]
	}
	t2 := time.Now()
	idx := p.idx
	for k := 0; k < 100000; k++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		s += p.big[idx>>43]
	}
	t3 := time.Now()
	p.idx, p.sink = idx, s
	alu := float64(t1.Sub(t0)) / float64(refALU)
	stream := float64(t2.Sub(t1)) / float64(refStream)
	random := float64(t3.Sub(t2)) / float64(refRandom)
	return math.Sqrt(alu) * math.Sqrt(math.Sqrt(stream*random))
}

var (
	probeOnce sync.Once
	probeBufs [2]*probeBuf
)

// slowdown runs the probe on two threads at once and returns the mean of
// their readings: how many times slower than the undisturbed machine this
// one is right now. The caller has brought the workload to a standstill.
func slowdown() float64 {
	probeOnce.Do(func() {
		for i := range probeBufs {
			probeBufs[i] = newProbeBuf()
		}
	})
	var wg sync.WaitGroup
	var reading [len(probeBufs)]float64
	for i, p := range probeBufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reading[i] = p.run()
		}()
	}
	wg.Wait()
	return mean(reading[:])
}
