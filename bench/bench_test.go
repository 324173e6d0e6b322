package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"routeflow/internal/openflow"
	"routeflow/internal/pkt"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := newSamples(0)
	for i := 100; i >= 1; i-- { // 1..100, added in reverse
		s.add(int64(i))
	}
	for p, want := range map[float64]int64{50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100, 0.5: 1} {
		if got := s.percentile(p); got != want {
			t.Errorf("p%v of 1..100 = %d, want %d", p, got, want)
		}
	}
	if got := newSamples(0).percentile(50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{50: 0, 99: 0, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9, 100000: 99.99} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// loopback is a stream whose datagrams cross a queue to a goroutine that
// hands them to the receiver, as a cable's delivery goroutine does.
func loopback(flows int, drop func(seq uint32) bool) (*traffic, func()) {
	type dgram struct {
		flow  int
		seq   uint32
		stamp int64
		phase uint8
	}
	tr := newTraffic(flows)
	queue := make(chan dgram, 4*windowSize)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range queue {
			tr.rx.accept(d.flow, d.seq, d.stamp, d.phase, true)
		}
	}()
	tr.send = func(flow int, seq uint32, stamp int64, phase uint8) bool {
		if drop == nil || !drop(seq) {
			queue <- dgram{flow, seq, stamp, phase}
		}
		return true
	}
	return tr, func() { close(queue); <-done }
}

func TestClosedLoopNeverExceedsItsWindow(t *testing.T) {
	tr, stop := loopback(8, nil)
	defer stop()
	res := tr.closedLoop(150 * time.Millisecond)
	if res.maxInFlight > windowSize {
		t.Errorf("%d datagrams in flight, window is %d", res.maxInFlight, windowSize)
	}
	if res.sent < 10*windowSize {
		t.Errorf("only %d datagrams sent: the loop never cycled its window", res.sent)
	}
	if res.lost() != 0 || res.bad != 0 || res.delivered != res.sent {
		t.Errorf("sent %d, delivered %d, bad %d on a lossless path", res.sent, res.delivered, res.bad)
	}
}

func TestClosedLoopSlicesCarryTheProbesReading(t *testing.T) {
	tr, stop := loopback(8, nil)
	defer stop()
	res := tr.closedLoop(250 * time.Millisecond)
	if n := len(res.segPPS); n < 2 || len(res.segCPUns) != n || len(res.segSlow) != n || len(res.segRawPPS) != n {
		t.Fatalf("%d/%d/%d/%d slice figures over 250 ms, want the same two or more of each",
			len(res.segPPS), len(res.segCPUns), len(res.segSlow), len(res.segRawPPS))
	}
	for i, slow := range res.segSlow {
		if slow < 0.1 || slow > 100 {
			t.Errorf("slice %d: the probe read %v times its reference", i, slow)
		}
		if got, want := res.segPPS[i], res.segRawPPS[i]*slow; got != want {
			t.Errorf("slice %d: goodput %v is not the measured %v times the reading %v", i, got, res.segRawPPS[i], slow)
		}
	}
	// Every slice ends with the path empty, so nothing is lost at the seams,
	// and the probes' own time is not counted as the loop's.
	if res.delivered != res.sent || res.busy >= res.wall {
		t.Errorf("sent %d, delivered %d; busy %v of %v", res.sent, res.delivered, res.busy, res.wall)
	}
}

func TestClosedLoopWritesOffLossAndChecksSequence(t *testing.T) {
	tr, stop := loopback(1, func(seq uint32) bool { return seq == 5 })
	defer stop()
	res := tr.closedLoop(20 * time.Millisecond)
	if res.lost() != 1 {
		t.Errorf("lost %d, want the one dropped datagram", res.lost())
	}
	// A datagram that arrives twice, or behind a later one of its flow,
	// fails the per-flow sequence check.
	_, bad0 := tr.rx.snapshot()
	tr.rx.accept(0, 0, 0, tr.phase, true)
	if _, bad := tr.rx.snapshot(); bad != bad0+1 {
		t.Errorf("a replayed sequence number was accepted")
	}
	tr.rx.accept(0, 1<<30, 0, tr.phase, false)
	if _, bad := tr.rx.snapshot(); bad != bad0+2 {
		t.Errorf("a datagram with bad content was accepted")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	tr, stop := loopback(4, nil)
	defer stop()
	res := tr.openLoop(2000, 100*time.Millisecond)
	if res.sent != 200 || res.delivered != 200 {
		t.Fatalf("sent %d delivered %d, want 200 of each", res.sent, res.delivered)
	}
	if res.latency.count() != 200 || res.late.count() != 200 {
		t.Errorf("%d latency and %d lateness samples, want 200 of each", res.latency.count(), res.late.count())
	}
	// Latency counts from the due time, so it can never be below the
	// generator's own lateness in sending.
	if res.latency.percentile(100) < res.late.percentile(50) {
		t.Errorf("max latency %d ns below median lateness %d ns", res.latency.percentile(100), res.late.percentile(50))
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "walk", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "codec", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "codec", Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "apply", Start: 90, End: 140}, // clipped to its parent
		{ID: 5, Parent: 3, Name: "alloc", Start: 25, End: 35},  // grandchild: charged to codec, not walk
		{ID: 6, Parent: 1, Name: "never-ended", Start: 5, End: -1},
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	want := map[string]layerTime{
		"walk":  {Name: "walk", Count: 1, Total: 100, SelfNs: 100 - 40 - 10},
		"codec": {Name: "codec", Count: 2, Total: 50, SelfNs: 50 - 10},
		"apply": {Name: "apply", Count: 1, Total: 50, SelfNs: 50},
		"alloc": {Name: "alloc", Count: 1, Total: 10, SelfNs: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v\nwant %+v", got, want)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", 0, 0)) // a nil recorder records nothing and does not panic
}

func TestOutageFromMissingSequenceNumbers(t *testing.T) {
	// Datagram i is due at 1000 + 10*i. The fault strikes at 1025; 3..6 and
	// 8 are lost, the window closes at 1100 (datagram 10 is outside it).
	delivered := []bool{true, true, true, false, false, false, false, true, false, true, false, true}
	d, lost := outage(delivered, 1000, 10, 1025, 1100)
	if want := time.Duration(1080 - 1025); d != want || lost != 5 {
		t.Errorf("outage = %v with %d lost, want %v with 5", d, lost, want)
	}
	if d, lost := outage(delivered, 1000, 10, 1085, 1100); d != 0 || lost != 0 {
		t.Errorf("a window that lost nothing reports outage %v, %d lost", d, lost)
	}
	if d, lost := outage(delivered, 1000, 10, 1095, 5000); d != time.Duration(1100-1095) || lost != 1 {
		t.Errorf("window past the stream's end: outage %v, %d lost", d, lost)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := genUDPFlows(7, 64, 18), genUDPFlows(7, 64, 18); !reflect.DeepEqual(a, b) {
		t.Error("genUDPFlows differs between two calls with one seed")
	}
	if a, b := genUDPFlows(7, 64, 18), genUDPFlows(8, 64, 18); reflect.DeepEqual(a.srcPort, b.srcPort) {
		t.Error("genUDPFlows gives the same ports for two seeds")
	}
	ports := map[uint16]bool{}
	for _, p := range genUDPFlows(7, 64, 18).srcPort {
		ports[p] = true
	}
	if len(ports) != 64 {
		t.Errorf("%d distinct source ports for 64 flows", len(ports))
	}
	a, b, c := genChurn(7, 128, 16, 256, 128), genChurn(7, 128, 16, 256, 128), genChurn(8, 128, 16, 256, 128)
	if !reflect.DeepEqual(a, b) {
		t.Error("genChurn differs between two calls with one seed")
	}
	if reflect.DeepEqual(a.schedule, c.schedule) || reflect.DeepEqual(a.frames, c.frames) {
		t.Error("genChurn gives the same schedule or frames for two seeds")
	}
	if len(a.rules[0]) != 128 || len(a.rules[1]) != 128 || len(a.frames) != 256 || len(a.frames[0]) != 128 {
		t.Errorf("genChurn sizes: %d/%d rules, %d frames of %d bytes", len(a.rules[0]), len(a.rules[1]), len(a.frames), len(a.frames[0]))
	}
	// The churn leaves every table at its starting size after a whole cycle.
	size := [2]int{}
	for _, op := range a.ops {
		if op.del {
			size[op.sw]--
		} else {
			size[op.sw]++
		}
		if size[op.sw] < 0 || size[op.sw] > 1 {
			t.Fatalf("churn sequence moves switch %d's table by %d rules", op.sw, size[op.sw])
		}
	}
	if size != [2]int{} {
		t.Errorf("churn sequence ends %v rules away from where it started", size)
	}
}

func TestRawHeaderKeepsChecksumAndNoDecoyCoversTraffic(t *testing.T) {
	in := genChurn(3, 256, 32, 64, churnFrameLen)
	frame := append([]byte(nil), in.frames[9]...)
	putRawHeader(rawPayload(frame), 9, 0xdeadbeef, 1<<40+12345, 7)
	var f pkt.Frame
	var ip pkt.IPv4
	var u pkt.UDP
	if err := pkt.DecodeFrameInto(&f, frame); err != nil {
		t.Fatal(err)
	}
	if err := pkt.DecodeIPv4Into(&ip, f.Payload); err != nil {
		t.Fatal(err)
	}
	if err := pkt.DecodeUDPInto(&u, ip.Payload, ip.Src, ip.Dst); err != nil {
		t.Fatalf("restamped frame no longer passes the UDP checksum: %v", err)
	}
	if flow, seq, stamp, phase := parseHeader(u.Payload); flow != 9 || seq != 0xdeadbeef || stamp != 1<<40+12345 || phase != 7 {
		t.Errorf("header round trip: %d %x %d %d", flow, seq, stamp, phase)
	}
	if !bytes.Equal(u.Payload[rawHdrLen:], rawPayload(in.frames[9])[rawHdrLen:]) {
		t.Error("restamping touched the pattern")
	}
	// Each frame is covered by exactly its /24 route on each switch.
	for sw := range in.rules {
		for i, fr := range in.frames {
			covering := 0
			key, err := openflow.ExtractKey(1, fr)
			if err != nil {
				t.Fatal(err)
			}
			for _, fm := range append(append([]*openflow.FlowMod(nil), in.rules[sw]...), in.decoys[sw]...) {
				if fm.Match.Covers(&key) {
					covering++
					if fm.Priority != prioRoute24 || fm.Match.NwDstPrefix() != livePrefix(in.prefixOf[i]) {
						t.Fatalf("switch %d: frame %d is covered by %v at priority %d", sw, i, fm.Match.NwDstPrefix(), fm.Priority)
					}
				}
			}
			if covering != 1 {
				t.Fatalf("switch %d: frame %d is covered by %d rules, want 1", sw, i, covering)
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json, which the driver reads,
// to the tables this package reports by, and both to the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec.go has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d differs from spec.go: %+v", i, w)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q breaks the contract's limits (why is %d characters)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricSpec(nil), doc.EndToEnd...), doc.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's limits", m)
		}
		seen[m.Name] = true
		setup = setup || (m == metricSpec{"setup_s", "s", "lower", m.Bound})
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup || len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 || doc.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json breaks the contract's limits")
	}
	if doc.RunSeconds != runSeconds || !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, command %v, paths %v: not what this package is run with", doc.RunSeconds, doc.Command, doc.Paths)
	}
}
