package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one boot or one
// fault cycle share Cycle; Parent is the ID of the span that caused this one
// (0 = none). Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Cycle  int    `json:"cycle"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"` // which instance, where a name covers several (a switch's dpid)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until write. It lives in the benchmark: the
// spans are taken around calls into the program's layers and at milestones
// read from its public read-outs, and nothing inside the program is
// instrumented. A nil *recorder records nothing, so untraced runs pass nil
// and pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent, cycle int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Cycle: cycle, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// interval records a span whose two ends were observed as wall-clock times,
// as milestones read by polling are.
func (r *recorder) interval(name, note string, parent, cycle int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Cycle: cycle, Name: name, Note: note,
		Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds()})
	return len(r.spans)
}

// layerTime sums one span name's calls.
type layerTime struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	Total  int64  `json:"total_ns"`
	SelfNs int64  `json:"self_ns"`
}

// selfTimes returns, per span name in first-seen order, the call count, the
// total duration and the self time: a span's duration minus the part of it
// its direct children cover. Children are clipped to the parent and
// overlapping children are counted once. Spans never closed are skipped.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End >= s.Start && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	index := make(map[string]int)
	var out []layerTime
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, layerTime{Name: s.Name})
		}
		dur := s.End - s.Start
		out[i].Count++
		out[i].Total += dur
		out[i].SelfNs += dur - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent span, kids []span) int64 {
	sorted := append([]span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total int64
	reach := parent.Start
	for _, k := range sorted {
		start, end := max(k.Start, reach), min(k.End, parent.End)
		if end > start {
			total += end - start
			reach = end
		}
	}
	return total
}

// write stores the spans and their per-name self times as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	doc := struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{selfTimes(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
