package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share a trace ID; Parent indexes the span that caused this one
// (-1 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
	// Items is the work-item count a span covered (workpool fan-outs).
	Items int `json:"items,omitempty"`
	// Probe marks an extra call made only to measure a layer, which is
	// not part of the request's own replay.
	Probe bool `json:"probe,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Trace ID 0 means
// "not traced": begin returns -1 and end ignores it, so one code path
// serves traced and untraced calls.
type tracer struct {
	epoch  time.Time
	traces atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newTrace() uint64 { return t.traces.Add(1) }

func (t *tracer) begin(trace uint64, parent int, name string) int {
	if trace == 0 {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval the caller already measured.
func (t *tracer) record(trace uint64, parent int, name string, start, end time.Time) int {
	if trace == 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// set edits a recorded span (its name once an outcome is known, its
// item count, its probe flag).
func (t *tracer) set(id int, edit func(*span)) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	edit(&t.spans[id])
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (a fan-out) count once, and a
// child's time outside the parent's interval does not count.
func selfTime(parent span, children []span) int64 {
	type interval struct{ a, b int64 }
	var ivs []interval
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.a <= cur.b:
			cur.b = max(cur.b, iv.b)
		default:
			covered += cur.b - cur.a
			cur = iv
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// spanIndex answers the per-layer questions over a set of spans.
type spanIndex struct {
	spans    []span
	children map[int][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{spans: spans, children: make(map[int][]span)}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations lists the durations (µs) of spans named name.
func (ix spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// self returns the self time of every span named name, in µs.
func (ix spanIndex) self(name string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, float64(selfTime(s, ix.children[s.ID]))/1e3)
		}
	}
	return out
}

// child returns the first non-probe child of id named name.
func (ix spanIndex) child(id int, name string) (span, bool) {
	for _, c := range ix.children[id] {
		if c.Name == name && !c.Probe {
			return c, true
		}
	}
	return span{}, false
}
