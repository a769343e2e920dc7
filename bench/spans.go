package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its children
	// cover.
	Self int64 `json:"self_ns"`
}

// tracer records spans in memory; they are written out when the
// benchmark ends. It is safe for concurrent use, so the cells of a
// parallel sweep can record their own spans.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name, cell string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Cell: cell, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// finish returns the recorded spans with their self times filled in.
// Children of one span may overlap (parallel sweep cells), so a span's
// covered time is the union of its children's intervals.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	kids := make([][]span, len(out))
	for _, s := range out {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range out {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), out[i].Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, out[i].End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i].Self = out[i].End - out[i].Start - covered
	}
	return out
}
