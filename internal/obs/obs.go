// Package obs is the zero-dependency observability layer of the
// simulator: atomic counters, gauges and fixed-bucket histograms
// grouped into a named-scope registry with deterministic snapshot
// ordering, plus a Chrome-trace (chrome://tracing / Perfetto JSON)
// event sink (trace.go).
//
// Instrumentation is off by default and allocation-free when disabled:
// every instrument method is a no-op on a nil receiver, the registry
// accessors return nil instruments when no registry is installed, and
// hot paths hold on to the (possibly nil) instrument pointers they
// resolved at setup time. Observation never changes simulation
// results — study output is byte-identical with the layer on or off.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; all methods are no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; all methods are no-ops on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: observation v lands in the
// first bucket whose upper bound is >= v, or in the overflow bucket
// when v exceeds every bound. Bounds are fixed at creation; Observe is
// lock-free. All methods are no-ops on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram builds a histogram over the (ascending) bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot captures the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Scope is a named group of instruments. Instruments are created on
// first access and shared afterwards; all accessors return nil on a
// nil receiver so disabled call sites stay allocation-free.
type Scope struct {
	name string
	mu   sync.Mutex
	cs   map[string]*Counter
	gs   map[string]*Gauge
	hs   map[string]*Histogram
}

// Counter returns the scope's counter with the given name, creating it
// on first use.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cs[name]
	if !ok {
		c = &Counter{}
		s.cs[name] = c
	}
	return c
}

// Gauge returns the scope's gauge with the given name, creating it on
// first use.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gs[name]
	if !ok {
		g = &Gauge{}
		s.gs[name] = g
	}
	return g
}

// Histogram returns the scope's histogram with the given name,
// creating it with the given bucket bounds on first use (later calls
// keep the original bounds).
func (s *Scope) Histogram(name string, bounds []float64) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hs[name]
	if !ok {
		h = newHistogram(bounds)
		s.hs[name] = h
	}
	return h
}

// Registry holds named scopes. It is safe for concurrent use; a nil
// *Registry is accepted everywhere and hands out nil scopes.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]*Scope
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{scopes: map[string]*Scope{}}
}

// Scope returns the named scope, creating it on first use.
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.scopes[name]
	if !ok {
		s = &Scope{name: name, cs: map[string]*Counter{}, gs: map[string]*Gauge{}, hs: map[string]*Histogram{}}
		r.scopes[name] = s
	}
	return s
}

// HistogramSnapshot is the captured state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// ScopeSnapshot is the captured state of one scope. Map keys marshal
// in sorted order, so the JSON form is deterministic.
type ScopeSnapshot struct {
	Name       string                       `json:"name"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot is a point-in-time capture of a whole registry with scopes
// ordered by name.
type Snapshot struct {
	Scopes []ScopeSnapshot `json:"scopes"`
}

// Snapshot captures every scope's instruments, with scopes sorted by
// name so repeated snapshots of the same state are identical.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.scopes))
	for n := range r.scopes {
		names = append(names, n)
	}
	scopes := make([]*Scope, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		scopes = append(scopes, r.scopes[n])
	}
	r.mu.Unlock()

	snap := Snapshot{Scopes: make([]ScopeSnapshot, 0, len(scopes))}
	for _, s := range scopes {
		s.mu.Lock()
		ss := ScopeSnapshot{Name: s.name}
		if len(s.cs) > 0 {
			ss.Counters = make(map[string]int64, len(s.cs))
			for n, c := range s.cs {
				ss.Counters[n] = c.Load()
			}
		}
		if len(s.gs) > 0 {
			ss.Gauges = make(map[string]int64, len(s.gs))
			for n, g := range s.gs {
				ss.Gauges[n] = g.Load()
			}
		}
		if len(s.hs) > 0 {
			ss.Histograms = make(map[string]HistogramSnapshot, len(s.hs))
			for n, h := range s.hs {
				ss.Histograms[n] = h.snapshot()
			}
		}
		s.mu.Unlock()
		snap.Scopes = append(snap.Scopes, ss)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// hub is the installed global observability state.
type hub struct {
	reg  *Registry
	sink *TraceSink
}

var global atomic.Pointer[hub]

// Enable installs the process-global registry and trace sink (either
// may be nil to enable only the other). Instrument points resolve
// their instruments through Default/Trace, so Enable must run before
// the instrumented code constructs its probes.
func Enable(reg *Registry, sink *TraceSink) {
	global.Store(&hub{reg: reg, sink: sink})
}

// Disable removes the global registry and sink; subsequent
// instrumentation resolves to nil no-op instruments.
func Disable() { global.Store(nil) }

// Enabled reports whether a registry or sink is installed.
func Enabled() bool { return global.Load() != nil }

// Default returns the installed global registry, or nil when
// observability is disabled.
func Default() *Registry {
	if h := global.Load(); h != nil {
		return h.reg
	}
	return nil
}

// Trace returns the installed global trace sink, or nil when disabled.
func Trace() *TraceSink {
	if h := global.Load(); h != nil {
		return h.sink
	}
	return nil
}
