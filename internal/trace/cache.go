// Package trace provides a read-only scalar-trace cache for the study
// sweeps. Every study cell (arch × service × batch-size × policy)
// replays the same request stream, and a request's dynamic trace is a
// pure function of (program/API, args, seed) plus the layout inputs the
// driver derives from the batch position: thread index (which fixes the
// stack base, since every study lays batch 0's stacks at the same
// region), heap allocation policy and the L1 geometry the SIMR-aware
// allocator aligns against. Interpreting each distinct key once per
// sweep and sharing the resulting trace read-only across the
// core.RunCells workers removes the interpreter cost that otherwise
// scales with the number of cells instead of the number of requests.
//
// Cached traces MUST be treated as immutable: the SIMT lock-step
// executor, the uop converters and isa.Summarize all only read TraceOp
// slices, and any new consumer has to preserve that. Caching never
// changes results — a hit returns exactly the trace a fresh
// interpretation would produce — so study output stays byte-identical
// whether or not (and how often) the cache is consulted.
package trace

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/obs"
	"simr/internal/uservices"
)

// traceOpBytes is the retained-memory cost of one cached TraceOp.
const traceOpBytes = int64(unsafe.Sizeof(isa.TraceOp{}))

// DefaultBudgetBytes bounds the bytes of trace data a sweep retains by
// default. Studies at the paper's 2400 requests/service generate more
// trace data than fits comfortably in memory, so the cache degrades to
// interpreting fresh (never to wrong results) once the budget is spent;
// dropping a service's cache when its cells finish returns its bytes.
const DefaultBudgetBytes = 512 << 20

// Budget is a byte budget shared by the caches of one sweep. It bounds
// the total retained trace bytes across all services regardless of how
// the worker pool interleaves their cells.
type Budget struct{ left atomic.Int64 }

// NewBudget returns a budget of maxBytes (<= 0 selects
// DefaultBudgetBytes).
func NewBudget(maxBytes int64) *Budget {
	if maxBytes <= 0 {
		maxBytes = DefaultBudgetBytes
	}
	b := &Budget{}
	b.left.Store(maxBytes)
	return b
}

// reserve takes n bytes from the budget, reporting whether they were
// available.
func (b *Budget) reserve(n int64) bool {
	if b == nil {
		return true
	}
	if b.left.Add(-n) >= 0 {
		return true
	}
	b.left.Add(n)
	return false
}

// release returns n bytes to the budget.
func (b *Budget) release(n int64) {
	if b != nil {
		b.left.Add(n)
	}
}

// key identifies one cacheable trace of the cache's service. The stack
// base is implied by tid (all chip-level studies lay out batch 0's
// stacks from alloc.StackRegion) but is keyed explicitly so a caller
// with an unusual layout degrades to extra misses, never to a wrong
// trace.
type key struct {
	api       string
	args      string // req.Args packed little-endian
	seed      int64
	stackBase uint64
	tid       int32
	lineBytes int32
	banks     int32
	policy    alloc.Policy
}

// packArgs encodes an argument vector into a comparable string without
// retaining the caller's slice.
func packArgs(args []uint64) string {
	buf := make([]byte, 8*len(args))
	for i, a := range args {
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(a >> (8 * b))
		}
	}
	return string(buf)
}

// entry is one cache slot. ready is closed once ops/err are final;
// concurrent requesters of the same key wait instead of re-interpreting
// (singleflight).
type entry struct {
	ready chan struct{}
	ops   []isa.TraceOp
	err   error
	// retained records whether the entry holds a budget reservation; it
	// is written before ready closes and read only after.
	retained bool
}

// Cache memoises the scalar traces of one service for the duration of
// one sweep. It is safe for concurrent use. The zero Cache is not
// usable; a nil *Cache is accepted everywhere and interprets fresh.
type Cache struct {
	svc    *uservices.Service
	budget *Budget

	mu sync.Mutex
	m  map[key]*entry

	hits     atomic.Uint64
	misses   atomic.Uint64
	bypassed atomic.Uint64
	drops    atomic.Uint64
	bytes    atomic.Int64
	bytesHWM atomic.Int64

	// Optional observability mirrors (nil no-ops when the obs hub was
	// not installed at construction time). The counters aggregate over
	// every cache of the process under one scope, so a sweep's snapshot
	// shows total cache effectiveness; bytesHWM tracks the single-cache
	// retained-bytes high-water mark against the byte budget.
	obsHits, obsMisses, obsBypassed, obsDrops, obsDroppedBytes *obs.Counter
	obsBytesHWM                                                *obs.Gauge
}

// NewCache returns a cache for svc drawing on the shared budget
// (budget may be nil for an unbounded cache).
func NewCache(svc *uservices.Service, budget *Budget) *Cache {
	c := &Cache{svc: svc, budget: budget, m: map[key]*entry{}}
	if sc := obs.Default().Scope("trace.cache"); sc != nil {
		c.obsHits = sc.Counter("hits")
		c.obsMisses = sc.Counter("misses")
		c.obsBypassed = sc.Counter("bypassed")
		c.obsDrops = sc.Counter("drops")
		c.obsDroppedBytes = sc.Counter("dropped_bytes")
		c.obsBytesHWM = sc.Gauge("bytes_hwm")
	}
	return c
}

// Stats reports cache effectiveness counters. BytesHWM is the
// retained-bytes high-water mark over the cache's lifetime (Bytes drops
// back to zero after Drop; the HWM records how much of the budget the
// cache actually used) and Drops counts Drop calls that found a live
// map.
type Stats struct {
	Hits, Misses, Bypassed, Drops uint64
	Bytes, BytesHWM               int64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Bypassed: c.bypassed.Load(),
		Drops:    c.drops.Load(),
		Bytes:    c.bytes.Load(),
		BytesHWM: c.bytesHWM.Load(),
	}
}

// interpState is one pooled interpreter: a scratch trace buffer, a
// reusable context whose seedrng-backed rng is reseeded per request,
// and a heap arena.
type interpState struct {
	buf   []isa.TraceOp
	ctx   *isa.Ctx
	arena alloc.Arena
}

// interps recycles interpreter state across misses: the trace is built
// in the pooled buffer and copied out at its exact final size.
// TraceOp is pointer-free, so the exact-size copy allocates without
// the backing-array zeroing a capacity-hinted make pays, and the
// (typically multi-megabyte) scratch array and the rng's state are
// reused instead of churned per miss.
var interps = sync.Pool{New: func() any { return &interpState{ctx: uservices.NewTraceCtx()} }}

// interpret runs the service's program for the request exactly like
// uservices.Service.Trace with a fresh arena and returns a trace the
// caller owns.
func interpret(svc *uservices.Service, req *uservices.Request, tid int, stackBase uint64, policy alloc.Policy, lineBytes, banks int) ([]isa.TraceOp, error) {
	st := interps.Get().(*interpState)
	st.arena.Reset(tid, policy, lineBytes, banks)
	ops, err := svc.TraceInto(st.ctx, req, tid, stackBase, &st.arena, st.buf[:0])
	var out []isa.TraceOp
	if err == nil {
		out = append([]isa.TraceOp(nil), ops...)
		st.buf = ops[:0]
	}
	interps.Put(st)
	return out, err
}

// Request returns the scalar trace for the request at batch position
// tid with the given stack base and heap-allocator geometry,
// interpreting it at most once per cache lifetime. The returned slice
// is shared and read-only. The receiver must be non-nil.
func (c *Cache) Request(req *uservices.Request, tid int, stackBase uint64, policy alloc.Policy, lineBytes, banks int) ([]isa.TraceOp, error) {
	k := key{
		api:       req.API,
		args:      packArgs(req.Args),
		seed:      req.Seed,
		stackBase: stackBase,
		tid:       int32(tid),
		lineBytes: int32(lineBytes),
		banks:     int32(banks),
		policy:    policy,
	}
	c.mu.Lock()
	if c.m == nil {
		// Dropped: serve fresh without re-populating.
		c.mu.Unlock()
		c.bypassed.Add(1)
		c.obsBypassed.Inc()
		return interpret(c.svc, req, tid, stackBase, policy, lineBytes, banks)
	}
	if e, ok := c.m[k]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		c.obsHits.Inc()
		<-e.ready
		return e.ops, e.err
	}
	e := &entry{ready: make(chan struct{})}
	c.m[k] = e
	c.mu.Unlock()
	c.misses.Add(1)
	c.obsMisses.Inc()

	e.ops, e.err = interpret(c.svc, req, tid, stackBase, policy, lineBytes, banks)
	cost := traceOpBytes * int64(len(e.ops))
	retained := false
	if e.err == nil && c.budget.reserve(cost) {
		// Keep the entry only if it is still mapped (Drop may have raced
		// with the interpretation) so every retained byte is released
		// exactly once.
		c.mu.Lock()
		retained = c.m != nil && c.m[k] == e
		c.mu.Unlock()
		if retained {
			now := c.bytes.Add(cost)
			storeMax(&c.bytesHWM, now)
			c.obsBytesHWM.SetMax(now)
			e.retained = true
		} else {
			c.budget.release(cost)
		}
	}
	if e.err == nil && !retained {
		// Over budget (or dropped): hand the trace to any waiters — it
		// is already computed — but do not retain it; future requests
		// for this key re-interpret.
		c.bypassed.Add(1)
		c.obsBypassed.Inc()
		c.mu.Lock()
		if c.m != nil && c.m[k] == e {
			delete(c.m, k)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.ops, e.err
}

// Drop releases the cache's entries and returns their bytes to the
// budget. Subsequent Requests interpret fresh. Safe to call
// concurrently with Request.
func (c *Cache) Drop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	m := c.m
	c.m = nil
	c.mu.Unlock()
	if m == nil {
		return
	}
	var freed int64
	for _, e := range m {
		select {
		case <-e.ready:
			// Only entries that completed AND kept their reservation
			// count: an in-flight interpreter re-checks map membership
			// before retaining and releases its own reservation when it
			// finds the map dropped.
			if e.retained {
				freed += traceOpBytes * int64(len(e.ops))
			}
		default:
		}
	}
	c.bytes.Add(-freed)
	c.budget.release(freed)
	c.drops.Add(1)
	c.obsDrops.Inc()
	c.obsDroppedBytes.Add(freed)
}
