// Batch-stream cache: the post-merge sibling of the scalar Cache.
//
// The scalar cache amortizes trace *interpretation* across sweep cells,
// but every cell still pays the rest of preparation — SIMT lock-step
// merge and uop build — even when it consumes the exact stream another
// cell already built. Cells that differ only in timing knobs (lanes,
// majority vote, atomics placement, frequency/energy model) — the
// sensitivity grid's ablations against their baseline — hold batch
// composition, spin policy, reconvergence mode and allocator geometry
// fixed, so the merged []pipeline.Uop stream, its MCU coalescing delta
// and its op counts are pure functions of inputs the cells share. (A
// single run that times several such variants, like the timing sweep's
// eight or the chip study's RPU and GPU columns, prepares each batch
// once and needs no cache.) The
// BatchCache memoizes that post-merge product once per sweep and serves
// it read-only to every other cell, with singleflight dedup so
// concurrent workers block on the first build instead of repeating it.
//
// Ownership is the load-bearing invariant: the builders' slot arenas
// (core's uopBuilder chunks and simt.Scratch) are reused per slot, so a
// retained stream must never alias them. On first build the cache deep
// copies the stream into a cache-owned arena (clone) and serves only
// that copy; its consumer, pipeline.Core.Run, treats a stream's uops
// and addresses as immutable. Caching never changes results: a hit
// returns exactly the stream a fresh build would produce, so study
// output stays byte-identical with the cache on or off.
package trace

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"simr/internal/alloc"
	"simr/internal/mem"
	"simr/internal/obs"
	"simr/internal/pipeline"
	"simr/internal/simt"
	"simr/internal/uservices"
)

// uopBytes is the retained-memory cost of one cached pipeline uop.
const uopBytes = int64(unsafe.Sizeof(pipeline.Uop{}))

// batchStreamBytes is the fixed overhead charged per retained stream
// (the BatchStream header plus map/entry bookkeeping, rounded up).
const batchStreamBytes = int64(unsafe.Sizeof(BatchStream{})) + 128

// Key tags distinguish the stream families sharing one cache so a batch
// stream and an SMT merge of the same requests can never collide.
const (
	// KeyBatch marks an RPU/GPU lock-step batch stream.
	KeyBatch byte = 'B'
	// KeySMT marks an SMT round-robin merge of scalar streams.
	KeySMT byte = 'S'
)

// BatchStream is one memoized post-merge preparation product: the
// merged uop stream plus everything the consumer needs to account for
// it. A stream returned by BatchCache.Get on a hit is cache-owned and
// strictly read-only — its Uops and Addrs are the cache's own arrays,
// never a builder's scratch.
type BatchStream struct {
	// Stream is the merged stream the timing core runs. Read-only.
	pipeline.Stream
	// MCU is the coalescer-count delta the uop build produced; the
	// consumer applies it to the memory system before Run.
	MCU mem.MCUStats
	// ScalarOps is the total dynamic scalar instruction count merged
	// into the stream (the SIMT-efficiency numerator).
	ScalarOps int
	// BatchOps is the merged batch-op count (the efficiency
	// denominator's per-batch factor); zero for SMT merges.
	BatchOps int
	// Requests is the number of requests the stream serves.
	Requests int
}

// RetainedBytes returns the stream's retained-memory cost: the uop
// array, the address array and the fixed header overhead.
func (s *BatchStream) RetainedBytes() int64 {
	return uopBytes*int64(len(s.Uops)) + 8*int64(len(s.Addrs)) + batchStreamBytes
}

// clone deep copies the stream into cache-owned memory: copies of the
// uop array and of the address array. The source (typically aliasing a
// builder's reused slot arena) is not retained.
func (s *BatchStream) clone() *BatchStream {
	c := *s
	c.Uops = slices.Clone(s.Uops)
	c.Addrs = slices.Clone(s.Addrs)
	return &c
}

// appendU64 little-endian packs v.
func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendBatchKey appends the packed batch-stream key to dst and returns
// the extended slice (pass dst[:0] of a reused buffer for a zero-alloc
// steady state). The key covers everything that determines the merged
// stream: the tag (stream family), every request's identity (API, args,
// seed — batch position is implied by order), the hardware batch width,
// the reconvergence mode and spin policy, and the layout inputs the
// build consumed (alloc policy, stack interleave, L1 line/banks, stack
// base). The encoding is collision-free (strings and vectors are
// length-prefixed), so equal keys imply equal streams; anything not
// keyed here — lanes, majority voting, atomics placement, frequency —
// must be timing-only. One cache must serve exactly one service: the
// service's programs (and its branch-reconvergence table) are deliberately
// not part of the key.
func AppendBatchKey(dst []byte, tag byte, reqs []uservices.Request, size int,
	ipdom bool, spin *simt.SpinConfig, policy alloc.Policy, interleave bool,
	lineBytes, banks int, stackBase uint64) []byte {
	dst = append(dst, tag)
	flags := byte(0)
	if ipdom {
		flags |= 1
	}
	if interleave {
		flags |= 2
	}
	if spin != nil {
		flags |= 4
	}
	dst = append(dst, flags, byte(policy))
	if spin != nil {
		dst = appendU64(dst, uint64(spin.Window))
		dst = appendU64(dst, uint64(spin.MinAtomics))
		dst = appendU64(dst, uint64(spin.Grant))
	}
	dst = appendU64(dst, uint64(size))
	dst = appendU64(dst, uint64(lineBytes))
	dst = appendU64(dst, uint64(banks))
	dst = appendU64(dst, stackBase)
	dst = appendU64(dst, uint64(len(reqs)))
	for i := range reqs {
		r := &reqs[i]
		dst = appendU64(dst, uint64(len(r.API)))
		dst = append(dst, r.API...)
		dst = appendU64(dst, uint64(r.Seed))
		dst = appendU64(dst, uint64(len(r.Args)))
		for _, a := range r.Args {
			dst = appendU64(dst, a)
		}
	}
	return dst
}

// batchEntry is one cache slot. ready is closed once stream/err are
// final; concurrent requesters of the same key wait instead of
// rebuilding (singleflight). stream is nil when the build was not
// retained (over budget or dropped) — waiters then rebuild locally,
// because the builder's own result aliases its reusable slot arena and
// must not be shared.
type batchEntry struct {
	ready  chan struct{}
	stream *BatchStream
	err    error
}

// BatchCache memoizes the post-merge batch streams of one service for
// the duration of one sweep. It is safe for concurrent use. A nil
// *BatchCache is accepted everywhere and builds fresh.
type BatchCache struct {
	budget *Budget

	mu sync.Mutex
	m  map[string]*batchEntry

	hits     atomic.Uint64
	misses   atomic.Uint64
	bypassed atomic.Uint64
	drops    atomic.Uint64
	bytes    atomic.Int64
	bytesHWM atomic.Int64

	// Observability mirrors (nil no-ops when the obs hub was not
	// installed at construction time); they aggregate over every batch
	// cache of the process under the "trace.batchcache" scope.
	obsHits, obsMisses, obsBypassed, obsDrops, obsDroppedBytes *obs.Counter
	obsBytesHWM                                                *obs.Gauge
}

// NewBatchCache returns a batch-stream cache drawing on the shared
// budget (nil for an unbounded cache). One BatchCache must serve
// exactly one service — keys do not encode the program set.
func NewBatchCache(budget *Budget) *BatchCache {
	c := &BatchCache{budget: budget, m: map[string]*batchEntry{}}
	if sc := obs.Default().Scope("trace.batchcache"); sc != nil {
		c.obsHits = sc.Counter("hits")
		c.obsMisses = sc.Counter("misses")
		c.obsBypassed = sc.Counter("bypassed")
		c.obsDrops = sc.Counter("drops")
		c.obsDroppedBytes = sc.Counter("dropped_bytes")
		c.obsBytesHWM = sc.Gauge("bytes_hwm")
	}
	return c
}

// BatchStats reports batch-cache effectiveness counters.
type BatchStats struct {
	Hits, Misses, Bypassed, Drops uint64
	Bytes, BytesHWM               int64
}

// Stats returns a snapshot of the cache counters.
func (c *BatchCache) Stats() BatchStats {
	if c == nil {
		return BatchStats{}
	}
	return BatchStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Bypassed: c.bypassed.Load(),
		Drops:    c.drops.Load(),
		Bytes:    c.bytes.Load(),
		BytesHWM: c.bytesHWM.Load(),
	}
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get returns the memoized stream for key, invoking build at most once
// per cache lifetime per key (singleflight). The key is read, never
// retained, so callers may reuse its buffer. A hit returns a
// cache-owned read-only stream and performs zero allocations. A miss
// runs build on the calling goroutine and — budget permitting — retains
// a deep copy for future hits; the caller always receives a stream that
// is valid until its own next build (on a bypass it is build's own
// product, which may alias the caller's reusable arenas). A nil cache
// just calls build.
func (c *BatchCache) Get(key []byte, build func() (*BatchStream, error)) (*BatchStream, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if c.m == nil {
		// Dropped: serve fresh without re-populating.
		c.mu.Unlock()
		c.bypassed.Add(1)
		c.obsBypassed.Inc()
		return build()
	}
	if e, ok := c.m[string(key)]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			c.hits.Add(1)
			c.obsHits.Inc()
			return nil, e.err
		}
		if e.stream == nil {
			// The first builder could not retain its stream (over
			// budget, or Drop raced); its result aliases its private
			// arena, so it cannot be shared — rebuild locally.
			c.bypassed.Add(1)
			c.obsBypassed.Inc()
			return build()
		}
		c.hits.Add(1)
		c.obsHits.Inc()
		return e.stream, nil
	}
	e := &batchEntry{ready: make(chan struct{})}
	c.m[string(key)] = e
	c.mu.Unlock()
	c.misses.Add(1)
	c.obsMisses.Inc()

	st, err := build()
	if err != nil {
		e.err = err
		close(e.ready)
		return nil, err
	}
	cost := st.RetainedBytes()
	retained := false
	if c.budget.reserve(cost) {
		// Clone before re-checking map membership so the (expensive)
		// copy happens outside the lock; release the reservation if
		// Drop raced with the build.
		cl := st.clone()
		c.mu.Lock()
		if c.m != nil && c.m[string(key)] == e {
			e.stream = cl
			retained = true
		}
		c.mu.Unlock()
		if retained {
			storeMax(&c.bytesHWM, c.bytes.Add(cost))
			c.obsBytesHWM.SetMax(c.bytes.Load())
		} else {
			c.budget.release(cost)
		}
	}
	if !retained {
		// Over budget (or dropped): the caller keeps its own freshly
		// built stream, but the entry cannot serve waiters — their
		// singleflight wait degrades to a local rebuild, never to a
		// shared alias of this caller's arena.
		c.bypassed.Add(1)
		c.obsBypassed.Inc()
		c.mu.Lock()
		if c.m != nil && c.m[string(key)] == e {
			delete(c.m, string(key))
		}
		c.mu.Unlock()
	}
	close(e.ready)
	if retained {
		return e.stream, nil
	}
	return st, nil
}

// Drop releases the cache's entries and returns their bytes to the
// budget. Subsequent Gets build fresh. Safe to call concurrently with
// Get; idempotent.
func (c *BatchCache) Drop() {
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
			// Only completed, retained entries hold a reservation: an
			// in-flight builder re-checks map membership before
			// retaining and releases its own reservation when it finds
			// the map dropped.
			if e.stream != nil {
				freed += e.stream.RetainedBytes()
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
