package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"simr/internal/alloc"
	"simr/internal/pipeline"
	"simr/internal/simt"
	"simr/internal/uservices"
)

// testStream builds a stream whose address array is the given arena,
// the way a uopBuilder-produced stream aliases its slot chunks.
func testStream(arena []uint64) *BatchStream {
	uops := make([]pipeline.Uop, 4)
	for i := range uops {
		uops[i].PC = uint64(0x1000 + 4*i)
		uops[i].Mask = 0xFF
	}
	uops[1].Acc, uops[1].NAcc = 0, 2
	uops[3].Acc, uops[3].NAcc = 2, 1
	return &BatchStream{
		Stream:    pipeline.Stream{Uops: uops, Addrs: arena},
		ScalarOps: 123,
		BatchOps:  4,
		Requests:  8,
	}
}

func testKey(seed int64) []byte {
	reqs := []uservices.Request{
		{API: "get", Seed: seed, Args: []uint64{1, 2}},
		{API: "set", Seed: seed + 1, Args: []uint64{3}},
	}
	spin := simt.DefaultSpin
	return AppendBatchKey(nil, KeyBatch, reqs, 32, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<46)
}

func TestAppendBatchKeyDistinct(t *testing.T) {
	reqs := []uservices.Request{{API: "get", Seed: 1, Args: []uint64{7}}}
	spin := simt.DefaultSpin
	base := func() []byte {
		return AppendBatchKey(nil, KeyBatch, reqs, 32, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<46)
	}
	variants := map[string][]byte{
		"tag":       AppendBatchKey(nil, KeySMT, reqs, 32, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<46),
		"size":      AppendBatchKey(nil, KeyBatch, reqs, 16, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<46),
		"ipdom":     AppendBatchKey(nil, KeyBatch, reqs, 32, true, nil, alloc.PolicySIMR, true, 32, 8, 1<<46),
		"nospin":    AppendBatchKey(nil, KeyBatch, reqs, 32, false, nil, alloc.PolicySIMR, true, 32, 8, 1<<46),
		"policy":    AppendBatchKey(nil, KeyBatch, reqs, 32, false, &spin, alloc.PolicyCPU, true, 32, 8, 1<<46),
		"interleav": AppendBatchKey(nil, KeyBatch, reqs, 32, false, &spin, alloc.PolicySIMR, false, 32, 8, 1<<46),
		"line":      AppendBatchKey(nil, KeyBatch, reqs, 32, false, &spin, alloc.PolicySIMR, true, 64, 8, 1<<46),
		"banks":     AppendBatchKey(nil, KeyBatch, reqs, 32, false, &spin, alloc.PolicySIMR, true, 32, 16, 1<<46),
		"stack":     AppendBatchKey(nil, KeyBatch, reqs, 32, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<47),
		"api": AppendBatchKey(nil, KeyBatch,
			[]uservices.Request{{API: "got", Seed: 1, Args: []uint64{7}}}, 32, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<46),
		"seed": AppendBatchKey(nil, KeyBatch,
			[]uservices.Request{{API: "get", Seed: 2, Args: []uint64{7}}}, 32, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<46),
		"args": AppendBatchKey(nil, KeyBatch,
			[]uservices.Request{{API: "get", Seed: 1, Args: []uint64{8}}}, 32, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<46),
		"nreqs": AppendBatchKey(nil, KeyBatch,
			[]uservices.Request{{API: "get", Seed: 1, Args: []uint64{7}}, {API: "get", Seed: 1, Args: []uint64{7}}},
			32, false, &spin, alloc.PolicySIMR, true, 32, 8, 1<<46),
	}
	b := base()
	if !bytes.Equal(b, base()) {
		t.Fatal("key encoding is not deterministic")
	}
	for name, v := range variants {
		if bytes.Equal(b, v) {
			t.Errorf("varying %s does not change the key", name)
		}
	}
	// Moving a boundary between API text and args must change the key
	// (length prefixes make the encoding collision-free).
	a := AppendBatchKey(nil, KeyBatch, []uservices.Request{{API: "ab", Seed: 0}}, 32, false, nil, 0, false, 32, 8, 0)
	c := AppendBatchKey(nil, KeyBatch, []uservices.Request{{API: "a", Seed: int64('b')}}, 32, false, nil, 0, false, 32, 8, 0)
	if bytes.Equal(a, c) {
		t.Fatal("length prefixes failed to separate API text from seed bytes")
	}
}

func TestBatchCacheSingleflight(t *testing.T) {
	c := NewBatchCache(NewBudget(0))
	key := testKey(1)
	arena := []uint64{10, 20, 30}
	var builds atomic.Int32
	gate := make(chan struct{})
	build := func() (*BatchStream, error) {
		builds.Add(1)
		<-gate
		return testStream(arena), nil
	}

	const n = 8
	streams := make([]*BatchStream, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Get(key, build)
			if err != nil {
				t.Error(err)
				return
			}
			streams[i] = st
		}(i)
	}
	close(gate)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1 (singleflight)", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Bypassed != 0 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, 0 bypassed", st, n-1)
	}
	for i := 1; i < n; i++ {
		if streams[i] != streams[0] {
			t.Fatal("waiters did not all receive the one cache-owned stream")
		}
	}
	if st.Bytes != streams[0].RetainedBytes() || st.BytesHWM != st.Bytes {
		t.Fatalf("retained bytes %d (hwm %d) != stream cost %d", st.Bytes, st.BytesHWM, streams[0].RetainedBytes())
	}
}

func TestBatchCacheCloneOwnership(t *testing.T) {
	c := NewBatchCache(NewBudget(0))
	arena := []uint64{10, 20, 30}
	local := testStream(arena)
	got, err := c.Get(testKey(1), func() (*BatchStream, error) { return local, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got == local {
		t.Fatal("retained stream aliases the builder's stream")
	}
	// Corrupt the builder's arena the way slot reuse would.
	for i := range local.Uops {
		local.Uops[i] = pipeline.Uop{}
	}
	for i := range arena {
		arena[i] = 0xdead
	}
	hit, err := c.Get(testKey(1), func() (*BatchStream, error) {
		t.Fatal("hit path must not rebuild")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := testStream([]uint64{10, 20, 30})
	if len(hit.Uops) != len(want.Uops) {
		t.Fatalf("hit stream has %d uops, want %d", len(hit.Uops), len(want.Uops))
	}
	for i := range want.Uops {
		if hit.Uops[i] != want.Uops[i] ||
			!reflect.DeepEqual(hit.Accesses(&hit.Uops[i]), want.Accesses(&want.Uops[i])) {
			t.Fatalf("uop %d corrupted by builder-arena reuse: %+v", i, hit.Uops[i])
		}
	}
	if hit.ScalarOps != 123 || hit.BatchOps != 4 || hit.Requests != 8 {
		t.Fatalf("counts corrupted: %+v", hit)
	}
}

func TestBatchCacheBudgetBypass(t *testing.T) {
	c := NewBatchCache(NewBudget(1)) // nothing fits
	arena := []uint64{1, 2, 3}
	var builds atomic.Int32
	build := func() (*BatchStream, error) {
		builds.Add(1)
		return testStream(arena), nil
	}
	st1, err := c.Get(testKey(1), build)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Get(testKey(1), build)
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Fatalf("build ran %d times, want 2 (unretained entries cannot serve)", builds.Load())
	}
	if st1 == st2 {
		t.Fatal("bypassed gets must each own their build product")
	}
	s := c.Stats()
	if s.Bytes != 0 || s.Hits != 0 || s.Bypassed != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses, 2 bypassed, 0 bytes", s)
	}
}

func TestBatchCacheError(t *testing.T) {
	c := NewBatchCache(NewBudget(0))
	boom := errors.New("boom")
	var builds atomic.Int32
	for i := 0; i < 3; i++ {
		_, err := c.Get(testKey(1), func() (*BatchStream, error) {
			builds.Add(1)
			return nil, boom
		})
		if err != boom {
			t.Fatalf("get %d: err = %v, want boom", i, err)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("failed build ran %d times, want 1 (errors are memoized)", builds.Load())
	}
}

func TestBatchCacheDrop(t *testing.T) {
	budget := NewBudget(0)
	c := NewBatchCache(budget)
	arena := []uint64{1, 2, 3}
	st, err := c.Get(testKey(1), func() (*BatchStream, error) { return testStream(arena), nil })
	if err != nil {
		t.Fatal(err)
	}
	cost := st.RetainedBytes()
	before := budget.left.Load()
	c.Drop()
	c.Drop() // idempotent
	s := c.Stats()
	if s.Drops != 1 {
		t.Fatalf("drops = %d, want 1 (second Drop is a no-op)", s.Drops)
	}
	if s.Bytes != 0 {
		t.Fatalf("bytes = %d after drop, want 0", s.Bytes)
	}
	if got := budget.left.Load(); got != before+cost {
		t.Fatalf("budget not refunded: left %d, want %d", got, before+cost)
	}
	// A dropped cache serves fresh without re-populating.
	var builds atomic.Int32
	for i := 0; i < 2; i++ {
		if _, err := c.Get(testKey(1), func() (*BatchStream, error) {
			builds.Add(1)
			return testStream(arena), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if builds.Load() != 2 {
		t.Fatalf("dropped cache built %d times, want 2", builds.Load())
	}
	if s := c.Stats(); s.Bypassed != 2 || s.Bytes != 0 {
		t.Fatalf("dropped-cache stats = %+v, want 2 bypassed, 0 bytes", s)
	}
}

// TestBatchCacheHitAllocs pins the zero-allocation hit path: sweeps
// hammer Get once per batch per cell, so a hit must not allocate (key
// lookup via m[string(key)] compiles to a no-copy map probe).
func TestBatchCacheHitAllocs(t *testing.T) {
	c := NewBatchCache(NewBudget(0))
	arena := []uint64{1, 2, 3}
	keyBuf := testKey(1)
	if _, err := c.Get(keyBuf, func() (*BatchStream, error) { return testStream(arena), nil }); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		st, err := c.Get(keyBuf, nil)
		if err != nil || st == nil {
			t.Fatal("hit failed")
		}
	})
	if avg != 0 {
		t.Fatalf("hit path allocates %v objects per op, want 0", avg)
	}
}

// TestBatchCacheRace hammers Get/Drop from many goroutines; run under
// -race it is the cache's dedicated concurrency test.
func TestBatchCacheRace(t *testing.T) {
	budget := NewBudget(4096) // small enough that some builds bypass
	c := NewBatchCache(budget)
	keys := make([][]byte, 4)
	for i := range keys {
		keys[i] = testKey(int64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arena := []uint64{uint64(g), 2, 3}
			for i := 0; i < 200; i++ {
				st, err := c.Get(keys[(g+i)%len(keys)], func() (*BatchStream, error) {
					return testStream(arena), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Read the stream the way a consumer would.
				sum := uint64(0)
				for j := range st.Uops {
					for _, a := range st.Accesses(&st.Uops[j]) {
						sum += a
					}
				}
				_ = sum
				if g == 0 && i == 100 {
					c.Drop()
				}
			}
		}(g)
	}
	wg.Wait()
	c.Drop()
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("bytes = %d after final drop, want 0", got)
	}
}

// TestBatchStreamRetainedBytes checks the cost accounting is identical
// before and after cloning (reserve happens on the source, release on
// the clone).
func TestBatchStreamRetainedBytes(t *testing.T) {
	src := testStream([]uint64{1, 2, 3})
	cl := src.clone()
	if src.RetainedBytes() != cl.RetainedBytes() {
		t.Fatalf("clone cost %d differs from source cost %d", cl.RetainedBytes(), src.RetainedBytes())
	}
	var empty BatchStream
	if got := empty.RetainedBytes(); got != batchStreamBytes {
		t.Fatalf("empty stream cost %d, want header %d", got, batchStreamBytes)
	}
}

// ExampleBatchCache documents the intended sweep usage.
func ExampleBatchCache() {
	budget := NewBudget(0)
	c := NewBatchCache(budget)
	key := AppendBatchKey(nil, KeyBatch, []uservices.Request{{API: "get", Seed: 1}},
		32, false, nil, alloc.PolicySIMR, true, 32, 8, 1<<46)
	st, _ := c.Get(key, func() (*BatchStream, error) {
		return &BatchStream{ScalarOps: 96, BatchOps: 3, Requests: 32}, nil
	})
	fmt.Println(st.ScalarOps, c.Stats().Misses)
	// Output: 96 1
}
