package core

import (
	"reflect"
	"testing"

	"simr/internal/trace"
	"simr/internal/uservices"
)

// TestBatchCacheRunServiceHits verifies the direct contract at the
// RunService level: two identical runs sharing one BatchCache produce
// equal Results, the second run is served entirely from the cache, and
// both match a run with no cache at all.
func TestBatchCacheRunServiceHits(t *testing.T) {
	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 96, 7)
	bc := trace.NewBatchCache(trace.NewBudget(0))

	run := func(cache *trace.BatchCache) *Result {
		t.Helper()
		opts := DefaultOptions()
		opts.BatchStreams = cache
		res, err := RunService(ArchRPU, svc, reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run(bc)
	st := bc.Stats()
	if st.Misses != uint64(first.Batches) || st.Hits != 0 {
		t.Fatalf("first run: got %d misses / %d hits, want %d misses / 0 hits", st.Misses, st.Hits, first.Batches)
	}
	if st.Bytes <= 0 || st.BytesHWM < st.Bytes {
		t.Fatalf("first run: implausible retained bytes %d (hwm %d)", st.Bytes, st.BytesHWM)
	}

	second := run(bc)
	st2 := bc.Stats()
	if got := st2.Hits - st.Hits; got != uint64(second.Batches) {
		t.Fatalf("second run: got %d hits, want %d (every batch served from cache)", got, second.Batches)
	}
	if st2.Misses != st.Misses {
		t.Fatalf("second run rebuilt %d streams", st2.Misses-st.Misses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache-served run differs from the run that built the cache")
	}

	if fresh := run(nil); !reflect.DeepEqual(first, fresh) {
		t.Fatal("memoized run differs from uncached run")
	}

	bc.Drop()
	dst := bc.Stats()
	if dst.Drops != 1 || dst.Bytes != 0 {
		t.Fatalf("after drop: drops=%d bytes=%d, want 1/0", dst.Drops, dst.Bytes)
	}
}
