package core

import (
	"bytes"
	"reflect"
	"testing"

	"simr/internal/trace"
	"simr/internal/uservices"
)

// withFreshBatchStreams runs fn with the sweep-level batch-stream
// cache disabled so every cell prepares its batches from scratch (the
// pre-memoization code path).
func withFreshBatchStreams(t *testing.T, fn func()) {
	t.Helper()
	disableBatchCache = true
	defer func() { disableBatchCache = false }()
	fn()
}

// TestBatchCacheStudyDeterminism is the tentpole guarantee of the
// batch-stream cache: memoized sweeps render byte-identically to
// fresh-preparation sweeps at every worker count —
// the cache may only change wall clock, never output. Under -race this
// doubles as the cache's concurrent integration test.
func TestBatchCacheStudyDeterminism(t *testing.T) {
	suite := uservices.NewSuite()

	t.Run("chip", func(t *testing.T) {
		render := func(rows []ChipRow) []byte {
			var buf bytes.Buffer
			WriteFig10(&buf, rows)
			WriteFig14(&buf, rows)
			WriteFig19(&buf, rows)
			WriteFig20(&buf, rows)
			WriteFig21(&buf, rows)
			return buf.Bytes()
		}
		for _, workers := range []int{1, 4} {
			// withGPU exercises cross-architecture stream sharing: the
			// RPU and GPU columns time one preparation of each batch.
			cached, err := ChipStudyParallel(suite, 32, 3, true, workers)
			if err != nil {
				t.Fatal(err)
			}
			var fresh []ChipRow
			withFreshBatchStreams(t, func() {
				fresh, err = ChipStudyParallel(suite, 32, 3, true, workers)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(render(cached), render(fresh)) {
				t.Fatalf("workers=%d: memoized chip study differs from fresh preparation", workers)
			}
		}
	})

	t.Run("sensitivity", func(t *testing.T) {
		var cached, fresh bytes.Buffer
		if err := SensitivityStudyParallel(&cached, suite, []string{"urlshort", "memc"}, 64, 3, 4); err != nil {
			t.Fatal(err)
		}
		var err error
		withFreshBatchStreams(t, func() {
			err = SensitivityStudyParallel(&fresh, suite, []string{"urlshort", "memc"}, 64, 3, 4)
		})
		if err != nil {
			t.Fatal(err)
		}
		if cached.String() != fresh.String() {
			t.Fatal("memoized sensitivity report differs from fresh preparation")
		}
	})

	t.Run("multibatch", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			cached, err := MultiBatchSweep(suite, 3, workers)
			if err != nil {
				t.Fatal(err)
			}
			var fresh []MultiBatchRow
			withFreshBatchStreams(t, func() {
				fresh, err = MultiBatchSweep(suite, 3, workers)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cached, fresh) {
				t.Fatalf("workers=%d: memoized multi-batch sweep differs from fresh preparation", workers)
			}
		}
	})

	t.Run("efficiency", func(t *testing.T) {
		cached, err := EfficiencyStudyParallel(suite, 64, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []EffRow
		withFreshBatchStreams(t, func() {
			fresh, err = EfficiencyStudyParallel(suite, 64, 7, 4)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("memoized efficiency study differs from fresh preparation")
		}
	})

	t.Run("timingsweep", func(t *testing.T) {
		render := func(rows []TimingRow) []byte {
			var buf bytes.Buffer
			WriteTimingSweep(&buf, rows)
			return buf.Bytes()
		}
		cached, err := TimingSweepParallel(suite, 32, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []TimingRow
		withFreshBatchStreams(t, func() {
			fresh, err = TimingSweepParallel(suite, 32, 3, 4)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(cached), render(fresh)) {
			t.Fatal("memoized timing sweep differs from fresh preparation")
		}
	})
}

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
