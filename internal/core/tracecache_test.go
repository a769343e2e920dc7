package core

import (
	"bytes"
	"reflect"
	"testing"

	"simr/internal/uservices"
)

// withFreshTraces runs fn with the sweep-level trace cache disabled so
// every cell interprets its requests from scratch (the pre-cache code
// path).
func withFreshTraces(t *testing.T, fn func()) {
	t.Helper()
	disableTraceCache = true
	defer func() { disableTraceCache = false }()
	fn()
}

// TestTraceCacheStudyDeterminism is the tentpole guarantee of the
// trace cache: for every study, a cached sweep (on several workers, so
// the cache is exercised concurrently — run under -race this is also
// the cache's integration race test) renders byte-identically to a
// fresh-interpretation sweep.
func TestTraceCacheStudyDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	const workers = 4

	// The chip study no longer caches scalar traces; its fresh
	// interpretation is held to the fixture the cached study wrote.
	t.Run("chip", func(t *testing.T) {
		var (
			fresh []ChipRow
			err   error
		)
		withFreshTraces(t, func() {
			fresh, err = ChipStudyParallel(suite, 32, 3, true, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGoldenFile(t, "testdata/golden_chip.txt", renderChipGolden(t, fresh))
	})

	t.Run("efficiency", func(t *testing.T) {
		cached, err := EfficiencyStudyParallel(suite, 64, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []EffRow
		withFreshTraces(t, func() {
			fresh, err = EfficiencyStudyParallel(suite, 64, 7, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached efficiency study differs from fresh interpretation")
		}
	})

	t.Run("mpki", func(t *testing.T) {
		cached, err := MPKIStudyParallel(suite, 32, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []MPKIRow
		withFreshTraces(t, func() {
			fresh, err = MPKIStudyParallel(suite, 32, 3, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached MPKI study differs from fresh interpretation")
		}
	})

	t.Run("sensitivity", func(t *testing.T) {
		var cached, fresh bytes.Buffer
		if err := SensitivityStudyParallel(&cached, suite, []string{"urlshort", "memc"}, 64, 3, workers); err != nil {
			t.Fatal(err)
		}
		var err error
		withFreshTraces(t, func() {
			err = SensitivityStudyParallel(&fresh, suite, []string{"urlshort", "memc"}, 64, 3, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if cached.String() != fresh.String() {
			t.Fatal("cached sensitivity report differs from fresh interpretation")
		}
	})

	t.Run("multibatch", func(t *testing.T) {
		cached, err := MultiBatchSweep(suite, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []MultiBatchRow
		withFreshTraces(t, func() {
			fresh, err = MultiBatchSweep(suite, 3, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached multi-batch sweep differs from fresh interpretation")
		}
	})

	t.Run("batchsweep", func(t *testing.T) {
		svc := suite.Get("memc")
		reqs := genRequests(svc, 64, 3)
		sizes := []int{32, 8}
		cpuC, cached, err := BatchSweep(svc, reqs, sizes, workers)
		if err != nil {
			t.Fatal(err)
		}
		var (
			cpuF  *Result
			fresh []BatchSweepRow
		)
		withFreshTraces(t, func() {
			cpuF, fresh, err = BatchSweep(svc, reqs, sizes, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cpuC, cpuF) || !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached batch sweep differs from fresh interpretation")
		}
	})
}
