package core

import (
	"io"
	"reflect"
	"testing"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/mem"
	"simr/internal/simt"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// TestTracerMatchesTraceBatch: a slot tracer, uncached and through a
// trace cache, returns exactly the fresh interpretation of every lane,
// keeps a batch's lanes valid together, and stays exact when its
// buffers, context and arena are reused for the next batch.
func TestTracerMatchesTraceBatch(t *testing.T) {
	svc := uservices.NewSuite().Get("memc")
	reqs := genRequests(svc, 24, 11)
	for _, tc := range []*trace.Cache{nil, trace.NewCache(svc, nil)} {
		tr := tracer{svc: svc, tc: tc}
		for _, part := range [][]uservices.Request{reqs[:8], reqs[8:12], reqs[12:]} {
			sg := alloc.NewStackGroup(0, len(part), true)
			got, err := tr.batch(part, sg, alloc.PolicySIMR, 8)
			if err != nil {
				t.Fatal(err)
			}
			want, err := svc.TraceBatch(part, sg, alloc.PolicySIMR, lineBytes, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cached=%v: tracer batch differs from TraceBatch", tc != nil)
			}
		}
	}
}

// TestSlotPrepAllocs: once warmed, a slot's uncached prep — one scalar
// request traced and converted to uops, and one RPU batch traced,
// lock-stepped and built — allocates nothing.
func TestSlotPrepAllocs(t *testing.T) {
	svc := uservices.NewSuite().Get("memc")
	reqs := genRequests(svc, 64, 3)
	b := batch.Form(reqs, svc.TunedBatch, batch.PerAPIArgSize)[0]
	banks := MemConfig(ArchRPU).L1.Banks
	spin := simt.DefaultSpin

	tr := tracer{svc: svc}
	var ub uopBuilder
	cpuSG := alloc.NewStackGroup(0, 1, false)
	scalar := func() {
		ops, err := tr.request(&reqs[0], 0, 0, cpuSG.StackBase(0), alloc.PolicyCPU, 1)
		if err != nil {
			t.Fatal(err)
		}
		ub.reset()
		ub.scalarUops(ops, 0)
	}

	var sc simt.Scratch
	var mcu mem.MCUStats
	sg := alloc.NewStackGroup(0, len(b.Requests), true)
	rpu := func() {
		traces, err := tr.batch(b.Requests, sg, alloc.PolicySIMR, banks)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := simt.RunMinSPPCWith(&sc, traces, svc.TunedBatch, &spin)
		if err != nil {
			t.Fatal(err)
		}
		ub.reset()
		ub.batchUops(merged.Ops, sg, true, &mcu)
	}

	for _, c := range []struct {
		name string
		fn   func()
	}{{"scalar request", scalar}, {"rpu batch", rpu}} {
		c.fn()
		if n := testing.AllocsPerRun(20, c.fn); n != 0 {
			t.Errorf("%s: warmed uncached prep allocates %v allocs/op, want 0", c.name, n)
		}
	}
}

// TestSweepCachesAreRead: every cache a sweep driver hands its cells is
// read by some other cell (hits > 0), so no driver retains products
// nobody reuses, and each driver hands out exactly the caches its cell
// grid reads (scalar traces, batch streams).
func TestSweepCachesAreRead(t *testing.T) {
	suite := uservices.NewSuite()
	svcs := []*uservices.Service{suite.Get("memc"), suite.Get("user"), suite.Get("hdsearch-leaf")}
	sub := &uservices.Suite{Services: svcs}
	const (
		requests = 64
		seed     = 3
		workers  = 2
	)
	drivers := []struct {
		name          string
		scalar, batch bool
		run           func() error
	}{
		{"chip", false, false, func() error { _, err := ChipStudyParallel(sub, requests, seed, false, workers); return err }},
		{"chip+gpu", false, false, func() error { _, err := ChipStudyParallel(sub, requests, seed, true, workers); return err }},
		{"timing", false, false, func() error { _, err := TimingSweepParallel(sub, requests, seed, workers); return err }},
		{"efficiency", true, false, func() error { _, err := EfficiencyStudyParallel(sub, requests, seed, workers); return err }},
		{"mpki", true, false, func() error { _, err := MPKIStudyParallel(sub, requests, seed, workers); return err }},
		{"sensitivity", true, true, func() error { return SensitivityStudyParallel(io.Discard, sub, nil, requests, seed, workers) }},
		{"multibatch", false, false, func() error { _, err := MultiBatchSweep(sub, seed, workers); return err }},
		{"batchsweep", true, false, func() error {
			_, _, err := BatchSweep(svcs[0], genRequests(svcs[0], requests, seed), []int{32, 16, 8}, workers)
			return err
		}},
	}
	defer func() { sweepBuilt = nil }()
	for _, d := range drivers {
		var built []*sweepCaches
		sweepBuilt = func(sw *sweepCaches) { built = append(built, sw) }
		if err := d.run(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		scalar, batch := false, false
		for _, sw := range built {
			for s, svc := range sw.svcs {
				if c := sw.cache(s); c != nil {
					scalar = true
					if c.Stats().Hits == 0 {
						t.Errorf("%s: %s's scalar-trace cache was never read: %+v", d.name, svc.Name, c.Stats())
					}
				}
				if c := sw.batchCache(s); c != nil {
					batch = true
					if c.Stats().Hits == 0 {
						t.Errorf("%s: %s's batch-stream cache was never read: %+v", d.name, svc.Name, c.Stats())
					}
				}
			}
		}
		if scalar != d.scalar || batch != d.batch {
			t.Errorf("%s caches scalar traces=%v, batch streams=%v; want %v, %v",
				d.name, scalar, batch, d.scalar, d.batch)
		}
	}
}
