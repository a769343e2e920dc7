package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"simr/internal/alloc"
	"simr/internal/simt"
	"simr/internal/uservices"
)

// TestPipelinedOrder checks the pipeline's core contract: every unit
// is prepared exactly once into the slot the consumer reads, and
// consumption happens in strict unit order at every lookahead.
func TestPipelinedOrder(t *testing.T) {
	for _, la := range []int{0, 1, 2, 4, 8, 40} {
		const n = 25
		nslots := la + 1
		if nslots > n {
			nslots = n
		}
		slots := make([]int, nslots)
		next := 0
		err := pipelined(n, la,
			func(slot, i int) error {
				slots[slot] = i * i
				return nil
			},
			func(slot, i int) {
				if i != next {
					t.Fatalf("la=%d: consumed unit %d before unit %d", la, i, next)
				}
				next++
				if slots[slot] != i*i {
					t.Fatalf("la=%d: slot %d holds %d for unit %d", la, slot, slots[slot], i)
				}
			})
		if err != nil {
			t.Fatalf("la=%d: %v", la, err)
		}
		if next != n {
			t.Fatalf("la=%d: consumed %d of %d units", la, next, n)
		}
	}
}

// TestPipelinedError checks the sequential error contract survives
// pipelining: the lowest-index prep error is returned and no unit at
// or past it is consumed.
func TestPipelinedError(t *testing.T) {
	boom := errors.New("boom")
	for _, la := range []int{0, 1, 3, 7} {
		for _, fail := range []int{0, 1, 5, 19} {
			consumed := 0
			err := pipelined(20, la,
				func(slot, i int) error {
					if i >= fail {
						return fmt.Errorf("unit %d: %w", i, boom)
					}
					return nil
				},
				func(slot, i int) { consumed++ })
			if !errors.Is(err, boom) {
				t.Fatalf("la=%d fail=%d: err = %v", la, fail, err)
			}
			if want := fmt.Sprintf("unit %d: boom", fail); err.Error() != want {
				t.Fatalf("la=%d fail=%d: got %q, want lowest-index error %q", la, fail, err.Error(), want)
			}
			if consumed != fail {
				t.Fatalf("la=%d fail=%d: consumed %d units", la, fail, consumed)
			}
		}
	}
}

func TestPipelinedEmpty(t *testing.T) {
	if err := pipelined(0, 4, nil, nil); err != nil {
		t.Fatal(err)
	}
	ran := false
	err := pipelined(1, 4,
		func(slot, i int) error { return nil },
		func(slot, i int) { ran = true })
	if err != nil || !ran {
		t.Fatalf("n=1: err=%v ran=%v", err, ran)
	}
}

func TestPrepBudget(t *testing.T) {
	p := DefaultWorkers()
	if got := prepBudget(100, 1); got != min(p-1, maxPrepLookahead) {
		t.Fatalf("one worker should get the whole spare budget, got %d", got)
	}
	if got := prepBudget(100, p); got != 0 {
		t.Fatalf("a fully staffed pool has no spare CPUs, got %d", got)
	}
	SetPrepLookahead(3)
	if got := prepBudget(100, p); got != 3 {
		t.Fatalf("override ignored, got %d", got)
	}
	SetPrepLookahead(-1)
	if got := prepBudget(100, p); got != 0 {
		t.Fatalf("override not cleared, got %d", got)
	}
}

// TestPrepPipelineDeterminism is the tentpole guarantee: every
// architecture's RunService result is identical — field for field,
// including the float accumulation order — at any prep lookahead. The
// service set covers the atomic/spin-heavy path (uniqueid) and the
// variants cover ideal IPDOM reconvergence and a tight spin window.
func TestPrepPipelineDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	arches := []Arch{ArchCPU, ArchSMT8, ArchRPU, ArchGPU}
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"base", func(o *Options) {}},
		{"ipdom", func(o *Options) { o.UseIPDOM = true }},
		{"tightspin", func(o *Options) { o.Spin = &simt.SpinConfig{Window: 4, MinAtomics: 1, Grant: 4} }},
	}
	for _, name := range []string{"memc", "uniqueid", "user"} {
		svc := suite.Get(name)
		reqs := genRequests(svc, 48, 7)
		for _, arch := range arches {
			for _, v := range variants {
				if v.name != "base" && arch != ArchRPU {
					continue // reconvergence/spin options only shape RPU runs
				}
				t.Run(fmt.Sprintf("%s/%v/%s", name, arch, v.name), func(t *testing.T) {
					var oracle *Result
					for _, la := range []int{0, 1, 4} {
						opts := DefaultOptions()
						opts.PrepLookahead = la
						v.mutate(&opts)
						res, err := RunService(arch, svc, reqs, opts)
						if err != nil {
							t.Fatalf("lookahead %d: %v", la, err)
						}
						if la == 0 {
							oracle = res
							continue
						}
						if !reflect.DeepEqual(oracle, res) {
							t.Fatalf("lookahead %d differs from sequential oracle", la)
						}
					}
				})
			}
		}
	}
}

// TestPrepLookaheadOutOfRange drives lookaheads far past any run's
// unit count, through the process-wide override and through Options:
// the override must keep its value (no int32 wrap to a negative or to
// 0), the runners must size their prep slots by the units they have,
// and each run must match the sequential result field for field.
func TestPrepLookaheadOutOfRange(t *testing.T) {
	defer SetPrepLookahead(-1)
	svc := uservices.NewSuite().Get("memc")
	reqs := genRequests(svc, 64, 7)
	cases := []struct {
		name     string
		override int
		opt      int
	}{
		{"SetPrepLookahead(MaxInt32)", math.MaxInt32, PrepAuto},
		{"SetPrepLookahead(1<<32)", 1 << 32, PrepAuto},
		{"Options.PrepLookahead=1<<30", -1, 1 << 30},
	}
	for _, arch := range []Arch{ArchCPU, ArchSMT8, ArchRPU} {
		opts := DefaultOptions()
		opts.PrepLookahead = 0
		want, err := RunService(arch, svc, reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			SetPrepLookahead(c.override)
			if c.override >= 0 {
				if got := prepBudget(1, 1); got != c.override {
					t.Fatalf("%s: override resolved to %d", c.name, got)
				}
			}
			opts.PrepLookahead = c.opt
			got, err := RunService(arch, svc, reqs, opts)
			if err != nil {
				t.Fatalf("%v %s: %v", arch, c.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%v %s: differs from the lookahead-0 result", arch, c.name)
			}
		}
	}
}

// TestPrepPipelineUnderSweep drives runBatched with lookahead >= 2
// inside concurrent sweep cells; under -race this is the integration
// race test for the prep pipeline sharing trace caches and request
// streams across cells.
func TestPrepPipelineUnderSweep(t *testing.T) {
	SetPrepLookahead(2)
	defer SetPrepLookahead(-1)
	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 64, 7)
	cpu, rows, err := BatchSweep(svc, reqs, []int{8, 16, 32}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cpu == nil || len(rows) != 3 {
		t.Fatalf("cpu=%v rows=%d", cpu, len(rows))
	}
	chip, err := ChipStudyParallel(suite, 32, 3, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	SetPrepLookahead(0)
	seq, err := ChipStudyParallel(suite, 32, 3, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chip, seq) {
		t.Fatal("pipelined sweep differs from sequential-prep sweep")
	}
}

// TestSweepCachesAbort is the regression test for the error-path leak:
// cells abandoned by RunCells never call done, so without abort a
// failed sweep strands its cache bytes against the shared budget.
func TestSweepCachesAbort(t *testing.T) {
	suite := uservices.NewSuite()
	svcs := []*uservices.Service{suite.Get("memc"), suite.Get("user")}
	sw := newSweepCaches(svcs, 2, true, true)
	for s := range svcs {
		reqs := sw.requests(s, 8, 3)
		sg := alloc.NewStackGroup(0, len(reqs), true)
		for i := range reqs {
			if _, err := sw.cache(s).Request(&reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 32, 8); err != nil {
				t.Fatal(err)
			}
		}
		if sw.cache(s).Stats().Bytes == 0 {
			t.Fatalf("service %d cached nothing", s)
		}
	}
	// One of service 0's two cells finishes before the sweep fails; the
	// other cells are abandoned and never call done.
	sw.done(0)
	sw.abort()
	for s := range svcs {
		if got := sw.cache(s).Stats().Bytes; got != 0 {
			t.Fatalf("service %d still holds %d bytes after abort", s, got)
		}
	}
}
