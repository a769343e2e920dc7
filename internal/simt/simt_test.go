package simt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simr/internal/isa"
)

type bumpHeap struct{ next uint64 }

func (h *bumpHeap) Alloc(n int) uint64 {
	b := h.next
	h.next += uint64(n)
	return b
}

// buildDivergent builds a program with a data-dependent branch and a
// variable-length loop, the two divergence sources.
func buildDivergent(t *testing.T) (*isa.Program, map[uint64]uint64) {
	t.Helper()
	b := isa.NewProgram("div")
	b.Ops(isa.IAlu, 3)
	b.If(func(c *isa.Ctx) bool { return c.Arg0(0)%2 == 0 },
		func(b *isa.Builder) { b.Ops(isa.IAlu, 6) },
		func(b *isa.Builder) { b.Ops(isa.FAlu, 2) })
	b.Loop(func(c *isa.Ctx) int { return int(c.Arg0(1)) }, func(b *isa.Builder) {
		b.Ops(isa.IAlu, 2)
	})
	b.Ops(isa.IAlu, 2)
	p := b.Build()
	if _, err := isa.Link(0x4000, p); err != nil {
		t.Fatal(err)
	}
	return p, p.BranchReconv()
}

func traceN(t *testing.T, p *isa.Program, args [][]uint64) [][]isa.TraceOp {
	t.Helper()
	traces := make([][]isa.TraceOp, len(args))
	for i, a := range args {
		ctx := &isa.Ctx{
			Arg:       a,
			StackBase: 1<<30 + uint64(i+1)<<20,
			Heap:      &bumpHeap{next: 1<<36 + uint64(i)<<24},
			Rand:      rand.New(rand.NewSource(int64(i))),
			TID:       i,
		}
		ops, err := isa.Execute(p, ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = ops
	}
	return traces
}

// conservation checks every scalar op was executed exactly once.
func conservation(t *testing.T, traces [][]isa.TraceOp, res *Result) {
	t.Helper()
	scalar := 0
	for _, tr := range traces {
		scalar += len(tr)
	}
	if res.ScalarOps != scalar {
		t.Fatalf("scalar count mismatch: %d vs %d", res.ScalarOps, scalar)
	}
	got := 0
	for i := range res.Ops {
		got += res.Ops[i].ActiveLanes()
	}
	if got != scalar {
		t.Fatalf("lane-op conservation failed: %d executed vs %d traced", got, scalar)
	}
	// Per-thread order: reconstruct each thread's sequence from the
	// batch stream and compare PCs.
	for tid, tr := range traces {
		j := 0
		for i := range res.Ops {
			if res.Ops[i].Mask&(1<<uint(tid)) == 0 {
				continue
			}
			if res.Ops[i].PC != uint64(tr[j].PC) {
				t.Fatalf("thread %d op %d: pc %#x, want %#x", tid, j, res.Ops[i].PC, tr[j].PC)
			}
			j++
		}
		if j != len(tr) {
			t.Fatalf("thread %d executed %d of %d ops", tid, j, len(tr))
		}
	}
}

func TestUniformBatchIsFullyEfficient(t *testing.T) {
	p, rec := buildDivergent(t)
	args := [][]uint64{{0, 3}, {0, 3}, {0, 3}, {0, 3}}
	traces := traceN(t, p, args)

	for name, run := range map[string]func() (*Result, error){
		"minsppc": func() (*Result, error) { return RunMinSPPC(traces, 0, nil) },
		"ipdom":   func() (*Result, error) { return RunIPDOM(traces, 0, rec) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conservation(t, traces, res)
		if eff := res.Efficiency(); eff != 1.0 {
			t.Fatalf("%s: uniform batch efficiency %v, want 1.0", name, eff)
		}
	}
}

func TestDivergentBatchReconverges(t *testing.T) {
	p, rec := buildDivergent(t)
	args := [][]uint64{{0, 2}, {1, 5}, {0, 7}, {1, 2}}
	traces := traceN(t, p, args)

	for name, run := range map[string]func() (*Result, error){
		"minsppc": func() (*Result, error) { return RunMinSPPC(traces, 0, nil) },
		"ipdom":   func() (*Result, error) { return RunIPDOM(traces, 0, rec) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conservation(t, traces, res)
		eff := res.Efficiency()
		if eff <= 0.3 || eff >= 1.0 {
			t.Fatalf("%s: efficiency %v outside (0.3, 1.0)", name, eff)
		}
		// The trailing straight-line code must reconverge: the last op
		// must have all four threads active.
		last := res.Ops[len(res.Ops)-1]
		if last.Mask != 0xF {
			t.Fatalf("%s: final op mask %#x, want 0xF (reconverged)", name, last.Mask)
		}
	}
}

func TestDisjointProgramsSerialize(t *testing.T) {
	// Two different programs (e.g. two APIs) in one batch: no shared
	// PCs, so efficiency must be the serialization floor.
	b1 := isa.NewProgram("a")
	b1.Ops(isa.IAlu, 50)
	pa := b1.Build()
	b2 := isa.NewProgram("b")
	b2.Ops(isa.FAlu, 50)
	pb := b2.Build()
	if _, err := isa.Link(0x1000, pa, pb); err != nil {
		t.Fatal(err)
	}

	mk := func(p *isa.Program, tid int) []isa.TraceOp {
		ctx := &isa.Ctx{StackBase: 1 << 30, Heap: &bumpHeap{}, Rand: rand.New(rand.NewSource(0)), TID: tid}
		ops, err := isa.Execute(p, ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	traces := [][]isa.TraceOp{mk(pa, 0), mk(pb, 1), mk(pa, 2), mk(pb, 3)}

	res, err := RunMinSPPC(traces, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	conservation(t, traces, res)
	if eff := res.Efficiency(); eff != 0.5 {
		t.Fatalf("two disjoint programs half-half: efficiency %v, want 0.5", eff)
	}
}

func TestBatchSizeDenominator(t *testing.T) {
	p, _ := buildDivergent(t)
	traces := traceN(t, p, [][]uint64{{0, 2}, {0, 2}})
	res, err := RunMinSPPC(traces, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 32 {
		t.Fatalf("batch size %d", res.BatchSize)
	}
	if eff := res.Efficiency(); eff > 2.0/32.0+1e-9 {
		t.Fatalf("efficiency %v exceeds occupancy bound", eff)
	}
}

func TestMemAddrsCarried(t *testing.T) {
	b := isa.NewProgram("m")
	b.LoadAt(8, func(c *isa.Ctx) uint64 { return 0x1000 + uint64(c.TID)*8 })
	p := b.Build()
	if _, err := isa.Link(0, p); err != nil {
		t.Fatal(err)
	}
	traces := traceN(t, p, [][]uint64{{}, {}, {}})
	res, err := RunMinSPPC(traces, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var loadOp *BatchOp
	for i := range res.Ops {
		if res.Ops[i].Class == isa.Load {
			loadOp = &res.Ops[i]
		}
	}
	if loadOp == nil {
		t.Fatal("no load in batch stream")
	}
	for tid := 0; tid < 3; tid++ {
		want := uint64(0x1000 + tid*8)
		if loadOp.Addrs[tid] != want {
			t.Fatalf("lane %d addr %#x, want %#x", tid, loadOp.Addrs[tid], want)
		}
	}
}

// Property test: MinSP-PC and IPDOM both conserve scalar ops and
// produce efficiencies in (0, 1] for arbitrary divergent arguments.
func TestQuickExecutorsConserve(t *testing.T) {
	p, rec := buildDivergent(t)
	f := func(a, b, c, d uint8) bool {
		args := [][]uint64{
			{uint64(a % 2), uint64(a % 9)},
			{uint64(b % 2), uint64(b % 9)},
			{uint64(c % 2), uint64(c % 9)},
			{uint64(d % 2), uint64(d % 9)},
		}
		traces := traceN(t, p, args)
		r1, err := RunMinSPPC(traces, 0, nil)
		if err != nil {
			return false
		}
		r2, err := RunIPDOM(traces, 0, rec)
		if err != nil {
			return false
		}
		for _, r := range []*Result{r1, r2} {
			total := 0
			for i := range r.Ops {
				total += r.Ops[i].ActiveLanes()
			}
			if total != r.ScalarOps {
				return false
			}
			if e := r.Efficiency(); e <= 0 || e > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpinTimeoutSwitchesPaths(t *testing.T) {
	// One thread takes a long atomic-spin path while another waits on a
	// short path at a higher PC; the mitigation should grant the waiter.
	b := isa.NewProgram("spin")
	b.If(func(c *isa.Ctx) bool { return c.Arg0(0) == 1 },
		func(b *isa.Builder) {
			b.LoopN(200, func(b *isa.Builder) {
				b.AtomicAt(8, func(*isa.Ctx) uint64 { return 0x9000 })
				b.Ops(isa.IAlu, 1)
			})
		},
		func(b *isa.Builder) { b.Ops(isa.IAlu, 2) })
	b.Ops(isa.IAlu, 4)
	p := b.Build()
	if _, err := isa.Link(0x2000, p); err != nil {
		t.Fatal(err)
	}
	traces := traceN(t, p, [][]uint64{{1}, {0}})

	spin := SpinConfig{Window: 16, MinAtomics: 4, Grant: 8}
	res, err := RunMinSPPC(traces, 0, &spin)
	if err != nil {
		t.Fatal(err)
	}
	conservation(t, traces, res)
	if res.PathSwitches == 0 {
		t.Fatal("expected at least one spin-timeout path switch")
	}

	// Without the mitigation: no switches, same conservation.
	res2, err := RunMinSPPC(traces, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PathSwitches != 0 {
		t.Fatal("switches without spin config")
	}
}
