package simt

import (
	"math/rand"
	"testing"

	"simr/internal/isa"
)

func TestBatchTooWideRejected(t *testing.T) {
	traces := make([][]isa.TraceOp, MaxBatch+1)
	for i := range traces {
		traces[i] = []isa.TraceOp{{PC: 4, Class: isa.IAlu}}
	}
	if _, err := RunMinSPPC(traces, 0, nil); err == nil {
		t.Fatal("expected error for oversized batch")
	}
	if _, err := RunIPDOM(traces, 0, nil); err == nil {
		t.Fatal("expected error for oversized batch (ipdom)")
	}
	if _, err := RunMinSPPC(nil, 0, nil); err == nil {
		t.Fatal("expected error for empty batch")
	}
}

func TestClassMismatchDetected(t *testing.T) {
	traces := [][]isa.TraceOp{
		{{PC: 4, SP: 0, Class: isa.IAlu}},
		{{PC: 4, SP: 0, Class: isa.FAlu}},
	}
	if _, err := RunMinSPPC(traces, 0, nil); err == nil {
		t.Fatal("expected class-mismatch error")
	}
}

func TestIPDOMMissingReconvFails(t *testing.T) {
	// A divergent branch with no reconvergence entry must error.
	traces := [][]isa.TraceOp{
		{
			{PC: 4, Class: isa.Branch, Taken: true},
			{PC: 8, Class: isa.IAlu},
		},
		{
			{PC: 4, Class: isa.Branch, Taken: false},
			{PC: 12, Class: isa.IAlu},
		},
	}
	if _, err := RunIPDOM(traces, 0, map[uint64]uint64{}); err == nil {
		t.Fatal("expected missing-reconvergence error")
	}
	if _, err := RunIPDOM(traces, 0, map[uint64]uint64{4: 16}); err != nil {
		t.Fatalf("with reconv map: %v", err)
	}
}

// buildNested builds doubly nested data-dependent loops — the stress
// case for reconvergence bookkeeping.
func buildNested(t *testing.T) (*isa.Program, map[uint64]uint64) {
	t.Helper()
	b := isa.NewProgram("nested")
	b.Loop(func(c *isa.Ctx) int { return int(c.Arg0(0)) }, func(b *isa.Builder) {
		b.Ops(isa.IAlu, 1)
		b.Loop(func(c *isa.Ctx) int { return int(c.Arg0(1)) }, func(b *isa.Builder) {
			b.If(func(c *isa.Ctx) bool { return c.Rand.Intn(2) == 0 },
				func(b *isa.Builder) { b.Ops(isa.FAlu, 1) },
				func(b *isa.Builder) { b.Ops(isa.Simd, 2) })
		})
	})
	b.Ops(isa.IAlu, 3)
	p := b.Build()
	if _, err := isa.Link(0x8000, p); err != nil {
		t.Fatal(err)
	}
	return p, p.BranchReconv()
}

func TestNestedDivergenceBothExecutors(t *testing.T) {
	p, rec := buildNested(t)
	traces := make([][]isa.TraceOp, 8)
	for i := range traces {
		ctx := &isa.Ctx{
			Arg:       []uint64{uint64(1 + i%4), uint64(1 + (i*7)%5)},
			StackBase: 1 << 30,
			Heap:      &bumpHeap{},
			Rand:      rand.New(rand.NewSource(int64(i))),
			TID:       i,
		}
		ops, err := isa.Execute(p, ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = ops
	}
	a, err := RunMinSPPC(traces, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	conservation(t, traces, a)
	b, err := RunIPDOM(traces, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	conservation(t, traces, b)
	// Structured programs: both schemes find identical reconvergence.
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("minsp-pc %d ops vs ipdom %d ops", len(a.Ops), len(b.Ops))
	}
	if a.Efficiency() != b.Efficiency() {
		t.Fatalf("efficiencies differ: %v vs %v", a.Efficiency(), b.Efficiency())
	}
}

func TestDepsMapToBatchIndices(t *testing.T) {
	b := isa.NewProgram("d")
	b.OpsChain(isa.IAlu, 6, 1)
	p := b.Build()
	if _, err := isa.Link(0, p); err != nil {
		t.Fatal(err)
	}
	traces := traceN(t, p, [][]uint64{{}, {}})
	res, err := RunMinSPPC(traces, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Ops {
		op := &res.Ops[i]
		if op.Dep1 >= int32(i) || op.Dep2 >= int32(i) {
			t.Fatalf("op %d has forward batch dep %d/%d", i, op.Dep1, op.Dep2)
		}
		if i > 0 && op.Class == isa.IAlu && op.Dep1 < 0 && i >= 2 {
			// ops 2.. of the chain must carry a dependency
			if i >= 2 && i < 6 {
				t.Fatalf("chain op %d lost its dependency", i)
			}
		}
	}
}

func TestEfficiencyAccountsEmptyResult(t *testing.T) {
	r := &Result{BatchSize: 32}
	if r.Efficiency() != 0 {
		t.Fatal("empty result efficiency should be 0")
	}
}

func TestActiveLanes(t *testing.T) {
	op := BatchOp{Mask: 0b1011}
	if op.ActiveLanes() != 3 {
		t.Fatalf("lanes %d", op.ActiveLanes())
	}
}

func TestIPDOMDefaultBatchSizeAndMultiKeySplit(t *testing.T) {
	// Two different programs in one batch force the IPDOM executor's
	// multi-key split path (threads that never shared a PC).
	b1 := isa.NewProgram("x")
	b1.Ops(isa.IAlu, 20)
	pa := b1.Build()
	b2 := isa.NewProgram("y")
	b2.Ops(isa.FAlu, 20)
	pb := b2.Build()
	if _, err := isa.Link(0x3000, pa, pb); err != nil {
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
	traces := [][]isa.TraceOp{mk(pa, 0), mk(pb, 1)}
	res, err := RunIPDOM(traces, 0, map[uint64]uint64{})
	if err != nil {
		t.Fatal(err)
	}
	conservation(t, traces, res)
	if res.BatchSize != 2 {
		t.Fatalf("default batch size %d", res.BatchSize)
	}
	if eff := res.Efficiency(); eff != 0.5 {
		t.Fatalf("disjoint programs efficiency %v, want 0.5", eff)
	}
}

func TestIPDOMCallDepthTieBreak(t *testing.T) {
	// The key order must prefer the deeper call when PCs compare against
	// different frames: a callee's ops (deeper) win over the caller's.
	f := isa.NewFunc("leaf")
	f.Ops(isa.IAlu, 4)
	leaf := f.Build()
	b := isa.NewProgram("deep")
	b.If(func(c *isa.Ctx) bool { return c.Arg0(0) == 1 },
		func(b *isa.Builder) { b.Call(leaf) },
		func(b *isa.Builder) { b.Ops(isa.IAlu, 2) })
	b.Ops(isa.IAlu, 2)
	p := b.Build()
	if _, err := isa.Link(0x6000, p); err != nil {
		t.Fatal(err)
	}
	traces := traceN(t, p, [][]uint64{{1}, {0}})
	res, err := RunMinSPPC(traces, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	conservation(t, traces, res)
	// The final straight-line ops must reconverge both threads.
	if res.Ops[len(res.Ops)-1].Mask != 0x3 {
		t.Fatal("call/no-call paths did not reconverge")
	}
	// Packed-key direct checks: deeper (larger depth) wins; PC breaks ties.
	if !(packKey(128, 100) < packKey(0, 4)) {
		t.Fatal("deeper call must be selected first")
	}
	if !(packKey(0, 4) < packKey(0, 8)) {
		t.Fatal("lower PC must win at equal depth")
	}
	if !(packKey(1<<32-1, 1<<32-1) < packKey(1<<32-2, 0)) {
		t.Fatal("depth must outrank PC across the whole 32-bit range")
	}
}

// TestRunMinSPPCWithAllocs: a warmed scratch lock-steps a batch of
// divergent traces without allocating — cursors, the scalar-to-batch
// index map, the op and address arenas all reuse their first growth.
func TestRunMinSPPCWithAllocs(t *testing.T) {
	p, _ := buildDivergent(t)
	args := make([][]uint64, 32)
	for i := range args {
		args[i] = []uint64{uint64(i), uint64(i % 5)}
	}
	traces := traceN(t, p, args)
	var sc Scratch
	run := func() {
		if _, err := RunMinSPPCWith(&sc, traces, 32, &DefaultSpin); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Errorf("warmed RunMinSPPCWith allocates %v times per batch, want 0", n)
	}
}
