package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

type bumpHeap struct{ next uint64 }

func (h *bumpHeap) Alloc(n int) uint64 {
	b := h.next
	h.next += uint64(n)
	return b
}

func newCtx(args ...uint64) *Ctx {
	return &Ctx{
		Arg:       args,
		StackBase: 1 << 30,
		Heap:      &bumpHeap{next: 1 << 20},
		Rand:      rand.New(rand.NewSource(1)),
	}
}

func TestBuildAssignsMonotonicPCs(t *testing.T) {
	b := NewProgram("t")
	b.Ops(IAlu, 3)
	b.If(func(c *Ctx) bool { return c.Arg0(0) > 0 },
		func(b *Builder) { b.Ops(IAlu, 2) },
		func(b *Builder) { b.Ops(FAlu, 1) })
	b.LoopN(2, func(b *Builder) { b.Ops(IAlu, 1) })
	p := b.Build()

	last := int64(-1)
	for _, blk := range p.Blocks {
		for _, in := range blk.Instrs {
			if int64(in.PC) <= last {
				t.Fatalf("non-monotonic PC %d after %d", in.PC, last)
			}
			last = int64(in.PC)
		}
		if blk.Term.Kind == TermBr || blk.Term.Kind == TermJmp {
			if int64(blk.Term.PC) <= last {
				t.Fatalf("terminator PC %d after %d", blk.Term.PC, last)
			}
			last = int64(blk.Term.PC)
		}
	}
	if p.Size() == 0 {
		t.Fatal("zero program size")
	}
}

func TestReconvPCIsAboveBranchPaths(t *testing.T) {
	b := NewProgram("t")
	b.If(func(c *Ctx) bool { return true },
		func(b *Builder) { b.Ops(IAlu, 5) },
		func(b *Builder) { b.Ops(IAlu, 3) })
	b.Ops(IAlu, 1)
	p := b.Build()
	if _, err := Link(0x1000, p); err != nil {
		t.Fatal(err)
	}
	rec := p.BranchReconv()
	if len(rec) != 1 {
		t.Fatalf("want 1 branch, got %d", len(rec))
	}
	for brPC, rPC := range rec {
		if rPC <= brPC {
			t.Fatalf("reconv pc %#x not above branch %#x", rPC, brPC)
		}
	}
}

func TestExecuteStraightLine(t *testing.T) {
	b := NewProgram("t")
	b.Ops(IAlu, 4)
	b.StackStore(16)
	b.StackLoad(16)
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	ops, err := Execute(p, newCtx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 6 {
		t.Fatalf("want 6 ops, got %d", len(ops))
	}
	if ops[4].Class != Store || ops[5].Class != Load {
		t.Fatalf("unexpected classes %v %v", ops[4].Class, ops[5].Class)
	}
	if ops[4].Addr != ops[5].Addr {
		t.Fatalf("stack store/load addresses differ: %#x %#x", ops[4].Addr, ops[5].Addr)
	}
}

func TestExecuteBranchBothSides(t *testing.T) {
	build := func() *Program {
		b := NewProgram("t")
		b.If(func(c *Ctx) bool { return c.Arg0(0) == 1 },
			func(b *Builder) { b.Ops(IAlu, 7) },
			func(b *Builder) { b.Ops(FAlu, 2) })
		return b.Build()
	}
	p := build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}

	taken, err := Execute(p, newCtx(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	fall, err := Execute(p, newCtx(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	countClass := func(ops []TraceOp, c Class) int {
		n := 0
		for _, op := range ops {
			if op.Class == c {
				n++
			}
		}
		return n
	}
	if countClass(taken, IAlu) != 7 || countClass(taken, FAlu) != 0 {
		t.Fatalf("taken path wrong: %d ialu %d falu", countClass(taken, IAlu), countClass(taken, FAlu))
	}
	if countClass(fall, FAlu) != 2 {
		t.Fatalf("fall path wrong: %d falu", countClass(fall, FAlu))
	}
	if !taken[0].Taken || fall[0].Taken {
		t.Fatalf("branch outcomes wrong: %v %v", taken[0].Taken, fall[0].Taken)
	}
}

func TestExecuteLoopCount(t *testing.T) {
	b := NewProgram("t")
	b.Loop(func(c *Ctx) int { return int(c.Arg0(1)) }, func(b *Builder) {
		b.Op(FAlu)
	})
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 5, 33} {
		ops, err := Execute(p, newCtx(0, uint64(n)), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, op := range ops {
			if op.Class == FAlu {
				got++
			}
		}
		if got != n {
			t.Fatalf("loop count %d: got %d body executions", n, got)
		}
	}
}

func TestCallPushesAndPopsStack(t *testing.T) {
	fb := NewFunc("callee")
	fb.Ops(IAlu, 2)
	callee := fb.Build()

	b := NewProgram("t")
	b.Ops(IAlu, 1)
	b.Call(callee)
	b.Ops(IAlu, 1)
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ops, err := Execute(p, ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.SP != ctx.StackBase {
		t.Fatalf("SP not restored: %#x vs %#x", ctx.SP, ctx.StackBase)
	}
	var sawCall, sawRet, sawPush, sawPop bool
	var callSP uint32
	for _, op := range ops {
		switch op.Class {
		case CallOp:
			sawCall = true
			callSP = op.SP
		case RetOp:
			sawRet = true
			if op.SP <= callSP {
				t.Fatalf("ret depth %#x not below call depth %#x", op.SP, callSP)
			}
		case Store:
			sawPush = true
		case Load:
			sawPop = true
		}
	}
	if !sawCall || !sawRet || !sawPush || !sawPop {
		t.Fatalf("missing call machinery: call=%v ret=%v push=%v pop=%v", sawCall, sawRet, sawPush, sawPop)
	}
	// Return-address push and pop must hit the same slot.
	var pushAddr, popAddr uint64
	for _, op := range ops {
		if op.Class == Store && pushAddr == 0 {
			pushAddr = op.Addr
		}
		if op.Class == Load {
			popAddr = op.Addr
		}
	}
	if pushAddr != popAddr {
		t.Fatalf("push addr %#x != pop addr %#x", pushAddr, popAddr)
	}
}

func TestDependencyIndicesValid(t *testing.T) {
	b := NewProgram("t")
	b.OpsChain(IAlu, 10, 1)
	b.LoopN(3, func(b *Builder) { b.OpsChain(FAlu, 2, 2) })
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	ops, err := Execute(p, newCtx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if int(op.Dep1) > i || int(op.Dep2) > i {
			t.Fatalf("op %d has a dependency distance %d/%d reaching before the trace", i, op.Dep1, op.Dep2)
		}
	}
}

func TestLinkTwiceFails(t *testing.T) {
	b := NewProgram("t")
	b.Ops(IAlu, 1)
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := Link(0x1000, p); err == nil {
		t.Fatal("expected error on double link")
	}
}

func TestMaxOpsGuard(t *testing.T) {
	b := NewProgram("t")
	b.LoopN(1000, func(b *Builder) { b.Ops(IAlu, 10) })
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(p, newCtx(), 100); err == nil {
		t.Fatal("expected max-ops error")
	}
}

// Property: for any pair of loop trip counts, executing the same
// program yields traces whose non-loop prefix and suffix match and
// whose SP fields return to the stack base.
func TestQuickLoopTraceShape(t *testing.T) {
	b := NewProgram("t")
	b.Ops(IAlu, 2)
	b.Loop(func(c *Ctx) int { return int(c.Arg0(1)) }, func(b *Builder) {
		b.Ops(IAlu, 3)
		b.StackStore(24)
	})
	b.Ops(Simd, 1)
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}

	f := func(n uint8) bool {
		trips := int(n % 50)
		ops, err := Execute(p, newCtx(0, uint64(trips)), 0)
		if err != nil {
			return false
		}
		stores := 0
		for _, op := range ops {
			if op.Class == Store {
				stores++
			}
			if op.SP != 0 {
				return false // no calls: depth must stay zero
			}
		}
		return stores == trips
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
