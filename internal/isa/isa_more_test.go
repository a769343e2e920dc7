package isa

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestWhileLoop(t *testing.T) {
	b := NewProgram("w")
	cnt := b.Slot()
	b.Eff(func(c *Ctx) { c.Slots[cnt] = 0 })
	b.While(func(c *Ctx) bool { return c.Slots[cnt] < c.Arg0(0) }, func(b *Builder) {
		b.Op(FAlu)
		b.Eff(func(c *Ctx) { c.Slots[cnt]++ })
	})
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{0, 1, 7} {
		ops, err := Execute(p, newCtx(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, op := range ops {
			if op.Class == FAlu {
				got++
			}
		}
		if got != int(n) {
			t.Fatalf("while(%d): %d iterations", n, got)
		}
	}
}

func TestLoopIdxCountsUp(t *testing.T) {
	b := NewProgram("li")
	var seen []uint64
	b.LoopIdx(func(*Ctx) int { return 5 }, func(b *Builder, idx int) {
		b.Eff(func(c *Ctx) { seen = append(seen, c.Slots[idx]) })
	})
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(p, newCtx(), 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("induction sequence %v", seen)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("%d iterations", len(seen))
	}
}

func TestNestedControlFlow(t *testing.T) {
	b := NewProgram("n")
	b.Loop(func(c *Ctx) int { return int(c.Arg0(0)) }, func(b *Builder) {
		b.If(func(c *Ctx) bool { return c.Arg0(1) == 1 },
			func(b *Builder) {
				b.LoopN(2, func(b *Builder) { b.Op(Simd) })
			},
			func(b *Builder) { b.Op(FAlu) })
	})
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	count := func(args ...uint64) (simd, falu int) {
		ops, err := Execute(p, newCtx(args...), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			switch op.Class {
			case Simd:
				simd++
			case FAlu:
				falu++
			}
		}
		return
	}
	if s, f := count(3, 1); s != 6 || f != 0 {
		t.Fatalf("taken nest: simd=%d falu=%d", s, f)
	}
	if s, f := count(4, 0); s != 0 || f != 4 {
		t.Fatalf("fall nest: simd=%d falu=%d", s, f)
	}
}

func TestNestedCallsRestoreDepth(t *testing.T) {
	inner := NewFunc("inner")
	inner.Ops(IAlu, 1)
	pInner := inner.Build()

	outer := NewFunc("outer")
	outer.Ops(IAlu, 1)
	outer.Call(pInner)
	outer.Ops(IAlu, 1)
	pOuter := outer.Build()

	b := NewProgram("top")
	b.Call(pOuter)
	b.Ops(IAlu, 1)
	p := b.Build()
	if _, err := Link(0x100, p); err != nil {
		t.Fatal(err)
	}
	ops, err := Execute(p, newCtx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var maxDepth uint32
	for _, op := range ops {
		if op.SP > maxDepth {
			maxDepth = op.SP
		}
	}
	if maxDepth != 256 { // two nested 128-byte frames
		t.Fatalf("max depth %d, want 256", maxDepth)
	}
	if last := ops[len(ops)-1]; last.SP != 0 {
		t.Fatalf("final depth %d", last.SP)
	}
}

func TestCallToNonFuncPanics(t *testing.T) {
	svc := NewProgram("svc")
	svc.Ops(IAlu, 1)
	p := svc.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic calling a non-func program")
		}
	}()
	b := NewProgram("t")
	b.Call(p)
}

func TestBuildTwicePanics(t *testing.T) {
	b := NewProgram("t")
	b.Ops(IAlu, 1)
	b.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Build")
		}
	}()
	b.Build()
}

func TestExecuteUnlinkedFails(t *testing.T) {
	b := NewProgram("t")
	b.Ops(IAlu, 1)
	p := b.Build()
	if _, err := Execute(p, newCtx(), 0); err == nil {
		t.Fatal("expected error executing unlinked program")
	}
}

func TestSummarize(t *testing.T) {
	b := NewProgram("s")
	b.StackStore(16)
	b.LoadAt(8, func(*Ctx) uint64 { return 0x100 })
	b.Ops(IAlu, 3)
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	ops, err := Execute(p, newCtx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(ops, func(a uint64) bool { return a >= 1<<29 })
	if st.StackOps != 1 || st.HeapOps != 1 {
		t.Fatalf("summary %+v", st)
	}
	if st.ByClass[IAlu] != 3 || st.Total != len(ops) {
		t.Fatalf("summary %+v", st)
	}
}

func TestClassPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() || !Atomic.IsMem() || IAlu.IsMem() {
		t.Fatal("IsMem wrong")
	}
	if !Branch.IsCtl() || !Jump.IsCtl() || !CallOp.IsCtl() || !RetOp.IsCtl() || Load.IsCtl() {
		t.Fatal("IsCtl wrong")
	}
	if Class(200).String() != "invalid" {
		t.Fatal("invalid class string")
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "" || c.String() == "invalid" {
			t.Fatalf("class %d has no name", c)
		}
	}
}

func TestMaxSlotsIncludesCallees(t *testing.T) {
	f := NewFunc("f")
	f.Slot()
	f.Slot()
	f.Slot()
	pf := f.Build()

	b := NewProgram("t")
	b.Slot()
	b.Call(pf)
	p := b.Build()
	if p.MaxSlots() < 3 {
		t.Fatalf("MaxSlots %d", p.MaxSlots())
	}
}

func TestStaticInstrCount(t *testing.T) {
	b := NewProgram("t")
	b.Ops(IAlu, 5)
	b.If(func(*Ctx) bool { return true }, func(b *Builder) { b.Op(FAlu) }, nil)
	p := b.Build()
	// 5 IAlu + 1 FAlu + branch + jump = 8 encoded instructions.
	if got := p.StaticInstrCount(); got != 8 {
		t.Fatalf("static count %d", got)
	}
}

// Property: linking at any base preserves intra-program PC offsets.
func TestQuickLinkPreservesOffsets(t *testing.T) {
	build := func() *Program {
		b := NewProgram("t")
		b.Ops(IAlu, 4)
		b.If(func(c *Ctx) bool { return c.Arg0(0) > 0 },
			func(b *Builder) { b.Ops(FAlu, 2) }, nil)
		return b.Build()
	}
	ref := build()
	if _, err := Link(0, ref); err != nil {
		t.Fatal(err)
	}
	refOps, err := Execute(ref, newCtx(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(base uint32) bool {
		p := build()
		b := uint64(base>>1) &^ 3 // below 2^31: the code must end within MaxPC
		if _, err := Link(b, p); err != nil {
			return false
		}
		ops, err := Execute(p, newCtx(1), 0)
		if err != nil || len(ops) != len(refOps) {
			return false
		}
		for i := range ops {
			if uint64(ops[i].PC)-b != uint64(refOps[i].PC) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Arg0 never panics for any index.
func TestQuickArg0Safe(t *testing.T) {
	f := func(args []uint64, idx uint8) bool {
		c := &Ctx{Arg: args, Rand: rand.New(rand.NewSource(1))}
		v := c.Arg0(int(idx))
		if int(idx) < len(args) {
			return v == args[idx]
		}
		return v == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembleListsEverything(t *testing.T) {
	f := NewFunc("helper")
	f.Ops(IAlu, 1)
	pf := f.Build()
	b := NewProgram("svc")
	b.LoadAt(8, func(*Ctx) uint64 { return 0x10 })
	b.If(func(*Ctx) bool { return true }, func(b *Builder) { b.Op(FAlu) }, nil)
	b.Call(pf)
	p := b.Build()
	if _, err := Link(0x7000, p); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	p.Disassemble(&sb)
	out := sb.String()
	for _, want := range []string{"svc", "helper", "branch", "call", "[mem 8B]", "end", "ret", "reconv"} {
		if !strings.Contains(out, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, out)
		}
	}
}

// TestExecuteBufReusesCtx: a Ctx reused across requests behaves like a
// fresh one — a slot the previous run left dirty reads zero again and
// the call stack starts empty — and a warmed Ctx and buffer trace
// without allocating.
func TestExecuteBufReusesCtx(t *testing.T) {
	fb := NewFunc("callee")
	fb.Ops(IAlu, 2)
	callee := fb.Build()

	b := NewProgram("t")
	s := b.Slot()
	b.LoadAt(8, func(c *Ctx) uint64 { return 1<<20 + c.Slots[s] })
	b.Eff(func(c *Ctx) { c.Slots[s] = 64 })
	b.Call(callee)
	p := b.Build()
	if _, err := Link(0, p); err != nil {
		t.Fatal(err)
	}
	want, err := Execute(p, newCtx(), 0)
	if err != nil {
		t.Fatal(err)
	}

	ctx := newCtx()
	var buf []TraceOp
	for run := 0; run < 3; run++ {
		got, err := ExecuteBuf(p, ctx, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d on a reused Ctx differs from a fresh run", run)
		}
		buf = got
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ExecuteBuf(p, ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warmed ExecuteBuf allocates %v allocs/op, want 0", n)
	}
}

// TestTraceOpSize pins the scalar trace record at 24 bytes: every
// traced instruction of every request passes through one, so the
// interpreter, the lock-step merge and the uop builders all stream it.
func TestTraceOpSize(t *testing.T) {
	if n := unsafe.Sizeof(TraceOp{}); n != 24 {
		t.Fatalf("TraceOp is %d bytes, want 24", n)
	}
}

// TestNarrowFieldsRejectOverflow: TraceOp holds PCs and stack depths in
// 32 bits, so Link refuses code that would end past MaxPC and the
// interpreter refuses a call that takes the depth past it, instead of
// recording a wrapped value.
func TestNarrowFieldsRejectOverflow(t *testing.T) {
	small := func() *Program {
		b := NewProgram("t")
		b.Ops(IAlu, 4)
		return b.Build()
	}
	p := small()
	if _, err := Link(MaxPC-p.Size()+1, p); err == nil {
		t.Error("Link accepted code ending past MaxPC")
	}
	if _, err := Link(1<<40, small()); err == nil {
		t.Error("Link accepted a base past MaxPC")
	}
	p = small()
	next, err := Link(MaxPC-p.Size(), p)
	if err != nil || next != MaxPC {
		t.Fatalf("Link of code ending at MaxPC: next %#x, err %v", next, err)
	}
	ops, err := Execute(p, newCtx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if last := ops[len(ops)-1].PC; uint64(last) != MaxPC-InstrBytes {
		t.Errorf("last PC %#x, want %#x", last, MaxPC-InstrBytes)
	}

	deep := func(frame uint64) *Program {
		f := NewFunc("deep")
		f.Ops(IAlu, 1)
		callee := f.Build()
		callee.FrameBytes = frame
		b := NewProgram("top")
		b.Call(callee)
		top := b.Build()
		if _, err := Link(0x1000, top); err != nil {
			t.Fatal(err)
		}
		return top
	}
	ctx := newCtx()
	ctx.StackBase = 1 << 40
	if _, err := Execute(deep(MaxPC), ctx, 0); err == nil {
		t.Error("interpreter accepted a stack depth of MaxPC")
	}
	ops, err = Execute(deep(MaxPC-1), ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var maxDepth uint32
	for _, op := range ops {
		maxDepth = max(maxDepth, op.SP)
	}
	if maxDepth != MaxPC-1 {
		t.Errorf("max depth %#x, want %#x", maxDepth, uint64(MaxPC-1))
	}
}

// TestExecuteBufAllocs: a warmed buffer and context interpret a request
// without allocating — the trace, the scratch slots and the call stack
// all reuse what the first run grew.
func TestExecuteBufAllocs(t *testing.T) {
	callee := NewFunc("f")
	callee.OpsChain(IAlu, 4, 1)
	pf := callee.Build()
	b := NewProgram("top")
	b.LoopN(50, func(b *Builder) {
		b.Ops(IAlu, 2)
		b.StackStore(8)
		b.Call(pf)
	})
	p := b.Build()
	if _, err := Link(0x100, p); err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	buf, err := ExecuteBuf(p, ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if buf, err = ExecuteBuf(p, ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warmed ExecuteBuf allocates %v times per request, want 0", n)
	}
}
