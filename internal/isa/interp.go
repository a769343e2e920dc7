package isa

import "fmt"

// DefaultMaxOps bounds a single request's dynamic instruction count.
// Real microservice requests execute 10^3..10^5 instructions; the bound
// exists to turn a buggy non-terminating program into an error.
const DefaultMaxOps = 2_000_000

type frame struct {
	prog *Program
	ret  int // block ID in prog to resume at
}

// Execute runs the linked program for one request context and returns
// the dynamic scalar trace. ctx.SP is initialised from ctx.StackBase.
// maxOps <= 0 selects DefaultMaxOps.
func Execute(top *Program, ctx *Ctx, maxOps int) ([]TraceOp, error) {
	return ExecuteBuf(top, ctx, maxOps, nil)
}

// ExecuteBuf is Execute appending into buf's backing array (from
// buf[:0]), letting callers that do not retain the trace reuse one
// buffer across requests; a buf without capacity is replaced by one
// sized from the program's last trace length. The returned slice
// aliases buf when it had capacity; it is NOT safe to reuse buf until
// the caller is done with the trace. ctx may be reused as well: its
// scratch slots are zeroed and its call stack emptied on entry,
// keeping their capacity.
func ExecuteBuf(top *Program, ctx *Ctx, maxOps int, buf []TraceOp) ([]TraceOp, error) {
	if !top.linked {
		return nil, fmt.Errorf("isa: program %q executed before Link", top.Name)
	}
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	if cap(buf) == 0 {
		hint := int(top.traceLen.Load()) + 64
		if hint < 1024 {
			hint = 1024
		}
		buf = make([]TraceOp, 0, hint)
	}
	if need := top.MaxSlots(); cap(ctx.Slots) < need {
		ctx.Slots = make([]uint64, need)
	} else {
		ctx.Slots = ctx.Slots[:need]
		clear(ctx.Slots)
	}
	ctx.SP = ctx.StackBase

	// depth is StackBase - SP, the stack depth every op records. Only
	// calls and returns move SP, so setDepth refreshes it after each,
	// rejecting a depth the 32-bit TraceOp.SP cannot hold.
	var depth uint32
	setDepth := func(p *Program) error {
		d := ctx.StackBase - ctx.SP
		if d >= MaxPC {
			return fmt.Errorf("isa: %q reached stack depth %#x, past the 32-bit depth field", p.Name, d)
		}
		depth = uint32(d)
		return nil
	}

	ops := buf[:0]
	emit := func(in *Instr) error {
		if len(ops) >= maxOps {
			return fmt.Errorf("isa: program %q exceeded %d dynamic instructions", top.Name, maxOps)
		}
		if in.Eff != nil {
			in.Eff(ctx)
		}
		op := TraceOp{PC: uint32(in.PC), SP: depth, Class: in.Class, Size: in.Size}
		if in.Addr != nil {
			op.Addr = in.Addr(ctx)
		}
		// A distance reaching before the trace's first op is dropped.
		if len(ops) >= int(in.Dep1) {
			op.Dep1 = in.Dep1
		}
		if len(ops) >= int(in.Dep2) {
			op.Dep2 = in.Dep2
		}
		ops = append(ops, op)
		return nil
	}
	// emitCtl appends a control-flow instruction (branch/jump/call/ret).
	emitCtl := func(pc uint64, class Class, taken bool) error {
		if len(ops) >= maxOps {
			return fmt.Errorf("isa: program %q exceeded %d dynamic instructions", top.Name, maxOps)
		}
		op := TraceOp{PC: uint32(pc), SP: depth, Class: class, Taken: taken}
		if class == Branch && len(ops) > 0 {
			// A conditional branch consumes the value produced just
			// before it (compare-and-branch idiom).
			op.Dep1 = 1
		}
		ops = append(ops, op)
		return nil
	}

	prog := top
	blk := prog.Blocks[prog.Entry]
	stack := ctx.frames[:0]

	for {
		for i := range blk.Instrs {
			if err := emit(&blk.Instrs[i]); err != nil {
				return nil, err
			}
		}
		t := &blk.Term
		if t.Eff != nil {
			t.Eff(ctx)
		}
		switch t.Kind {
		case TermFall:
			blk = prog.Blocks[t.Fall]
		case TermBr:
			taken := t.Cond(ctx)
			if err := emitCtl(t.PC, Branch, taken); err != nil {
				return nil, err
			}
			if taken {
				blk = prog.Blocks[t.Taken]
			} else {
				blk = prog.Blocks[t.Fall]
			}
		case TermJmp:
			if err := emitCtl(t.PC, Jump, true); err != nil {
				return nil, err
			}
			blk = prog.Blocks[t.Taken]
		case TermCall:
			if err := emitCtl(t.PC, CallOp, true); err != nil {
				return nil, err
			}
			stack = append(stack, frame{prog: prog, ret: t.Fall})
			ctx.SP -= t.Callee.FrameBytes
			if err := setDepth(t.Callee); err != nil {
				return nil, err
			}
			prog = t.Callee
			blk = prog.Blocks[prog.Entry]
		case TermRet:
			if err := emitCtl(t.PC, RetOp, true); err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("isa: %q returned with empty call stack", prog.Name)
			}
			ctx.SP += prog.FrameBytes
			if err := setDepth(prog); err != nil {
				return nil, err
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			prog = f.prog
			blk = prog.Blocks[f.ret]
		case TermEnd:
			if len(stack) != 0 {
				return nil, fmt.Errorf("isa: %q ended with %d live frames", prog.Name, len(stack))
			}
			top.traceLen.Store(int64(len(ops)))
			ctx.frames = stack
			return ops, nil
		default:
			return nil, fmt.Errorf("isa: %q block %d has invalid terminator", prog.Name, blk.ID)
		}
	}
}
