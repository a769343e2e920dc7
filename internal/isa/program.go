package isa

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Heap is the per-thread dynamic memory interface a program uses for
// `new`/`malloc`-style allocations. Implementations live in internal/alloc
// (the SIMR-agnostic CPU allocator and the SIMR-aware allocator).
type Heap interface {
	// Alloc reserves n bytes and returns the virtual start address.
	Alloc(n int) uint64
}

// Ctx is the per-thread (per-request) execution context: closures
// inside the static program read and write it to realise
// request-dependent behaviour. A caller tracing request after request
// may reuse one Ctx (see ExecuteBuf).
type Ctx struct {
	// Slots are scratch registers allocated by the Builder at program
	// construction time (loop counters, heap base pointers, ...).
	Slots []uint64
	// Arg carries the request encoded as integers by the workload
	// (API selector, key/query lengths, hash seeds, ...).
	Arg []uint64
	// SP is the current stack pointer; stacks grow downward.
	SP uint64
	// StackBase is the top of the thread's stack segment; SP starts here.
	StackBase uint64
	// Heap performs dynamic allocations for this thread.
	Heap Heap
	// Rand supplies per-request deterministic randomness.
	Rand *rand.Rand
	// TID is the thread's index within its batch.
	TID int

	// frames is the interpreter's call stack, kept for reuse.
	frames []frame
}

// Arg0 returns Arg[i] or 0 when absent; keeps workload closures concise.
func (c *Ctx) Arg0(i int) uint64 {
	if i < len(c.Arg) {
		return c.Arg[i]
	}
	return 0
}

// AddrFn computes a memory operand's virtual address for one thread.
type AddrFn func(*Ctx) uint64

// Instr is one static instruction. PC is assigned at build time and
// offset at link time.
type Instr struct {
	PC    uint64
	Class Class
	// Addr computes the access address; nil for non-memory classes.
	Addr AddrFn
	// Size is the access size in bytes for memory classes.
	Size uint8
	// Dep1 and Dep2 are backward dependency distances in dynamic
	// instruction order (0 = no dependency). They drive the out-of-order
	// timing model's dataflow scheduling.
	Dep1, Dep2 uint16
	// Eff is an optional side effect run when the instruction executes
	// (e.g. initialising a loop counter or recording a heap allocation).
	Eff func(*Ctx)
}

// TermKind discriminates block terminators.
type TermKind uint8

// Terminator kinds.
const (
	TermFall TermKind = iota // fall through to Fall block, no instruction
	TermBr                   // conditional branch instruction
	TermJmp                  // unconditional jump instruction
	TermCall                 // call instruction into Callee, resume at Fall
	TermRet                  // return instruction to caller
	TermEnd                  // end of service (top-level program only)
)

// Term ends a basic block.
type Term struct {
	Kind TermKind
	// PC of the terminator instruction (TermBr/TermJmp/TermCall/TermRet).
	PC uint64
	// Cond decides a TermBr: true takes Taken, false takes Fall.
	Cond func(*Ctx) bool
	// Taken and Fall are successor block IDs within the same program.
	Taken, Fall int
	// Reconv is the immediate post-dominator block ID of a TermBr —
	// the join block for If, the exit block for loops. The structured
	// builder knows it exactly, so the "ideal stack-based IPDOM"
	// executor needs no separate dominator analysis.
	Reconv int
	// Callee is the called program for TermCall.
	Callee *Program
	// Eff is an optional side effect run before Cond is evaluated
	// (e.g. a loop latch incrementing its induction variable).
	Eff func(*Ctx)
}

// Block is a basic block: straight-line instructions plus a terminator.
type Block struct {
	ID     int
	PC     uint64 // PC of the first instruction
	Instrs []Instr
	Term   Term
}

// Program is a linked control-flow graph for one service entry point or
// one callee function.
type Program struct {
	Name   string
	Blocks []*Block
	Entry  int
	// FrameBytes is the stack frame size charged on call.
	FrameBytes uint64
	// NumSlots is the Ctx scratch slot count required to execute.
	NumSlots int
	// Base is the global PC of the program's first instruction,
	// assigned by Link.
	Base uint64
	// size is the total encoded bytes, set at build time.
	size uint64
	// callees are the programs reachable through TermCall, recorded for
	// linking.
	callees []*Program
	linked  bool
	isFunc  bool
	// traceLen remembers the last dynamic trace length so Execute can
	// size its output buffer up front (requests of one program have
	// similar lengths; a wrong hint only costs a regrow, never changes
	// the trace).
	traceLen atomic.Int64
}

// Size returns the program's encoded size in bytes.
func (p *Program) Size() uint64 { return p.size }

// Linked reports whether global PCs have been assigned.
func (p *Program) Linked() bool { return p.linked }

// Link assigns disjoint global PC ranges to each program and,
// transitively, its callees. Programs already linked in the same pass
// are skipped; re-linking an already linked program is an error because
// closures in other structures may have captured its PCs, and so is
// code that would end past MaxPC.
func Link(base uint64, progs ...*Program) (next uint64, err error) {
	seen := map[*Program]bool{}
	var link func(p *Program) error
	link = func(p *Program) error {
		if seen[p] {
			return nil
		}
		if p.linked {
			return fmt.Errorf("isa: program %q linked twice", p.Name)
		}
		if base > MaxPC || p.size > MaxPC-base {
			return fmt.Errorf("isa: program %q at base %#x ends past the 32-bit PC space", p.Name, base)
		}
		seen[p] = true
		p.Base = base
		for _, b := range p.Blocks {
			b.PC += base
			for i := range b.Instrs {
				b.Instrs[i].PC += base
			}
			if b.Term.Kind != TermFall && b.Term.Kind != TermEnd {
				b.Term.PC += base
			}
		}
		p.linked = true
		base += p.size
		for _, c := range p.callees {
			if err := link(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range progs {
		if err := link(p); err != nil {
			return 0, err
		}
	}
	return base, nil
}

// MaxSlots returns the maximum NumSlots over the program and all its
// callees; contexts must allocate at least this many scratch slots.
func (p *Program) MaxSlots() int {
	max := p.NumSlots
	for _, c := range p.callees {
		if m := c.MaxSlots(); m > max {
			max = m
		}
	}
	return max
}

// BranchReconv returns the map from the global PC of each conditional
// branch to the global PC of its immediate post-dominator, for the
// program and all callees. The program must be linked.
func (p *Program) BranchReconv() map[uint64]uint64 {
	m := map[uint64]uint64{}
	p.branchReconv(m, map[*Program]bool{})
	return m
}

func (p *Program) branchReconv(m map[uint64]uint64, seen map[*Program]bool) {
	if seen[p] {
		return
	}
	seen[p] = true
	for _, b := range p.Blocks {
		if b.Term.Kind == TermBr {
			m[b.Term.PC] = p.Blocks[b.Term.Reconv].PC
		}
	}
	for _, c := range p.callees {
		c.branchReconv(m, seen)
	}
}

// StaticInstrCount returns the number of static instructions in the
// program, excluding callees.
func (p *Program) StaticInstrCount() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
		if b.Term.Kind != TermFall && b.Term.Kind != TermEnd {
			n++
		}
	}
	return n
}
