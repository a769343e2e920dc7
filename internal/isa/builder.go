package isa

import "fmt"

// Builder assembles a Program with structured control flow. Blocks are
// laid out in creation order and PCs are assigned in a final pass, which
// guarantees the property the MinPC reconvergence heuristic relies on:
// join points sit at higher addresses than the divergent paths they
// dominate (Collins et al. report this holds for almost all compiled
// code; our builder makes it hold by construction).
type Builder struct {
	p     *Program
	cur   *Block
	built bool
}

// NewProgram starts building a top-level service program (terminates the
// trace when it ends) with the default 128-byte stack frame.
func NewProgram(name string) *Builder {
	p := &Program{Name: name, FrameBytes: 128}
	b := &Builder{p: p}
	b.cur = b.newBlock()
	p.Entry = b.cur.ID
	return b
}

// NewFunc starts building a callee function: its final block pops the
// return address and returns to the caller.
func NewFunc(name string) *Builder {
	b := NewProgram(name)
	b.p.isFunc = true
	return b
}

func (b *Builder) newBlock() *Block {
	blk := &Block{ID: len(b.p.Blocks)}
	b.p.Blocks = append(b.p.Blocks, blk)
	return blk
}

// Slot allocates a scratch context slot (loop counter, pointer, ...).
func (b *Builder) Slot() int {
	s := b.p.NumSlots
	b.p.NumSlots++
	return s
}

func (b *Builder) emit(in Instr) {
	if b.built {
		panic("isa: emit after Build")
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
}

// Op emits one instruction of the given class with no dependencies.
func (b *Builder) Op(c Class) { b.emit(Instr{Class: c}) }

// Ops emits n independent instructions of the given class.
func (b *Builder) Ops(c Class, n int) {
	for i := 0; i < n; i++ {
		b.emit(Instr{Class: c})
	}
}

// OpsChain emits n instructions of class c forming a serial dependency
// chain: the first op starts the chain fresh (no dependency on earlier
// code) and each subsequent op depends on the dist-previous dynamic
// instruction; dist=1 produces a dense chain (e.g. an accumulation).
func (b *Builder) OpsChain(c Class, n int, dist uint16) {
	for i := 0; i < n; i++ {
		if i == 0 {
			b.emit(Instr{Class: c})
		} else {
			b.emit(Instr{Class: c, Dep1: dist})
		}
	}
}

// OpDeps emits one instruction with explicit backward dependency
// distances (0 = unused).
func (b *Builder) OpDeps(c Class, dep1, dep2 uint16) {
	b.emit(Instr{Class: c, Dep1: dep1, Dep2: dep2})
}

// Eff emits an integer op whose side effect f runs at trace time. Used
// to update request-level scratch state (counters, pointers).
func (b *Builder) Eff(f func(*Ctx)) { b.emit(Instr{Class: IAlu, Eff: f}) }

// LoadAt emits a load of size bytes from the address computed by fn.
func (b *Builder) LoadAt(size uint8, fn AddrFn, deps ...uint16) {
	b.emit(memInstr(Load, size, fn, deps))
}

// StoreAt emits a store of size bytes to the address computed by fn.
func (b *Builder) StoreAt(size uint8, fn AddrFn, deps ...uint16) {
	b.emit(memInstr(Store, size, fn, deps))
}

// AtomicAt emits an atomic RMW on the address computed by fn.
func (b *Builder) AtomicAt(size uint8, fn AddrFn, deps ...uint16) {
	b.emit(memInstr(Atomic, size, fn, deps))
}

func memInstr(c Class, size uint8, fn AddrFn, deps []uint16) Instr {
	in := Instr{Class: c, Size: size, Addr: fn}
	if len(deps) > 0 {
		in.Dep1 = deps[0]
	}
	if len(deps) > 1 {
		in.Dep2 = deps[1]
	}
	return in
}

// StackLoad emits an 8-byte load from SP+off (reading a local variable
// or spilled argument).
func (b *Builder) StackLoad(off uint64, deps ...uint16) {
	b.LoadAt(8, func(c *Ctx) uint64 { return c.SP + off }, deps...)
}

// StackStore emits an 8-byte store to SP+off.
func (b *Builder) StackStore(off uint64, deps ...uint16) {
	b.StoreAt(8, func(c *Ctx) uint64 { return c.SP + off }, deps...)
}

// AllocTo emits a library-call allocation: at trace time the thread's
// heap allocator reserves size(ctx) bytes and the base address is stored
// in slot.
func (b *Builder) AllocTo(slot int, size func(*Ctx) int) {
	b.emit(Instr{Class: IAlu, Eff: func(c *Ctx) {
		c.Slots[slot] = c.Heap.Alloc(size(c))
	}})
}

// If emits a two-way conditional. cond(ctx)==true executes then, else
// executes els (els may be nil). Layout: cond / then / else / join.
func (b *Builder) If(cond func(*Ctx) bool, then, els func(*Builder)) {
	parent := b.cur

	thenB := b.newBlock()
	b.cur = thenB
	if then != nil {
		then(b)
	}
	thenEnd := b.cur

	elseB := b.newBlock()
	b.cur = elseB
	if els != nil {
		els(b)
	}
	elseEnd := b.cur

	join := b.newBlock()
	parent.Term = Term{Kind: TermBr, Cond: cond, Taken: thenB.ID, Fall: elseB.ID, Reconv: join.ID}
	thenEnd.Term = Term{Kind: TermJmp, Taken: join.ID}
	elseEnd.Term = Term{Kind: TermFall, Fall: join.ID}
	b.cur = join
}

// Loop emits a counted loop: body runs count(ctx) times with a fresh
// induction slot. Layout: init / header / body / latch-jump / exit, so
// the exit (reconvergence) block has the highest PC.
func (b *Builder) Loop(count func(*Ctx) int, body func(*Builder)) {
	idx := b.Slot()
	b.Eff(func(c *Ctx) { c.Slots[idx] = 0 })

	parent := b.cur
	header := b.newBlock()
	parent.Term = Term{Kind: TermFall, Fall: header.ID}

	bodyB := b.newBlock()
	b.cur = bodyB
	if body != nil {
		body(b)
	}
	bodyEnd := b.cur
	bodyEnd.Term = Term{
		Kind:  TermJmp,
		Taken: header.ID,
		Eff:   func(c *Ctx) { c.Slots[idx]++ },
	}

	exit := b.newBlock()
	header.Term = Term{
		Kind:   TermBr,
		Cond:   func(c *Ctx) bool { return c.Slots[idx] < uint64(count(c)) },
		Taken:  bodyB.ID,
		Fall:   exit.ID,
		Reconv: exit.ID,
	}
	b.cur = exit
}

// LoopIdx is Loop but passes the induction slot index to body so bodies
// can address per-iteration data.
func (b *Builder) LoopIdx(count func(*Ctx) int, body func(b *Builder, idxSlot int)) {
	idx := b.Slot()
	b.Eff(func(c *Ctx) { c.Slots[idx] = 0 })

	parent := b.cur
	header := b.newBlock()
	parent.Term = Term{Kind: TermFall, Fall: header.ID}

	bodyB := b.newBlock()
	b.cur = bodyB
	if body != nil {
		body(b, idx)
	}
	bodyEnd := b.cur
	bodyEnd.Term = Term{
		Kind:  TermJmp,
		Taken: header.ID,
		Eff:   func(c *Ctx) { c.Slots[idx]++ },
	}

	exit := b.newBlock()
	header.Term = Term{
		Kind:   TermBr,
		Cond:   func(c *Ctx) bool { return c.Slots[idx] < uint64(count(c)) },
		Taken:  bodyB.ID,
		Fall:   exit.ID,
		Reconv: exit.ID,
	}
	b.cur = exit
}

// LoopN emits a loop with a request-independent trip count.
func (b *Builder) LoopN(n int, body func(*Builder)) {
	b.Loop(func(*Ctx) int { return n }, body)
}

// While emits a condition-controlled loop (e.g. spin on a lock or probe
// a hash chain).
func (b *Builder) While(cond func(*Ctx) bool, body func(*Builder)) {
	parent := b.cur
	header := b.newBlock()
	parent.Term = Term{Kind: TermFall, Fall: header.ID}

	bodyB := b.newBlock()
	b.cur = bodyB
	if body != nil {
		body(b)
	}
	bodyEnd := b.cur
	bodyEnd.Term = Term{Kind: TermJmp, Taken: header.ID}

	exit := b.newBlock()
	header.Term = Term{Kind: TermBr, Cond: cond, Taken: bodyB.ID, Fall: exit.ID, Reconv: exit.ID}
	b.cur = exit
}

// Call emits a procedure call: the return address is pushed on the
// stack (generating the stack traffic the paper attributes to call-heavy
// middle tiers), the callee runs in a fresh frame and execution resumes
// in a new block.
func (b *Builder) Call(callee *Program) {
	if !callee.isFunc {
		panic(fmt.Sprintf("isa: Call target %q was not built with NewFunc", callee.Name))
	}
	b.StoreAt(8, func(c *Ctx) uint64 { return c.SP - 8 })
	parent := b.cur
	ret := b.newBlock()
	parent.Term = Term{Kind: TermCall, Callee: callee, Fall: ret.ID}
	b.cur = ret

	for _, c := range b.p.callees {
		if c == callee {
			return
		}
	}
	b.p.callees = append(b.p.callees, callee)
}

// SyscallOp emits a syscall-class instruction (network receive/send,
// epoll, storage request markers).
func (b *Builder) SyscallOp() { b.Op(Syscall) }

// Build finalises the program: the last open block is terminated (with
// a return-address pop + TermRet for functions, TermEnd for services),
// PCs are assigned in layout order and the structure is validated.
func (b *Builder) Build() *Program {
	if b.built {
		panic("isa: Build called twice")
	}
	b.built = true
	p := b.p

	if p.isFunc {
		frame := p.FrameBytes
		b.built = false
		b.LoadAt(8, func(c *Ctx) uint64 { return c.SP + frame - 8 })
		b.built = true
		b.cur.Term = Term{Kind: TermRet}
	} else {
		b.cur.Term = Term{Kind: TermEnd}
	}

	pc := uint64(0)
	for _, blk := range p.Blocks {
		blk.PC = pc
		for i := range blk.Instrs {
			blk.Instrs[i].PC = pc
			pc += InstrBytes
		}
		switch blk.Term.Kind {
		case TermBr, TermJmp, TermCall, TermRet:
			blk.Term.PC = pc
			pc += InstrBytes
		case TermFall, TermEnd:
			// no encoded instruction
		default:
			panic(fmt.Sprintf("isa: block %d in %q has no terminator", blk.ID, p.Name))
		}
	}
	p.size = pc

	for _, blk := range p.Blocks {
		t := blk.Term
		check := func(id int, what string) {
			if id < 0 || id >= len(p.Blocks) {
				panic(fmt.Sprintf("isa: %q block %d %s target %d out of range", p.Name, blk.ID, what, id))
			}
		}
		switch t.Kind {
		case TermFall:
			check(t.Fall, "fall")
		case TermBr:
			check(t.Taken, "taken")
			check(t.Fall, "fall")
			if t.Cond == nil {
				panic(fmt.Sprintf("isa: %q block %d branch without condition", p.Name, blk.ID))
			}
		case TermJmp:
			check(t.Taken, "jump")
		case TermCall:
			check(t.Fall, "return")
			if t.Callee == nil {
				panic(fmt.Sprintf("isa: %q block %d call without callee", p.Name, blk.ID))
			}
		}
	}
	return p
}
