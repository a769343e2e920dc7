package isa

// TraceOp is one dynamic instruction in a scalar per-request trace —
// the unit SIMTec emitted per CPU thread. The SIMT lock-step executor
// merges per-thread TraceOp streams by (SP, PC); the timing model
// consumes the merged stream.
//
// A TraceOp is 24 bytes (TestTraceOpSize): Addr (8), PC and SP (4
// each), the two dependency distances (2 each) and Class, Size and
// Taken (1 each), with one byte of padding. The narrow fields are
// exact, not truncated: Link rejects code that would end past 2^32,
// and the interpreter rejects a stack depth past 2^32.
type TraceOp struct {
	// Addr is the accessed virtual address for memory classes.
	Addr uint64
	// PC is the instruction's global program counter.
	PC uint32
	// SP is the stack DEPTH (StackBase - stack pointer) when the
	// instruction executed. Depth rather than the raw pointer is
	// recorded so that threads with distinct stack segments compare
	// equal at the same call site; the MinSP reconvergence policy
	// prioritises the deepest call (largest depth).
	SP uint32
	// Dep1 and Dep2 are backward distances to producer instructions
	// in the same trace: the producer of op i is op i-Dep1. 0 means no
	// producer. They copy the static Instr distances (dropping one that
	// would reach before the trace's first op); a conditional branch
	// depends on the op just before it (distance 1).
	Dep1, Dep2 uint16
	// Class is the functional class.
	Class Class
	// Size is the memory access size in bytes.
	Size uint8
	// Taken records a conditional branch's outcome.
	Taken bool
}

// MaxPC bounds the global program counters Link assigns: linked code
// ends at or below it, so every PC fits TraceOp's 32-bit field. The
// interpreter bounds stack depth by the same value.
const MaxPC = 1 << 32

// TraceStats summarises a scalar trace for reporting and tests.
type TraceStats struct {
	Total    int
	ByClass  [NumClasses]int
	StackOps int
	HeapOps  int
}

// Summarize computes class counts for a trace. isStack classifies
// addresses into the stack segment (supplied by internal/alloc).
func Summarize(ops []TraceOp, isStack func(uint64) bool) TraceStats {
	var s TraceStats
	s.Total = len(ops)
	for i := range ops {
		op := &ops[i]
		s.ByClass[op.Class]++
		if op.Class.IsMem() {
			if isStack != nil && isStack(op.Addr) {
				s.StackOps++
			} else {
				s.HeapOps++
			}
		}
	}
	return s
}
