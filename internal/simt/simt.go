// Package simt implements the RPU's lock-step batch execution over
// per-request scalar traces: the stack-less MinSP-PC reconvergence
// heuristic the paper adopts (Collange; Collins et al.), the ideal
// stack-based IPDOM scheme used as its reference, active-mask
// generation, SIMT efficiency accounting and the spin-timeout
// multi-path mechanism that prevents SIMT-induced livelock.
package simt

import (
	"fmt"
	"math/bits"
	"unsafe"

	"simr/internal/isa"
)

// MaxBatch is the widest supported batch (active masks are uint64).
const MaxBatch = 64

// BatchOp is one lock-step instruction issued for a batch — the RPU
// analogue of a warp instruction, with its active mask propagated down
// the pipeline.
type BatchOp struct {
	// PC is the instruction's global program counter.
	PC uint64
	// Mask has bit t set when thread t executes this op.
	Mask uint64
	// TakenMask has bit t set when thread t's branch was taken.
	TakenMask uint64
	// Addrs holds per-thread virtual addresses for memory classes
	// (len = batch width, valid where Mask is set); nil otherwise.
	Addrs []uint64
	// Dep1 and Dep2 are batch-op indices of producers (-1 when unused).
	Dep1, Dep2 int32
	// Class is the functional class.
	Class isa.Class
	// Size is the access size for memory classes.
	Size uint8
}

// ActiveLanes returns the number of set bits in the active mask.
func (op *BatchOp) ActiveLanes() int { return popcount(op.Mask) }

func popcount(m uint64) int { return bits.OnesCount64(m) }

// Result is the outcome of lock-step execution of one batch.
type Result struct {
	// Ops is the merged batch instruction stream.
	Ops []BatchOp
	// ScalarOps is the total dynamic instruction count over all threads.
	ScalarOps int
	// BatchSize is the efficiency denominator (the hardware batch
	// width, which may exceed the number of live threads).
	BatchSize int
	// PathSwitches counts spin-timeout multi-path preemptions.
	PathSwitches int
}

// Clone returns a deep copy of the result that shares no memory with
// the receiver. Results produced through the *With executors alias
// their Scratch (Ops and every BatchOp.Addrs) and are invalidated by
// the next run on the same scratch; consumers that must outlive that —
// caching layers, deferred pipelines — clone first. The Addrs vectors
// are flattened into one arena so the copy costs two allocations
// regardless of op count.
func (r *Result) Clone() *Result {
	c := &Result{
		Ops:          make([]BatchOp, len(r.Ops)),
		ScalarOps:    r.ScalarOps,
		BatchSize:    r.BatchSize,
		PathSwitches: r.PathSwitches,
	}
	copy(c.Ops, r.Ops)
	words := 0
	for i := range r.Ops {
		words += len(r.Ops[i].Addrs)
	}
	arena := make([]uint64, 0, words)
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Addrs == nil {
			continue
		}
		l := len(arena)
		arena = append(arena, op.Addrs...)
		op.Addrs = arena[l:len(arena):len(arena)]
	}
	return c
}

// RetainedBytes returns the memory a cloned copy of the result would
// retain: the op array plus the flattened per-thread address vectors.
func (r *Result) RetainedBytes() int64 {
	words := 0
	for i := range r.Ops {
		words += len(r.Ops[i].Addrs)
	}
	return int64(unsafe.Sizeof(BatchOp{}))*int64(len(r.Ops)) + 8*int64(words)
}

// Efficiency returns SIMT control efficiency:
// #scalar-instructions / (#batch-instructions × batch-size).
func (r *Result) Efficiency() float64 {
	if len(r.Ops) == 0 {
		return 0
	}
	return float64(r.ScalarOps) / (float64(len(r.Ops)) * float64(r.BatchSize))
}

// SpinConfig tunes the SIMT-induced-livelock mitigation (paper §III-A):
// when a waiting thread's PC has not advanced for Window batch ops and
// at least MinAtomics atomic instructions were decoded in that window —
// the signature of other threads spinning on a lock — the waiting
// thread's path is granted execution for Grant ops.
type SpinConfig struct {
	Window     int
	MinAtomics int
	Grant      int
}

// DefaultSpin is the configuration used by the RPU driver.
var DefaultSpin = SpinConfig{Window: 64, MinAtomics: 8, Grant: 32}

type key struct {
	sp, pc uint64
}

func keyLess(a, b key) bool {
	// MinSP first: the deepest function call wins. TraceOp.SP records
	// stack depth, so deeper means larger.
	if a.sp != b.sp {
		return a.sp > b.sp
	}
	return a.pc < b.pc
}

// Scratch holds the lock-step executors' working storage so repeated
// runs (one per batch, thousands per study cell) reuse buffers instead
// of reallocating them. The zero value is ready to use; a Scratch must
// not be shared between goroutines. A Result produced through a
// *With executor lives in the scratch (the Result itself, its Ops
// slice and their Addrs) and is valid only until the next run on the
// same scratch — consume or copy it first.
type Scratch struct {
	cursor  []int
	b2i     [][]int32
	b2iBuf  []int32 // flat arena backing the per-thread b2i slices
	addrBuf []uint64
	ops     []BatchOp
	threads []int
	stack   []ipdomEntry
	st      executorState
	res     Result
}

// executorState holds the shared per-thread cursor machinery.
type executorState struct {
	traces [][]isa.TraceOp
	cursor []int
	b2i    [][]int32 // scalar index -> batch op index, per thread
	ops    []BatchOp
	sc     *Scratch
	scalar int
}

func newExecutorState(sc *Scratch, traces [][]isa.TraceOp) *executorState {
	if sc == nil {
		sc = &Scratch{}
	}
	n := len(traces)
	if cap(sc.cursor) < n {
		sc.cursor = make([]int, n)
	}
	if cap(sc.b2i) < n {
		sc.b2i = make([][]int32, n)
	}
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	if cap(sc.b2iBuf) < total {
		// Grow geometrically, so a stream of ever larger batches
		// reallocates a logarithmic number of times.
		sc.b2iBuf = make([]int32, max(total, 2*cap(sc.b2iBuf)))
	}
	st := &sc.st
	*st = executorState{
		traces: traces,
		cursor: sc.cursor[:n],
		b2i:    sc.b2i[:n],
		ops:    sc.ops[:0],
		sc:     sc,
		scalar: total,
	}
	for t := range st.cursor {
		st.cursor[t] = 0
	}
	// b2i entries need no zeroing: an entry is read (as a dep target)
	// only after the same run wrote it, since deps point backwards
	// within a thread's trace.
	off := 0
	for t, tr := range traces {
		st.b2i[t] = sc.b2iBuf[off : off+len(tr) : off+len(tr)]
		off += len(tr)
	}
	sc.addrBuf = sc.addrBuf[:0]
	return st
}

// allocAddrs carves a zeroed n-word Addrs slice out of the scratch
// arena. When the current chunk is full a fresh one is started; slices
// handed out earlier keep pointing into the old chunk, whose values
// are never rewritten.
func (st *executorState) allocAddrs(n int) []uint64 {
	sc := st.sc
	if cap(sc.addrBuf)-len(sc.addrBuf) < n {
		c := 2 * cap(sc.addrBuf)
		if c < 1<<14 {
			c = 1 << 14
		}
		if c < n {
			c = n
		}
		sc.addrBuf = make([]uint64, 0, c)
	}
	l := len(sc.addrBuf)
	sc.addrBuf = sc.addrBuf[:l+n]
	a := sc.addrBuf[l : l+n : l+n]
	for i := range a {
		a[i] = 0
	}
	return a
}

// takeThreads returns the scratch's empty thread-selection buffer.
func (st *executorState) takeThreads(n int) []int {
	if cap(st.sc.threads) < n {
		st.sc.threads = make([]int, 0, n)
	}
	return st.sc.threads[:0]
}

func (st *executorState) done(t int) bool { return st.cursor[t] >= len(st.traces[t]) }

func (st *executorState) cur(t int) *isa.TraceOp { return &st.traces[t][st.cursor[t]] }

func (st *executorState) curKey(t int) key {
	op := st.cur(t)
	return key{sp: op.SP, pc: op.PC}
}

// step executes one lock-step op for the given thread set and returns
// the emitted op's index.
func (st *executorState) step(threads []int) (int, error) {
	first := st.cur(threads[0])
	op := BatchOp{
		PC:    first.PC,
		Class: first.Class,
		Size:  first.Size,
		Dep1:  -1,
		Dep2:  -1,
	}
	if first.Class.IsMem() {
		op.Addrs = st.allocAddrs(len(st.traces))
	}
	idx := len(st.ops)
	for _, t := range threads {
		cur := st.cur(t)
		if cur.Class != first.Class {
			return 0, fmt.Errorf("simt: class mismatch at pc=%#x: thread %d has %v, thread %d has %v",
				first.PC, threads[0], first.Class, t, cur.Class)
		}
		op.Mask |= 1 << uint(t)
		if cur.Taken {
			op.TakenMask |= 1 << uint(t)
		}
		if op.Addrs != nil {
			op.Addrs[t] = cur.Addr
		}
		if cur.Dep1 >= 0 {
			if d := st.b2i[t][cur.Dep1]; d > op.Dep1 {
				op.Dep1 = d
			}
		}
		if cur.Dep2 >= 0 {
			if d := st.b2i[t][cur.Dep2]; d > op.Dep2 {
				op.Dep2 = d
			}
		}
		st.b2i[t][st.cursor[t]] = int32(idx)
		st.cursor[t]++
	}
	st.ops = append(st.ops, op)
	return idx, nil
}

func (st *executorState) result(batchSize int) *Result {
	st.sc.ops = st.ops // keep any growth for the next run
	st.sc.res = Result{Ops: st.ops, ScalarOps: st.scalar, BatchSize: batchSize}
	return &st.sc.res
}

// RunMinSPPC merges the per-thread traces with the stack-less MinSP-PC
// policy: at every step the live thread with the deepest stack (lowest
// SP), breaking ties by lowest PC, selects the path; every live thread
// at the same (SP, PC) joins the active mask. spin may be nil to
// disable the livelock mitigation. batchSize <= 0 defaults to the
// number of traces. The result is freshly allocated and owned by the
// caller.
func RunMinSPPC(traces [][]isa.TraceOp, batchSize int, spin *SpinConfig) (*Result, error) {
	return RunMinSPPCWith(nil, traces, batchSize, spin)
}

// RunMinSPPCWith is RunMinSPPC drawing all working storage from sc
// (nil sc allocates fresh). The returned Result lives in the scratch
// and is valid only until the next run on the same scratch.
func RunMinSPPCWith(sc *Scratch, traces [][]isa.TraceOp, batchSize int, spin *SpinConfig) (*Result, error) {
	if len(traces) == 0 || len(traces) > MaxBatch {
		return nil, fmt.Errorf("simt: batch of %d traces unsupported", len(traces))
	}
	if batchSize <= 0 {
		batchSize = len(traces)
	}
	st := newExecutorState(sc, traces)

	// Spin-detection state: the stuck key is the minimum key among
	// threads that were NOT selected; if it survives unchanged across a
	// window of atomic-bearing ops, it gets a grant.
	var stuck key
	haveStuck := false
	stuckRun, windowAtomics, grant, switches := 0, 0, 0, 0

	threads := st.takeThreads(len(traces))
	for {
		haveBest := false
		var best key
		for t := range traces {
			if st.done(t) {
				continue
			}
			if k := st.curKey(t); !haveBest || keyLess(k, best) {
				haveBest = true
				best = k
			}
		}
		if !haveBest {
			break // all threads done
		}

		sel := best
		if spin != nil && grant > 0 && haveStuck && stuck != best {
			sel = stuck
		} else if spin != nil && haveStuck && stuckRun >= spin.Window && windowAtomics >= spin.MinAtomics && stuck != best {
			sel = stuck
			grant = spin.Grant
			switches++
			stuckRun, windowAtomics = 0, 0
		}
		if grant > 0 {
			grant--
		}

		threads = threads[:0]
		for t := range traces {
			if !st.done(t) && st.curKey(t) == sel {
				threads = append(threads, t)
			}
		}
		if len(threads) == 0 {
			// A stale grant target advanced past its key; fall back to
			// the regular MinSP-PC winner.
			sel = best
			for t := range traces {
				if !st.done(t) && st.curKey(t) == sel {
					threads = append(threads, t)
				}
			}
		}
		idx, err := st.step(threads)
		if err != nil {
			return nil, err
		}
		if st.ops[idx].Class == isa.Atomic {
			windowAtomics++
		}

		// Update the stuck candidate: minimum key among live threads
		// that did NOT execute this op (the executed threads have
		// advanced, so their keys must not be compared against sel).
		executed := uint64(0)
		for _, t := range threads {
			executed |= 1 << uint(t)
		}
		haveNew := false
		var newStuck key
		for t := range traces {
			if st.done(t) || executed&(1<<uint(t)) != 0 {
				continue
			}
			k := st.curKey(t)
			if !haveNew || keyLess(k, newStuck) {
				haveNew = true
				newStuck = k
			}
		}
		if haveNew && haveStuck && newStuck == stuck {
			stuckRun++
		} else {
			stuckRun = 0
			windowAtomics = 0
		}
		stuck, haveStuck = newStuck, haveNew
	}

	res := st.result(batchSize)
	res.PathSwitches = switches
	return res, nil
}
