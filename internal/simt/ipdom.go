package simt

import (
	"fmt"
	"slices"

	"simr/internal/isa"
)

// ipdomEntry is one reconvergence stack entry: the threads of mask run
// until each reaches the reconvergence key r or finishes.
type ipdomEntry struct {
	mask uint64
	r    key
	hasR bool
}

// RunIPDOM merges per-thread traces with an ideal stack-based immediate
// post-dominator scheme, the reference the paper compares MinSP-PC
// against. reconv maps each conditional branch's global PC to its
// immediate post-dominator's PC (see isa.Program.BranchReconv).
// batchSize <= 0 defaults to the number of traces. The result is
// freshly allocated and owned by the caller.
func RunIPDOM(traces [][]isa.TraceOp, batchSize int, reconv map[uint64]uint64) (*Result, error) {
	return RunIPDOMWith(nil, traces, batchSize, reconv)
}

// RunIPDOMWith is RunIPDOM drawing all working storage from sc (nil sc
// allocates fresh). The returned Result lives in the scratch and is
// valid only until the next run on the same scratch.
func RunIPDOMWith(sc *Scratch, traces [][]isa.TraceOp, batchSize int, reconv map[uint64]uint64) (*Result, error) {
	if len(traces) == 0 || len(traces) > MaxBatch {
		return nil, fmt.Errorf("simt: batch of %d traces unsupported", len(traces))
	}
	if batchSize <= 0 {
		batchSize = len(traces)
	}
	st := newExecutorState(sc, traces)

	all := uint64(0)
	for t := range traces {
		all |= 1 << uint(t)
	}
	stack := append(st.sc.stack[:0], ipdomEntry{mask: all})

	threads := st.takeThreads(len(traces))
	for len(stack) > 0 {
		e := &stack[len(stack)-1]

		// Threads in this entry that are still executable: live and not
		// parked at the entry's reconvergence key.
		threads = threads[:0]
		for t := range traces {
			if e.mask&(1<<uint(t)) == 0 || st.done(t) {
				continue
			}
			if e.hasR {
				if st.curKey(t) == e.r {
					continue // waiting at the reconvergence point
				}
			}
			threads = append(threads, t)
		}
		if len(threads) == 0 {
			stack = stack[:len(stack)-1]
			continue
		}

		// In a well-formed stack execution all executable threads of the
		// top entry share one key except immediately after a divergent
		// branch, which is handled below; a multi-key state here means
		// the entry was created from threads on different paths (e.g.
		// naive batching of different APIs): split it by key order.
		uniform := true
		k0 := st.curKey(threads[0])
		for _, t := range threads[1:] {
			if st.curKey(t) != k0 {
				uniform = false
				break
			}
		}
		if !uniform {
			keys := map[key][]int{}
			for _, t := range threads {
				k := st.curKey(t)
				keys[k] = append(keys[k], t)
			}
			ordered := make([]key, 0, len(keys))
			for k := range keys {
				ordered = append(ordered, k)
			}
			slices.Sort(ordered)
			// Push in reverse so the lowest key executes first.
			for i := len(ordered) - 1; i >= 0; i-- {
				var m uint64
				for _, t := range keys[ordered[i]] {
					m |= 1 << uint(t)
				}
				stack = append(stack, ipdomEntry{mask: m, r: e.r, hasR: e.hasR})
			}
			// The parent keeps its mask; its threads are now covered by
			// children, and it resumes once they pop.
			continue
		}

		idx, err := st.step(threads)
		if err != nil {
			return nil, err
		}
		op := &st.ops[idx]
		if op.Class == isa.Branch && op.TakenMask != 0 && op.TakenMask != op.Mask {
			// Divergent branch: split into taken and not-taken paths
			// reconverging at the branch's immediate post-dominator.
			rpc, ok := reconv[op.PC]
			if !ok {
				return nil, fmt.Errorf("simt: no reconvergence point recorded for branch at pc=%#x", op.PC)
			}
			r := packKey(st.traces[threads[0]][st.cursor[threads[0]]-1].SP, uint32(rpc))
			taken := op.TakenMask
			fall := op.Mask &^ op.TakenMask
			stack = append(stack,
				ipdomEntry{mask: fall, r: r, hasR: true},
				ipdomEntry{mask: taken, r: r, hasR: true},
			)
		}
	}

	st.sc.stack = stack[:0] // keep any growth for the next run
	return st.result(batchSize), nil
}
