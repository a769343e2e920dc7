package core

import (
	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/isa"
	"simr/internal/mem"
	"simr/internal/pipeline"
	"simr/internal/simt"
	"simr/internal/uservices"
)

// RunISPC models the paper's §VI-A alternative: compiling the
// microservice SPMD-style onto the CPU's existing SIMD units (the
// Intel-ISPC approach), one request per vector lane. The model follows
// the section's arguments:
//
//   - requests map to the 8 64-bit lanes of an AVX-512-class unit, so
//     batches are 8 wide;
//   - divergent conditional branches become predication: both sides
//     always execute with masked lanes and the branch predictor cannot
//     help (the branch disappears), while uniform branches survive;
//   - scalar instructions with no 1:1 vector equivalent (atomics,
//     syscalls, call/return bookkeeping and a slice of complex integer
//     ops — the paper counts only 27 % of scalar opcodes as having
//     vector encodings) fall back to per-lane scalar code;
//   - memory accesses become gathers/scatters: one L1 access per lane
//     through the CPU's single-banked L1, with no MCU and no stack
//     interleaving to coalesce them.
//
// The result is directly comparable with RunService's CPU and RPU
// measurements over the same requests.
func RunISPC(svc *uservices.Service, reqs []uservices.Request) (*Result, error) {
	const width = 8 // AVX-512: 8 × 64-bit lanes

	cfg := PipelineConfig(ArchCPU)
	cfg.Name = "cpu-ispc"
	cfg.Lanes = width
	ms := mem.NewSystem(MemConfig(ArchCPU))
	cpu := pipeline.NewCore(cfg)
	res := newResult(ArchCPU, svc, len(reqs))
	model := EnergyModel(ArchCPU)

	batches := batch.Form(reqs, width, batch.PerAPIArgSize)
	res.Batches = len(batches)

	totalScalar, totalBatchOps := 0, 0
	tr := tracer{svc: svc}
	for _, b := range batches {
		sg := alloc.NewStackGroup(0, len(b.Requests), false)
		traces, err := tr.batch(b.Requests, sg, alloc.PolicyCPU, 1)
		if err != nil {
			return nil, err
		}
		merged, err := simt.RunMinSPPC(traces, width, nil)
		if err != nil {
			return nil, err
		}
		totalScalar += merged.ScalarOps
		totalBatchOps += len(merged.Ops)

		uops := ispcUops(merged.Ops)
		prev := ms.Stats()
		ms.ResetTiming()
		st := cpu.Run(ms, uops)
		st.Mem = st.Mem.Delta(&prev)
		res.Stats.Accumulate(&st)
		for range b.Requests {
			res.Latency.Add(float64(st.Cycles))
		}
	}
	if totalBatchOps > 0 {
		res.SIMTEff = float64(totalScalar) / (float64(totalBatchOps) * float64(width))
	}
	res.Energy = model.Compute(&res.Stats, cfg.FreqGHz)
	return res, nil
}

// scalarFallback reports whether a class has no vector equivalent and
// must be serialised per lane. Complex integer ops are sampled
// deterministically by PC to approximate the paper's ISA-coverage
// argument.
func scalarFallback(op *simt.BatchOp) bool {
	switch op.Class {
	case isa.Atomic, isa.Syscall, isa.Fence, isa.CallOp, isa.RetOp:
		return true
	case isa.IAlu:
		// Roughly one in seven integer ops (string manipulation,
		// variable shifts, flags-dependent sequences) has no vector
		// encoding.
		return (op.PC>>2)%7 == 0
	default:
		return false
	}
}

// ispcUops lowers the lock-step batch stream onto the SIMD pipeline.
func ispcUops(ops []simt.BatchOp) pipeline.Stream {
	uops := make([]pipeline.Uop, 0, len(ops)*2)
	var addrs []uint64
	// remap tracks each batch op's last lowered uop for dependencies.
	remap := make([]int32, len(ops))
	dep := func(d int32) int32 {
		if d < 0 {
			return -1
		}
		return remap[d]
	}
	for i := range ops {
		op := &ops[i]

		if scalarFallback(op) {
			// Per-lane scalar expansion: full frontend cost per lane.
			for t := 0; t < 64; t++ {
				if op.Mask&(1<<uint(t)) == 0 {
					continue
				}
				u := pipeline.Uop{
					PC:    op.PC,
					Class: op.Class,
					Dep1:  dep(op.Dep1),
					Dep2:  dep(op.Dep2),
				}
				if op.Class.IsMem() {
					u.Acc, u.NAcc = uint32(len(addrs)), 1
					addrs = append(addrs, op.Addrs[t])
				}
				uops = append(uops, u)
			}
			remap[i] = int32(len(uops) - 1)
			continue
		}

		u := pipeline.Uop{
			PC:   op.PC,
			Dep1: dep(op.Dep1),
			Dep2: dep(op.Dep2),
			Mask: op.Mask,
		}
		switch {
		case op.Class == isa.Branch && op.TakenMask != 0 && op.TakenMask != op.Mask:
			// Divergent branch → predicate computation: an ALU op with
			// no prediction and no redirect.
			u.Class = isa.Simd
		case op.Class.IsMem():
			// Gather/scatter: one access per active lane, uncoalesced.
			u.Class = op.Class
			u.Acc = uint32(len(addrs))
			for t := 0; t < 64; t++ {
				if op.Mask&(1<<uint(t)) != 0 {
					addrs = append(addrs, op.Addrs[t])
				}
			}
			u.NAcc = uint16(len(addrs) - int(u.Acc))
		case op.Class == isa.Branch:
			// Uniform branch: the batch votes on TakenMask.
			u.Class = isa.Branch
			u.TakenMask = op.TakenMask
		default:
			// Vectorised compute: integer/FP lanes become SIMD work.
			u.Class = isa.Simd
		}
		uops = append(uops, u)
		remap[i] = int32(len(uops) - 1)
	}
	return pipeline.Stream{Uops: uops, Addrs: addrs}
}
