package uservices

import (
	"math/rand"

	"simr/internal/alloc"
	"simr/internal/isa"
)

// GridWidth is the SPMD grid stride: data-parallel threads process
// elements interleaved at this stride, so lanes of one batch touch
// consecutive words (the classic GPU coalescing-friendly layout).
const GridWidth = 32

// NewGPGPUSuite builds the §VI-D study: classic data-parallel SPMD
// kernels (saxpy, dot product, 1-D stencil) expressed as services, so
// the same RunService machinery can compare CPU vs RPU vs GPU on
// OpenMP/CUDA-style work. The paper argues the RPU runs these with
// GPU-class efficiency while keeping the CPU programming model; GPUs
// remain the efficiency winner.
func NewGPGPUSuite() *Suite {
	g := alloc.NewGlobals()
	suite := &Suite{byName: map[string]*Service{}}
	// 1 MiB-aligned, in the upper half of the 32-bit PC space, clear
	// of the microservice suite's code.
	base := uint64(1 << 31)
	for _, build := range []func(*alloc.Globals) *Service{newSaxpy, newDotProd, newStencil} {
		svc := build(g)
		svc.TunedBatch = 32
		progs := make([]*isa.Program, 0, len(svc.progs))
		for _, api := range svc.APIs {
			progs = append(progs, svc.progs[api])
		}
		next, err := isa.Link(base, progs...)
		if err != nil {
			panic(err)
		}
		base = (next + (1 << 20)) &^ ((1 << 20) - 1)
		suite.Services = append(suite.Services, svc)
		suite.byName[svc.Name] = svc
	}
	return suite
}

// tidArg is the Args index carrying the SPMD thread id.
const tidArg = 2

// gridAddr returns base + (iter*GridWidth + tid)*8: consecutive across
// the lanes of a batch at every iteration.
func gridAddr(base uint64, iterSlot int) isa.AddrFn {
	return func(c *isa.Ctx) uint64 {
		return base + (c.Slots[iterSlot]*GridWidth+c.Arg0(tidArg))*8
	}
}

func spmdGen(api string, iters int) func(r *rand.Rand) Request {
	tid := uint64(0)
	return func(r *rand.Rand) Request {
		t := tid % GridWidth
		tid++
		return Request{
			API:      api,
			ArgBytes: 32,
			Args:     []uint64{0, uint64(iters), t},
			Seed:     r.Int63(),
		}
	}
}

// newSaxpy builds y[i] = a*x[i] + y[i] over an interleaved grid.
func newSaxpy(g *alloc.Globals) *Service {
	n := 256
	x := g.Alloc(n * GridWidth * 8)
	y := g.Alloc(n * GridWidth * 8)
	a := g.Alloc(64)

	b := isa.NewProgram("saxpy.run")
	b.SyscallOp()
	b.LoadAt(8, constAddr(a)) // broadcast scalar
	b.LoopIdx(func(c *isa.Ctx) int { return int(c.Arg0(1)) }, func(bb *isa.Builder, i int) {
		bb.LoadAt(8, gridAddr(x, i))
		bb.LoadAt(8, gridAddr(y, i))
		bb.OpDeps(isa.Simd, 1, 2) // mac consumes both loads
		bb.StoreAt(8, gridAddr(y, i), 1)
	})
	b.SyscallOp()
	run := b.Build()

	return &Service{
		Name:  "spmd-saxpy",
		Group: "GPGPU",
		APIs:  []string{"run"},
		progs: map[string]*isa.Program{"run": run},
		gen:   spmdGen("run", 192),
	}
}

// newDotProd builds a blocked dot product with a per-thread serial
// accumulation chain and a final atomic reduction.
func newDotProd(g *alloc.Globals) *Service {
	n := 256
	va := g.Alloc(n * GridWidth * 8)
	vb := g.Alloc(n * GridWidth * 8)
	sum := g.Alloc(64)

	b := isa.NewProgram("dotprod.run")
	b.SyscallOp()
	b.LoopIdx(func(c *isa.Ctx) int { return int(c.Arg0(1)) }, func(bb *isa.Builder, i int) {
		bb.LoadAt(8, gridAddr(va, i))
		bb.LoadAt(8, gridAddr(vb, i))
		bb.OpDeps(isa.Simd, 1, 2)
		// Accumulate: serial FP chain across iterations (distance = one
		// loop body: 4 instrs + latch + header branch).
		bb.OpDeps(isa.FAlu, 1, 7)
	})
	b.AtomicAt(8, constAddr(sum))
	b.SyscallOp()
	run := b.Build()

	return &Service{
		Name:  "spmd-dotprod",
		Group: "GPGPU",
		APIs:  []string{"run"},
		progs: map[string]*isa.Program{"run": run},
		gen:   spmdGen("run", 192),
	}
}

// newStencil builds a 1-D 3-point stencil: three neighbouring loads,
// a weighted sum, one store.
func newStencil(g *alloc.Globals) *Service {
	n := 300
	in := g.Alloc((n + 2) * GridWidth * 8)
	out := g.Alloc(n * GridWidth * 8)

	b := isa.NewProgram("stencil.run")
	b.SyscallOp()
	b.LoopIdx(func(c *isa.Ctx) int { return int(c.Arg0(1)) }, func(bb *isa.Builder, i int) {
		bb.LoadAt(8, gridAddr(in, i))
		bb.LoadAt(8, func(c *isa.Ctx) uint64 {
			return in + ((c.Slots[i]+1)*GridWidth+c.Arg0(tidArg))*8
		})
		bb.LoadAt(8, func(c *isa.Ctx) uint64 {
			return in + ((c.Slots[i]+2)*GridWidth+c.Arg0(tidArg))*8
		})
		bb.OpDeps(isa.Simd, 1, 3)
		bb.OpDeps(isa.Simd, 1, 3)
		bb.OpsChain(isa.Simd, 1, 1)
		bb.StoreAt(8, gridAddr(out, i), 1)
	})
	b.SyscallOp()
	run := b.Build()

	return &Service{
		Name:  "spmd-stencil",
		Group: "GPGPU",
		APIs:  []string{"run"},
		progs: map[string]*isa.Program{"run": run},
		gen:   spmdGen("run", 160),
	}
}
