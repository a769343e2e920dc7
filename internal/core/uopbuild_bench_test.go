package core

import (
	"math/rand"
	"testing"

	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/mem"
	"simr/internal/simt"
	"simr/internal/uservices"
)

func benchScalarTrace(b *testing.B) []isa.TraceOp {
	b.Helper()
	svc := uservices.NewSuite().Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(42)), 1)
	sg := alloc.NewStackGroup(0, 1, false)
	arena := alloc.NewArena(0, alloc.PolicyCPU, lineBytes, 1)
	tr, err := svc.Trace(&reqs[0], 0, sg.StackBase(0), arena)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchBatchOps(b *testing.B) ([]simt.BatchOp, *alloc.StackGroup) {
	b.Helper()
	svc := uservices.NewSuite().Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(42)), 32)
	sg := alloc.NewStackGroup(0, len(reqs), true)
	traces, err := svc.TraceBatch(reqs, sg, alloc.PolicySIMR, lineBytes, 8)
	if err != nil {
		b.Fatal(err)
	}
	spin := simt.DefaultSpin
	res, err := simt.RunMinSPPC(traces, 32, &spin)
	if err != nil {
		b.Fatal(err)
	}
	return res.Ops, sg
}

// BenchmarkScalarUops measures the scalar trace -> uop conversion that
// runScalar performs once per request for the CPU; allocs/op is the headline
// (one reset per request, zero per-op allocations once warm).
func BenchmarkScalarUops(b *testing.B) {
	tr := benchScalarTrace(b)
	var ub uopBuilder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ub.reset()
		uops := ub.scalarUops(tr, 0)
		if len(uops.Uops) != len(tr) {
			b.Fatal("length mismatch")
		}
	}
}

// BenchmarkBatchUops measures the lock-step stream -> uop conversion
// (lane expansion, stack interleave translation, MCU coalescing) that
// runBatched performs once per batch.
func BenchmarkBatchUops(b *testing.B) {
	ops, sg := benchBatchOps(b)
	var (
		ub  uopBuilder
		mcu mem.MCUStats
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ub.reset()
		uops := ub.batchUops(ops, sg, true, &mcu)
		if len(uops.Uops) != len(ops) {
			b.Fatal("length mismatch")
		}
	}
}
