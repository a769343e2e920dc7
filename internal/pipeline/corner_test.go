package pipeline

import (
	"testing"

	"simr/internal/isa"
)

// smtUops builds an interleaved multi-thread stream with a cold load on
// thread 0 so ROB occupancy (partitioned or unified) becomes the
// binding constraint once the miss stalls retirement.
func smtUops(n, threads int) Stream {
	s := appendUop(Stream{}, load, 1<<30)
	for i := 1; i < n; i++ {
		s = appendUop(s, Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1, Thread: uint8(i % threads)})
	}
	return s
}

// TestPartitionedROBSingleThreadMatchesUnified pins the ring-buffer
// dispatch history to the unified-ROB semantics it replaces: for a
// single-thread stream, a per-thread window of k must stall dispatch at
// exactly the same points as a unified ROB of k entries.
func TestPartitionedROBSingleThreadMatchesUnified(t *testing.T) {
	s := smtUops(120, 1)
	for _, k := range []int{4, 8, 32} {
		cu := testCfg()
		cu.ROB = k
		unified := NewCore(cu).Run(testMem(), s)
		cp := testCfg()
		cp.ROBPerThread = k
		part := NewCore(cp).Run(testMem(), s)
		if part.Cycles != unified.Cycles {
			t.Fatalf("window %d: partitioned %d cycles, unified %d", k, part.Cycles, unified.Cycles)
		}
	}
}

// TestPartitionedROBGivesEachThreadOwnWindow checks the SMT semantics:
// two cold loads on thread 0 sit 12 uops apart globally but only 6
// apart in thread 0's own stream, so per-thread windows of 8 let the
// misses overlap while a unified 8-entry ROB serialises them.
func TestPartitionedROBGivesEachThreadOwnWindow(t *testing.T) {
	s := appendUop(Stream{}, load, 1<<30)
	for i := 1; i < 12; i++ {
		s = appendUop(s, Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1, Thread: uint8(i % 2)})
	}
	s = appendUop(s, load, 1<<30+8192)

	cu := testCfg()
	cu.ROB = 8
	unified := NewCore(cu).Run(testMem(), s)
	cp := testCfg()
	cp.ROBPerThread = 8
	part := NewCore(cp).Run(testMem(), s)
	if part.Cycles+100 > unified.Cycles {
		t.Fatalf("partitioned (8/thread) %d cycles, unified (8) %d: misses not overlapping",
			part.Cycles, unified.Cycles)
	}
}

// TestNoSpeculationStallsFetch exercises the GPU frontend corner: with
// NoSpeculation every branch holds fetch until it resolves, so even a
// perfectly predicted branch stream slows down sharply.
func TestNoSpeculationStallsFetch(t *testing.T) {
	n := 200
	uops := make([]Uop, n)
	for i := range uops {
		uops[i] = Uop{Class: isa.Branch, Dep1: -1, Dep2: -1, PC: 0x40, TakenMask: 1}
	}
	spec := NewCore(testCfg()).Run(testMem(), Stream{Uops: uops})
	cfg := testCfg()
	cfg.NoSpeculation = true
	nospec := NewCore(cfg).Run(testMem(), Stream{Uops: uops})
	if nospec.Cycles < 2*spec.Cycles {
		t.Fatalf("NoSpeculation %d cycles vs speculative %d: fetch not stalling on branches",
			nospec.Cycles, spec.Cycles)
	}
}

// TestFenceOnlyOrdersInOrder pins the Fence/InOrder interaction: a
// fence behind a cold load pushes an in-order core's issue barrier to
// the load's completion, so a dependent ALU chain after it lands its
// latency on top of the miss. Without the fence — or out of order —
// the chain overlaps the miss and only in-order retirement remains.
func TestFenceOnlyOrdersInOrder(t *testing.T) {
	mk := func(fence bool) Stream {
		s := appendUop(Stream{}, load, 1<<30)
		if fence {
			s = appendUop(s, Uop{Class: isa.Fence, Dep1: 0, Dep2: -1})
		} else {
			s = appendUop(s, Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1})
		}
		// A dependent chain that does NOT read the fence: only the
		// in-order issue barrier can delay it.
		s = appendUop(s, Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1})
		for i := 0; i < 100; i++ {
			s = appendUop(s, Uop{Class: isa.IAlu, Dep1: int32(len(s.Uops) - 1), Dep2: -1})
		}
		return s
	}
	inorder := testCfg()
	inorder.InOrder = true

	fenced := NewCore(inorder).Run(testMem(), mk(true))
	unfenced := NewCore(inorder).Run(testMem(), mk(false))
	ooo := NewCore(testCfg()).Run(testMem(), mk(true))
	if fenced.Cycles <= unfenced.Cycles+50 {
		t.Fatalf("in-order fence added no delay: fenced %d, unfenced %d",
			fenced.Cycles, unfenced.Cycles)
	}
	if fenced.Cycles <= ooo.Cycles+50 {
		t.Fatalf("fence barrier not specific to in-order: in-order %d, OoO %d",
			fenced.Cycles, ooo.Cycles)
	}
}

// TestRunSteadyStateAllocs is the regression test for the per-thread
// ROB ring hoist: after one warm-up run sizes the scratch, repeated
// Core.Run calls on a partitioned-ROB config must not allocate.
func TestRunSteadyStateAllocs(t *testing.T) {
	cfg := testCfg()
	cfg.ROBPerThread = 8
	c := NewCore(cfg)
	ms := testMem()
	s := smtUops(256, 8)
	s.Uops[0] = Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1} // ALU-only: keep mem out
	c.Run(ms, s)
	if n := testing.AllocsPerRun(10, func() { c.Run(ms, s) }); n != 0 {
		t.Fatalf("Core.Run steady state allocates %.1f times per run, want 0", n)
	}
}

// BenchmarkRunSMTPartitioned measures the partitioned-ROB dispatch path
// on a reused core — the configuration the ROB ring hoist targets.
// Allocations are reported so regressions in the hot loop show up.
func BenchmarkRunSMTPartitioned(b *testing.B) {
	cfg := testCfg()
	cfg.ROBPerThread = 16
	c := NewCore(cfg)
	ms := testMem()
	s := benchUops(4096, 0)
	for i := range s.Uops {
		s.Uops[i].Thread = uint8(i % 8)
	}
	c.Run(ms, s)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(ms, s)
	}
}
