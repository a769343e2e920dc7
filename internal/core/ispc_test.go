package core

import (
	"testing"

	"simr/internal/isa"
	"simr/internal/simt"
)

func TestScalarFallbackClasses(t *testing.T) {
	for _, c := range []isa.Class{isa.Atomic, isa.Syscall, isa.Fence, isa.CallOp, isa.RetOp} {
		if !scalarFallback(&simt.BatchOp{Class: c, PC: 4}) {
			t.Fatalf("%v must fall back to scalar code", c)
		}
	}
	for _, c := range []isa.Class{isa.FAlu, isa.Simd, isa.Load, isa.Store, isa.Jump} {
		if scalarFallback(&simt.BatchOp{Class: c, PC: 4}) {
			t.Fatalf("%v should vectorize", c)
		}
	}
	// Integer ops: deterministic subset scalarizes.
	saw := map[bool]bool{}
	for pc := uint64(0); pc < 64; pc += 4 {
		saw[scalarFallback(&simt.BatchOp{Class: isa.IAlu, PC: pc})] = true
	}
	if !saw[true] || !saw[false] {
		t.Fatal("integer fallback sampling should mix vector and scalar")
	}
}

func TestISPCUopsLowering(t *testing.T) {
	ops := []simt.BatchOp{
		{PC: 0, Class: isa.IAlu, Mask: 0xFF, Dep1: -1, Dep2: -1},                    // vectorizes (PC 0 is a multiple of 28? (0>>2)%7==0 -> fallback!)
		{PC: 4, Class: isa.Branch, Mask: 0xFF, TakenMask: 0x0F, Dep1: -1, Dep2: -1}, // divergent -> predicate
		{PC: 8, Class: isa.Load, Mask: 0x0F, Addrs: []uint64{1, 2, 3, 4, 0, 0, 0, 0}, Size: 8, Dep1: 0, Dep2: -1},
		{PC: 12, Class: isa.Atomic, Mask: 0x03, Addrs: []uint64{16, 24}, Size: 8, Dep1: -1, Dep2: -1},
		{PC: 16, Class: isa.Branch, Mask: 0xFF, TakenMask: 0xFF, Dep1: -1, Dep2: -1}, // uniform -> stays a branch
	}
	s := ispcUops(ops)
	uops := s.Uops

	// Op 0: PC 0 hits the 1-in-7 integer fallback -> 8 scalar uops.
	if uops[0].Lanes() != 1 {
		t.Fatalf("expected scalar expansion for PC 0, got lanes=%d", uops[0].Lanes())
	}
	// Find the predicate op (was the divergent branch).
	var pred, uni, atomics, gather int
	for _, u := range uops {
		switch {
		case u.PC == 4:
			if u.Class != isa.Simd {
				t.Fatalf("divergent branch lowered to %v, want predicate (simd)", u.Class)
			}
			pred++
		case u.PC == 16:
			if u.Class != isa.Branch {
				t.Fatalf("uniform branch lowered to %v", u.Class)
			}
			uni++
		case u.PC == 12:
			atomics++
			if u.Lanes() != 1 {
				t.Fatal("atomic not scalarized")
			}
		case u.PC == 8:
			gather++
			if acc := s.Accesses(&u); len(acc) != 4 {
				t.Fatalf("gather has %d accesses, want one per active lane", len(acc))
			}
		}
	}
	if pred != 1 || uni != 1 || atomics != 2 || gather != 1 {
		t.Fatalf("lowering counts: pred=%d uni=%d atomics=%d gather=%d", pred, uni, atomics, gather)
	}
}

func TestISPCDepRemapping(t *testing.T) {
	ops := []simt.BatchOp{
		{PC: 20, Class: isa.Atomic, Mask: 0x03, Addrs: []uint64{8, 16}, Size: 8, Dep1: -1, Dep2: -1},
		{PC: 24, Class: isa.FAlu, Mask: 0x03, Dep1: 0, Dep2: -1},
	}
	uops := ispcUops(ops).Uops
	// The atomic expands to 2 scalar uops; the FALU's dep must point at
	// the LAST of them (indices 0,1 -> dep 1).
	last := uops[len(uops)-1]
	if last.Class != isa.Simd || last.Dep1 != 1 {
		t.Fatalf("dep remap wrong: %+v", last)
	}
}
