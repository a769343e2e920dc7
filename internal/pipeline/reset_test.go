package pipeline

import (
	"reflect"
	"testing"

	"simr/internal/isa"
)

// resetConfig is one configuration of the Reset test and the SMT
// thread count of its streams.
type resetConfig struct {
	cfg     Config
	threads int
}

// resetConfigs mirror the shapes of the four design points the chip
// study runs on one reused core — a scalar OoO core, the same core with
// its ROB partitioned over 8 SMT threads, an 8-lane OoO-SIMT core with
// majority voting and an in-order, non-speculative 32-lane core — plus
// a 4-thread partition, so a core can be Reset to fewer SMT threads
// than it last ran.
func resetConfigs() []resetConfig {
	cpu := Config{
		Name:       "cpu",
		FetchWidth: 8, IssueWidth: 8, RetireWidth: 8,
		ROB:     256,
		Lanes:   1,
		IALULat: 1, FALULat: 3, SimdLat: 3, BranchLat: 1, SyscallLat: 50,
		RedirectPenalty: 12,
		FreqGHz:         2.5,
	}
	smt8 := cpu
	smt8.Name, smt8.ROBPerThread = "smt8", 32
	smt4 := cpu
	smt4.Name, smt4.ROBPerThread = "smt4", 64
	rpu := Config{
		Name:       "rpu",
		FetchWidth: 8, IssueWidth: 8, RetireWidth: 8,
		ROB:     256,
		Lanes:   8,
		IALULat: 4, FALULat: 6, SimdLat: 6, BranchLat: 4, SyscallLat: 50,
		RedirectPenalty: 16,
		MajorityVote:    true,
		FreqGHz:         2.5,
	}
	gpu := Config{
		Name:       "gpu",
		FetchWidth: 2, IssueWidth: 1, RetireWidth: 2,
		ROB:     64,
		Lanes:   32,
		IALULat: 4, FALULat: 6, SimdLat: 6, BranchLat: 8, SyscallLat: 600,
		InOrder:       true,
		NoSpeculation: true,
		FreqGHz:       1.4,
	}
	return []resetConfig{{cpu, 1}, {smt8, 8}, {smt4, 4}, {rpu, 1}, {gpu, 1}}
}

// seededStream returns n uops for cfg from seed: ALU, FP, SIMD, load,
// store, atomic, fence and syscall ops with backward dependencies, and
// branches at a few PCs that run counted loops (so the loop predictor
// gains confidence) or follow the seed (so gshare history matters).
// Uops round-robin over rc.threads threads; batch-mode configs get
// random active and taken masks.
func seededStream(rc resetConfig, seed uint64, n int) Stream {
	x := seed
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 16
	}
	classes := []isa.Class{isa.IAlu, isa.IAlu, isa.FAlu, isa.Simd, isa.Load, isa.Load, isa.Store, isa.Atomic, isa.Fence, isa.Syscall}
	var s Stream
	trip := make([]uint64, 4)
	for i := 0; i < n; i++ {
		u := Uop{Dep1: -1, Dep2: -1, Thread: uint8(i % rc.threads)}
		var addrs []uint64
		r := next()
		if i > 0 && r%3 != 0 {
			u.Dep1 = int32(i - 1 - int(r>>8)%min(i, 24))
		}
		if i > 1 && r%5 == 0 {
			u.Dep2 = int32(i - 1 - int(r>>16)%min(i, 40))
		}
		if r%4 == 0 {
			b := int(r>>24) % len(trip)
			u.Class = isa.Branch
			u.PC = 0x4000 + uint64(b)*16
			if b < 2 {
				// A counted loop of 5 + b iterations.
				trip[b]++
				if trip[b]%uint64(5+b) != 0 {
					u.TakenMask = 1
				}
			} else {
				u.TakenMask = r >> 30 & 1
			}
		} else {
			u.Class = classes[int(r>>32)%len(classes)]
			u.PC = 0x1000 + uint64(i%512)*4
			if u.Class.IsMem() {
				addrs = []uint64{0x100000 + (r>>20)%(96<<10)&^7, 0x300000 + uint64(i)*8}
			}
		}
		if rc.cfg.Lanes > 1 {
			u.Mask = next() | 1<<63
			u.TakenMask = 0
			if u.Class == isa.Branch {
				u.TakenMask = next() & u.Mask
			}
		}
		s = appendUop(s, u, addrs...)
	}
	return s
}

// TestCoreResetMatchesFresh: a core dirtied by two streams under one
// configuration and then Reset to another — more or fewer SMT threads,
// scalar or SIMT, out-of-order or in-order — runs a seeded stream to
// exactly the Stats a fresh NewCore gives. Chip cells reuse one core
// per timing model across architectures on this guarantee.
func TestCoreResetMatchesFresh(t *testing.T) {
	cfgs := resetConfigs()
	for _, rc := range cfgs {
		measured := seededStream(rc, 7, 6000)
		want := NewCore(rc.cfg).Run(testMem(), measured)
		for _, dirty := range cfgs {
			c := NewCore(dirty.cfg)
			c.Run(testMem(), seededStream(dirty, 11, 9000))
			c.Run(testMem(), seededStream(dirty, 13, 2000))
			c.Reset(rc.cfg)
			if got := c.Run(testMem(), measured); !reflect.DeepEqual(got, want) {
				t.Errorf("%s after %s: Reset core gives\n%+v\nfresh core gives\n%+v", rc.cfg.Name, dirty.cfg.Name, got, want)
			}
		}
	}
}
