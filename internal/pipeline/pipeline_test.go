package pipeline

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"simr/internal/isa"
	"simr/internal/mem"
)

func testMem() *mem.System {
	return mem.NewSystem(mem.SysConfig{
		L1:                mem.CacheConfig{Name: "l1", SizeBytes: 4 << 10, Ways: 4, LineBytes: 32, Banks: 2, LatCycles: 3},
		TLB:               mem.TLBConfig{EntriesPerBank: 32, Banks: 2, MissLatCycles: 40},
		L2:                mem.CacheConfig{Name: "l2", SizeBytes: 16 << 10, Ways: 4, LineBytes: 32, Banks: 1, LatCycles: 12},
		L3:                mem.CacheConfig{Name: "l3", SizeBytes: 64 << 10, Ways: 4, LineBytes: 32, Banks: 1, LatCycles: 36},
		ICLatCycles:       4,
		DRAMLatCycles:     160,
		DRAMBytesPerCycle: 16,
	})
}

func testCfg() Config {
	return Config{
		Name:       "t",
		FetchWidth: 4, IssueWidth: 4, RetireWidth: 4,
		ROB:     64,
		Lanes:   1,
		IALULat: 1, FALULat: 3, SimdLat: 3, BranchLat: 1, SyscallLat: 10,
		RedirectPenalty: 10,
		FreqGHz:         2.5,
	}
}

func alus(n int, dep bool) []Uop {
	uops := make([]Uop, n)
	for i := range uops {
		uops[i] = Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1}
		if dep && i > 0 {
			uops[i].Dep1 = int32(i - 1)
		}
	}
	return uops
}

// appendUop appends u to s, issuing accesses to addrs.
func appendUop(s Stream, u Uop, addrs ...uint64) Stream {
	u.Acc, u.NAcc = uint32(len(s.Addrs)), uint16(len(addrs))
	s.Addrs = append(s.Addrs, addrs...)
	s.Uops = append(s.Uops, u)
	return s
}

// load is a scalar load uop with no dependencies; appendUop gives it
// its addresses.
var load = Uop{Class: isa.Load, Dep1: -1, Dep2: -1}

func TestIndependentOpsReachIssueWidth(t *testing.T) {
	c := NewCore(testCfg())
	st := c.Run(testMem(), Stream{Uops: alus(400, false)})
	if ipc := st.IPC(); ipc < 3.0 {
		t.Fatalf("independent ALU IPC %.2f, want near issue width 4", ipc)
	}
}

func TestSerialChainBoundByLatency(t *testing.T) {
	c := NewCore(testCfg())
	st := c.Run(testMem(), Stream{Uops: alus(400, true)})
	if ipc := st.IPC(); ipc > 1.05 {
		t.Fatalf("serial chain IPC %.2f, want <= ~1", ipc)
	}
	// With 4-cycle ALUs the chain runs 4x slower.
	cfg := testCfg()
	cfg.IALULat = 4
	c4 := NewCore(cfg)
	st4 := c4.Run(testMem(), Stream{Uops: alus(400, true)})
	if r := float64(st4.Cycles) / float64(st.Cycles); r < 3.0 {
		t.Fatalf("4-cycle ALU chain only %.2fx slower", r)
	}
}

func TestOoOIssueOvertakesStalledLoad(t *testing.T) {
	// A cold load followed by many independent ALUs: the ALUs must not
	// wait for the load (out-of-order issue).
	s := appendUop(Stream{}, load, 1<<30)
	s.Uops = append(s.Uops, alus(100, false)...)
	c := NewCore(testCfg())
	st := c.Run(testMem(), s)
	// Serial would be ~200+ (DRAM) + 25; OoO overlaps: cycles ≈ load
	// completion (retire is in order behind the load).
	if st.Cycles > 300 {
		t.Fatalf("cycles %d: ALUs appear serialised behind the load", st.Cycles)
	}
	if st.AvgLoadLatency() < 100 {
		t.Fatalf("cold load latency %.0f too small", st.AvgLoadLatency())
	}
}

func TestROBLimitsOverlap(t *testing.T) {
	// Two cold loads to different lines separated by more than ROB
	// entries cannot overlap; closer than ROB they can.
	mk := func(gap int) uint64 {
		s := appendUop(Stream{}, load, 1<<30)
		s.Uops = append(s.Uops, alus(gap, false)...)
		s = appendUop(s, load, 1<<30+4096)
		c := NewCore(testCfg())
		st := c.Run(testMem(), s)
		return st.Cycles
	}
	near, far := mk(10), mk(200) // ROB=64
	if far <= near+100 {
		t.Fatalf("ROB occupancy not limiting: near=%d far=%d", near, far)
	}
}

func TestBranchMispredictRedirect(t *testing.T) {
	// Pseudo-random branch outcomes defeat both predictors (a simple
	// alternating pattern would be learned by the global history).
	n := 200
	uops := make([]Uop, n)
	x := uint32(0x9e3779b9)
	for i := range uops {
		x = x*1664525 + 1013904223
		uops[i] = Uop{Class: isa.Branch, Dep1: -1, Dep2: -1, PC: 0x40, TakenMask: uint64(x>>16) & 1}
	}
	c := NewCore(testCfg())
	st := c.Run(testMem(), Stream{Uops: uops})
	if st.Branches != uint64(n) {
		t.Fatalf("branches %d", st.Branches)
	}
	if st.Mispredicts < uint64(n)/4 {
		t.Fatalf("alternating pattern mispredicts %d, expected many", st.Mispredicts)
	}
	// A well-predicted stream must be much faster.
	for i := range uops {
		uops[i].TakenMask = 1
	}
	c2 := NewCore(testCfg())
	st2 := c2.Run(testMem(), Stream{Uops: uops})
	if st2.Cycles >= st.Cycles {
		t.Fatalf("predicted branches not faster: %d vs %d", st2.Cycles, st.Cycles)
	}
}

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	lp := NewLoopPredictor(6)
	pc := uint64(0x100)
	// Train: trip count 20, three instances.
	for inst := 0; inst < 3; inst++ {
		for i := 0; i < 19; i++ {
			lp.Update(pc, true)
		}
		lp.Update(pc, false)
	}
	// Now it should predict the whole fourth instance exactly.
	for i := 0; i < 19; i++ {
		pred, conf := lp.Predict(pc)
		if !conf || !pred {
			t.Fatalf("iteration %d: pred=%v conf=%v", i, pred, conf)
		}
		lp.Update(pc, true)
	}
	pred, conf := lp.Predict(pc)
	if !conf || pred {
		t.Fatalf("exit iteration: pred=%v conf=%v, want not-taken with confidence", pred, conf)
	}
}

func TestSubBatchInterleavingTokens(t *testing.T) {
	cfg := testCfg()
	cfg.Lanes = 8
	c := NewCore(cfg)
	uops := []Uop{{Class: isa.IAlu, Dep1: -1, Dep2: -1, Mask: (1 << 32) - 1}}
	st := c.Run(testMem(), Stream{Uops: uops})
	if st.IssueSlots != 4 {
		t.Fatalf("32 lanes over 8 = %d tokens, want 4", st.IssueSlots)
	}
	if st.ScalarOps != 32 || st.Uops != 1 {
		t.Fatalf("op accounting: scalar=%d uops=%d", st.ScalarOps, st.Uops)
	}
}

// TestUopSize pins the uop's host width: Core.Run reads one uop per
// simulated instruction, so every byte here is memory traffic.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(Uop{}); n != 40 {
		t.Fatalf("Uop is %d bytes, want 40", n)
	}
}

// TestRunLanesFromMask: a uop's lane count is popcount(Mask), or 1 for
// a scalar uop (Mask 0). Compute uops take one issue token per Lanes
// lanes; memory uops take one LSQ row whatever their width.
func TestRunLanesFromMask(t *testing.T) {
	cfg := testCfg()
	cfg.Lanes = 4
	for _, c := range []struct {
		class         isa.Class
		mask          uint64
		tokens, lanes uint64
	}{
		{isa.IAlu, 0, 1, 1},
		{isa.IAlu, 1 << 40, 1, 1},
		{isa.IAlu, 0xF, 1, 4},
		{isa.IAlu, 0x1F, 2, 5},
		{isa.Simd, 0xF0F0F0F0, 4, 16},
		{isa.Load, 0xF0F0F0F0, 1, 16},
	} {
		s := appendUop(Stream{}, Uop{Class: c.class, Dep1: -1, Dep2: -1, Mask: c.mask}, 1<<20)
		st := NewCore(cfg).Run(testMem(), s)
		if st.IssueSlots != c.tokens || st.ScalarOps != c.lanes || st.LaneOpsByClass[c.class] != c.lanes {
			t.Errorf("%v mask %#x: %d tokens, %d lane ops; want %d, %d",
				c.class, c.mask, st.IssueSlots, st.ScalarOps, c.tokens, c.lanes)
		}
	}
}

// TestScalarBranchTakenBit: a scalar branch's outcome is TakenMask bit
// 0. Pseudo-random outcomes in bit 0 defeat the predictors; the same
// pattern in bit 1 leaves every outcome not taken, exactly like a
// stream with no taken bits.
func TestScalarBranchTakenBit(t *testing.T) {
	branches := func(taken func(x uint32) uint64) Stream {
		uops := make([]Uop, 200)
		x := uint32(0x9e3779b9)
		for i := range uops {
			x = x*1664525 + 1013904223
			uops[i] = Uop{Class: isa.Branch, Dep1: -1, Dep2: -1, PC: 0x40, TakenMask: taken(x)}
		}
		return Stream{Uops: uops}
	}
	bit0 := NewCore(testCfg()).Run(testMem(), branches(func(x uint32) uint64 { return uint64(x>>16) & 1 }))
	bit1 := NewCore(testCfg()).Run(testMem(), branches(func(x uint32) uint64 { return uint64(x>>16) & 1 << 1 }))
	never := NewCore(testCfg()).Run(testMem(), branches(func(uint32) uint64 { return 0 }))
	if !reflect.DeepEqual(bit1, never) {
		t.Fatalf("TakenMask bit 1 changed a scalar branch:\n%+v\nvs never taken\n%+v", bit1, never)
	}
	if bit0.Mispredicts < 50 || bit0.Mispredicts <= never.Mispredicts {
		t.Fatalf("bit-0 outcomes mispredict %d times, never-taken %d: bit 0 not read",
			bit0.Mispredicts, never.Mispredicts)
	}
}

func TestMajorityVoting(t *testing.T) {
	cfg := testCfg()
	cfg.MajorityVote = true
	c := NewCore(cfg)
	// 3 of 4 lanes taken: majority says taken; one lane flushes.
	uops := []Uop{{
		Class: isa.Branch, Dep1: -1, Dep2: -1,
		Mask: 0xF, TakenMask: 0x7, PC: 0x200,
	}}
	st := c.Run(testMem(), Stream{Uops: uops})
	if st.FlushedLanes != 1 {
		t.Fatalf("flushed lanes %d, want 1", st.FlushedLanes)
	}

	// Lane-0 policy with lane 0 in the minority direction flushes 3.
	cfg.MajorityVote = false
	c2 := NewCore(cfg)
	uops[0].TakenMask = 0x8 // only lane 3 taken; lane 0 not taken -> outcome false
	st2 := c2.Run(testMem(), Stream{Uops: uops})
	if st2.FlushedLanes != 1 {
		t.Fatalf("lane-0 outcome flushes %d", st2.FlushedLanes)
	}
	uops[0].TakenMask = 0xE // lanes 1-3 taken, lane 0 not: outcome false, flush 3
	c3 := NewCore(cfg)
	st3 := c3.Run(testMem(), Stream{Uops: uops})
	if st3.FlushedLanes != 3 {
		t.Fatalf("lane-0 flushes %d, want 3", st3.FlushedLanes)
	}
}

func TestInOrderIssueSerialises(t *testing.T) {
	// Two independent load+use pairs: an OoO core overlaps both cold
	// misses; an in-order core cannot issue the second load past the
	// first stalled use, so the misses serialise end to end.
	s := appendUop(Stream{}, load, 1<<30)
	s = appendUop(s, Uop{Class: isa.IAlu, Dep1: 0, Dep2: -1})
	s = appendUop(s, load, 1<<30+8192)
	s = appendUop(s, Uop{Class: isa.IAlu, Dep1: 2, Dep2: -1})

	cfg := testCfg()
	cfg.InOrder = true
	cfg.NoSpeculation = true
	st := NewCore(cfg).Run(testMem(), s)
	ooo := NewCore(testCfg()).Run(testMem(), s)
	if st.Cycles <= ooo.Cycles+20 {
		t.Fatalf("in-order (%d) not meaningfully slower than OoO (%d)", st.Cycles, ooo.Cycles)
	}
}

func TestSMTPartitionedROB(t *testing.T) {
	cfg := testCfg()
	cfg.ROBPerThread = 8
	c := NewCore(cfg)
	// Two threads, interleaved; thread 0 has a cold load then filler.
	s := appendUop(Stream{}, load, 1<<30)
	for i := 1; i < 60; i++ {
		s = appendUop(s, Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1, Thread: uint8(i % 2)})
	}
	st := c.Run(testMem(), s)
	if st.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestStoresOffCriticalPath(t *testing.T) {
	c := NewCore(testCfg())
	s := appendUop(Stream{}, Uop{Class: isa.Store, Dep1: -1, Dep2: -1}, 1<<30)
	s.Uops = append(s.Uops, alus(20, false)...)
	st := c.Run(testMem(), s)
	if st.Cycles > 60 {
		t.Fatalf("store miss blocked retirement: %d cycles", st.Cycles)
	}
}

func TestAccumulate(t *testing.T) {
	c := NewCore(testCfg())
	ms := testMem()
	a := c.Run(ms, Stream{Uops: alus(50, false)})
	b := c.Run(ms, Stream{Uops: alus(50, false)})
	var total Stats
	total.Accumulate(&a)
	total.Accumulate(&b)
	if total.Uops != 100 || total.Cycles != a.Cycles+b.Cycles {
		t.Fatalf("accumulate wrong: %d uops %d cycles", total.Uops, total.Cycles)
	}
}

// memUops builds a load stream spread over distinct lines so every run
// generates real cache traffic.
func memUops(n int, stride uint64) Stream {
	var s Stream
	for i := 0; i < n; i++ {
		s = appendUop(s, load, uint64(i)*stride)
	}
	return s
}

// TestAccumulateMemDeltas is the regression test for the old
// last-writer-wins bug: Accumulate must SUM memory counters, and the
// sum of per-run deltas on a shared System must equal its final
// cumulative snapshot.
func TestAccumulateMemDeltas(t *testing.T) {
	c := NewCore(testCfg())
	ms := testMem()

	var total Stats
	for run := 0; run < 3; run++ {
		prev := ms.Stats()
		ms.ResetTiming()
		st := c.Run(ms, memUops(64, 64))
		st.Mem = st.Mem.Delta(&prev)
		if st.Mem.L1.Accesses != 64 {
			t.Fatalf("run %d delta: %d L1 accesses, want 64", run, st.Mem.L1.Accesses)
		}
		total.Accumulate(&st)
	}

	final := ms.Stats()
	if total.Mem != final {
		t.Fatalf("sum of per-run deltas != final snapshot:\n got %+v\nwant %+v", total.Mem, final)
	}
	if total.Mem.L1.Accesses != 3*64 {
		t.Fatalf("accumulated L1 accesses = %d, want %d (old code kept only the last run)",
			total.Mem.L1.Accesses, 3*64)
	}
}

// TestSlotTableWindow pins the sliding-window slotTable to the
// semantics of the original per-cycle map: same grants for the same
// request sequence, with pruned cycles never revisited.
func TestSlotTableWindow(t *testing.T) {
	var s slotTable
	s.init(2)
	ref := map[uint64]uint16{} // reference: unbounded per-cycle counts
	refGrant := func(want uint64) uint64 {
		for {
			if ref[want] < 2 {
				ref[want]++
				return want
			}
			want++
		}
	}
	// Monotone floor with bursts of grants around it, far jumps to
	// force the ring to grow, and repeated cycles to fill slots.
	floor := uint64(0)
	for i := 0; i < 5000; i++ {
		floor += uint64(i % 3)
		s.advance(floor)
		want := floor + 1 + uint64(i%7)*uint64(i%11)
		if i%13 == 0 {
			want += 4096 // leap past the window to trigger grow
		}
		got := s.grant(want)
		if exp := refGrant(want); got != exp {
			t.Fatalf("step %d: grant(%d) = %d, reference %d", i, want, got, exp)
		}
	}
	if len(s.counts) > 1<<20 {
		t.Fatalf("window grew unboundedly: %d slots", len(s.counts))
	}
}

// Property: cycle count is monotone in stream length and at least
// len/issueWidth.
func TestQuickCyclesMonotone(t *testing.T) {
	f := func(n uint8) bool {
		a := int(n%100) + 1
		c1 := NewCore(testCfg()).Run(testMem(), Stream{Uops: alus(a, false)})
		c2 := NewCore(testCfg()).Run(testMem(), Stream{Uops: alus(a+10, false)})
		return c2.Cycles >= c1.Cycles && c1.Cycles >= uint64(a/4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorTrains(t *testing.T) {
	p := NewPredictor(10)
	pc := uint64(0x80)
	// Enough updates for the history register to saturate (constant
	// index) and the counter to train.
	for i := 0; i < 20; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Fatal("predictor did not learn a strongly taken branch")
	}
}

func TestSyscallLatencyCharged(t *testing.T) {
	cfg := testCfg()
	fast := NewCore(cfg).Run(testMem(), Stream{Uops: alus(5, true)})
	uops := append([]Uop{{Class: isa.Syscall, Dep1: -1, Dep2: -1}}, alus(5, true)...)
	uops[1].Dep1 = 0 // first ALU waits for the syscall
	slow := NewCore(cfg).Run(testMem(), Stream{Uops: uops})
	if slow.Cycles < fast.Cycles+cfg.SyscallLat/2 {
		t.Fatalf("syscall latency not on critical path: %d vs %d", slow.Cycles, fast.Cycles)
	}
}

func TestFenceOrdersInOrderCore(t *testing.T) {
	cfg := testCfg()
	cfg.InOrder = true
	s := appendUop(Stream{}, load, 1<<30)
	s = appendUop(s, Uop{Class: isa.Fence, Dep1: 0, Dep2: -1})
	s = appendUop(s, Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1})
	st := NewCore(cfg).Run(testMem(), s)
	if st.Cycles < 150 {
		t.Fatalf("fence did not order behind the cold load: %d cycles", st.Cycles)
	}
}

func TestConfigSeconds(t *testing.T) {
	cfg := testCfg() // 2.5 GHz
	if s := cfg.Seconds(2_500_000_000); s < 0.99 || s > 1.01 {
		t.Fatalf("2.5e9 cycles at 2.5GHz = %v s", s)
	}
}

func TestStatsHelpers(t *testing.T) {
	st := Stats{Cycles: 100, Uops: 50, LoadCount: 4, LoadLatSum: 100}
	if st.IPC() != 0.5 || st.AvgLoadLatency() != 25 {
		t.Fatalf("helpers wrong: %v %v", st.IPC(), st.AvgLoadLatency())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.AvgLoadLatency() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}
