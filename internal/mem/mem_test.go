package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return NewCache(CacheConfig{
		Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 32, Banks: 4, LatCycles: 3,
	})
}

func TestCacheHitAfterFill(t *testing.T) {
	c := smallCache()
	if hit, _ := c.Access(0x100, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := c.Access(0x100, false); !hit {
		t.Fatal("warm access missed")
	}
	// Same line, different word.
	if hit, _ := c.Access(0x110, false); !hit {
		t.Fatal("same-line access missed")
	}
	if c.Stats.Accesses != 3 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 16 sets × 2 ways
	sets := uint64(c.sets)
	a := uint64(0)
	b := a + sets*32   // same set, different tag
	d := a + 2*sets*32 // same set, third tag
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b (LRU)
	if hit, _ := c.Access(a, false); !hit {
		t.Fatal("a should have survived")
	}
	if hit, _ := c.Access(b, false); hit {
		t.Fatal("b should have been evicted")
	}
}

// TestCacheWritebackOnDirtyEvict: a write miss allocates its line
// dirty (write-allocate), so evicting it reports a writeback, while
// evicting a clean line does not.
func TestCacheWritebackOnDirtyEvict(t *testing.T) {
	c := smallCache()
	sets := uint64(c.sets)
	if hit, _ := c.Access(0, true); hit { // dirty fill
		t.Fatal("cold write hit")
	}
	if !c.Probe(0) {
		t.Fatal("write miss did not allocate its line")
	}
	c.Access(sets*32, false)
	_, wb := c.Access(2*sets*32, false) // evicts dirty line 0
	if !wb {
		t.Fatal("expected writeback of dirty LRU line")
	}
	if _, wb := c.Access(3*sets*32, false); wb { // evicts clean line sets*32
		t.Fatal("clean victim reported a writeback")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 4 || c.Stats.Writebacks != 1 {
		t.Fatalf("stats %+v, want 4 accesses, 4 misses, 1 writeback", c.Stats)
	}
}

func TestCacheBankConflicts(t *testing.T) {
	c := smallCache() // 4 banks, line interleaved
	// Two accesses to the same bank at the same cycle serialise.
	t0 := c.BankTime(0, 10)
	t1 := c.BankTime(0, 10)
	if t0 != 10 || t1 != 11 {
		t.Fatalf("bank serialisation wrong: %d %d", t0, t1)
	}
	// Different banks proceed in parallel.
	if tt := c.BankTime(32, 10); tt != 10 {
		t.Fatalf("distinct bank stalled: %d", tt)
	}
	if c.Stats.BankConflicts != 1 {
		t.Fatalf("conflicts = %d", c.Stats.BankConflicts)
	}
}

func TestCacheProbeAndMarkDirty(t *testing.T) {
	c := smallCache()
	c.Access(0x40, false)
	if !c.Probe(0x40) || c.Probe(0x4000) {
		t.Fatal("probe wrong")
	}
	c.MarkDirty(0x40)
	sets := uint64(c.sets)
	c.Access(0x40+sets*32, false)
	_, wb := c.Access(0x40+2*sets*32, false)
	if !wb {
		t.Fatal("MarkDirty did not stick")
	}
}

// Property: hit rate of a working set that fits is 100 % after warmup.
func TestQuickResidentSetAlwaysHits(t *testing.T) {
	f := func(seed uint8) bool {
		c := smallCache()
		// 8 lines fit easily in 1 KB.
		base := uint64(seed) * 4096
		for i := 0; i < 8; i++ {
			c.Access(base+uint64(i)*32, false)
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < 8; i++ {
				if hit, _ := c.Access(base+uint64(i)*32, false); !hit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(TLBConfig{EntriesPerBank: 2, Banks: 2, MissLatCycles: 40})
	if lat := tlb.Lookup(0x1000, 0); lat != 40 {
		t.Fatalf("cold lookup latency %d", lat)
	}
	if lat := tlb.Lookup(0x1008, 0); lat != 0 {
		t.Fatalf("same-page lookup latency %d", lat)
	}
	// The same page through a different bank misses again — the
	// duplication overhead of per-bank TLBs.
	if lat := tlb.Lookup(0x1000, 1); lat != 40 {
		t.Fatalf("other-bank lookup latency %d (duplication not modelled)", lat)
	}
	if tlb.Stats.Misses != 2 {
		t.Fatalf("misses %d", tlb.Stats.Misses)
	}
}

// TestTLBLRUWithinBank: a bank fills to capacity, a hit refreshes its
// entry (and moves it to the front of the scan), and a miss in a full
// bank evicts the least recently used entry wherever it sits — here
// the middle one, after the refreshes reordered the bank.
func TestTLBLRUWithinBank(t *testing.T) {
	tlb := NewTLB(TLBConfig{EntriesPerBank: 3, Banks: 1, MissLatCycles: 40})
	for _, c := range []struct {
		page uint64
		lat  uint64
	}{
		{0, 40}, {1, 40}, {2, 40}, // fill
		{2, 0}, {0, 0}, // refresh pages 2 and 0; page 1 is now LRU
		{3, 40},                // evicts page 1
		{0, 0}, {2, 0}, {3, 0}, // the survivors hit
		{1, 40}, // page 1 was evicted
	} {
		if lat := tlb.Lookup(c.page*PageBytes, 0); lat != c.lat {
			t.Fatalf("page %d: latency %d, want %d", c.page, lat, c.lat)
		}
	}
	if tlb.Stats.Accesses != 10 || tlb.Stats.Misses != 5 {
		t.Fatalf("stats %+v, want 10 accesses, 5 misses", tlb.Stats)
	}
}

func TestCoalesceBroadcast(t *testing.T) {
	var st MCUStats
	var sc CoalesceScratch
	lanes := make([][]uint64, 32)
	for i := range lanes {
		lanes[i] = []uint64{0x1000}
	}
	acc, p := Coalesce(lanes, 32, &st, &sc)
	if p != PatternBroadcast || len(acc) != 1 {
		t.Fatalf("broadcast: %v %d", p, len(acc))
	}
	if st.Emitted != 1 || st.LaneAccesses != 32 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCoalesceConsecutive(t *testing.T) {
	var st MCUStats
	var sc CoalesceScratch
	lanes := make([][]uint64, 8)
	for i := range lanes {
		lanes[i] = []uint64{0x2000 + uint64(i)*4}
	}
	acc, p := Coalesce(lanes, 32, &st, &sc)
	if p != PatternCoalesced || len(acc) != 1 {
		t.Fatalf("consecutive words in one line: %v %d", p, len(acc))
	}

	// 32 lanes × 8B at 4B granularity = 256 B = 8 lines.
	lanes = make([][]uint64, 32)
	for i := range lanes {
		lanes[i] = []uint64{0x4000 + uint64(i)*8, 0x4000 + uint64(i)*8 + 4}
	}
	acc, p = Coalesce(lanes, 32, nil, nil)
	if p != PatternCoalesced || len(acc) != 8 {
		t.Fatalf("interleaved push: %v %d accesses", p, len(acc))
	}
}

func TestCoalesceDivergent(t *testing.T) {
	var st MCUStats
	var sc CoalesceScratch
	lanes := make([][]uint64, 8)
	for i := range lanes {
		lanes[i] = []uint64{uint64(i) * 4096} // far apart, non-consecutive pages
	}
	// Distinct lines, each with a single word: treated as per-line
	// unique accesses; count equals lane count — no benefit but no
	// inflation either.
	acc, _ := Coalesce(lanes, 32, &st, &sc)
	if len(acc) != 8 {
		t.Fatalf("divergent emitted %d", len(acc))
	}
	// A genuinely non-consecutive multi-word line forces divergent.
	lanes = [][]uint64{{0x1000}, {0x1008}, {0x100c}} // words 0,2,3 of line
	_, p := Coalesce(lanes, 32, &st, &sc)
	if p != PatternDivergent {
		t.Fatalf("gap pattern classified %v", p)
	}
}

// With a shared scratch and a reused destination arena the per-op
// coalescing path must not allocate (the uop builder and tracedump
// both depend on this).
func TestCoalesceZeroAlloc(t *testing.T) {
	lanes := make([][]uint64, 32)
	for i := range lanes {
		lanes[i] = []uint64{0x1000 + uint64(i)*4, 0x1004 + uint64(i)*4}
	}
	var st MCUStats
	var sc CoalesceScratch
	dst := make([]uint64, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		dst, _ = AppendCoalesce(dst[:0], &sc, lanes, 32, &st)
	}); n != 0 {
		t.Fatalf("AppendCoalesce with shared scratch allocates %.1f/op", n)
	}
}

// TestNewCacheRejectsBadShape: NewCache panics on a geometry it cannot
// model: sets that do not divide evenly, a line size that is not a
// power of two, or one below 4 bytes (the tag word's top two bits hold
// the line's flags).
func TestNewCacheRejectsBadShape(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{Name: "uneven", SizeBytes: 1000, Ways: 2, LineBytes: 32},
		{Name: "line48", SizeBytes: 48 * 64, Ways: 2, LineBytes: 48},
		{Name: "line2", SizeBytes: 1024, Ways: 2, LineBytes: 2},
		{Name: "line1", SizeBytes: 1024, Ways: 2, LineBytes: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCache(%+v) did not panic", cfg.Name, cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
	NewCache(CacheConfig{Name: "line4", SizeBytes: 1024, Ways: 2, LineBytes: 4})
}

// TestCacheAccessAllocs: a cache lookup, hit or miss with eviction,
// allocates nothing.
func TestCacheAccessAllocs(t *testing.T) {
	c := smallCache()
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Access(i*96, i%3 == 0)
		i++
	}); n != 0 {
		t.Fatalf("Cache.Access allocates %.1f/op", n)
	}
}

func TestCoalesceEmpty(t *testing.T) {
	acc, _ := Coalesce([][]uint64{nil, nil}, 32, nil, nil)
	if acc != nil {
		t.Fatal("empty mask should emit nothing")
	}
}

// Property: the coalescer never emits more accesses than active lanes'
// word count, and at least one access when any lane is active.
func TestQuickCoalesceBounds(t *testing.T) {
	f := func(addrs []uint32) bool {
		if len(addrs) == 0 {
			return true
		}
		if len(addrs) > 32 {
			addrs = addrs[:32]
		}
		lanes := make([][]uint64, len(addrs))
		total := 0
		for i, a := range addrs {
			lanes[i] = []uint64{uint64(a &^ 3)}
			total++
		}
		acc, _ := Coalesce(lanes, 32, nil, nil)
		return len(acc) >= 1 && len(acc) <= total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// coalesceRef is the MCU's rule spelled out with maps and no early
// exit: broadcast when every word is the same, coalesced when every
// touched line holds a consecutive run of distinct words and there are
// fewer lines than active lanes, divergent otherwise.
func coalesceRef(lanes [][]uint64, lineBytes int) ([]uint64, Pattern, MCUStats) {
	var st MCUStats
	active := 0
	seen := map[uint64]bool{}
	var words []uint64 // distinct, first-occurrence order
	for _, as := range lanes {
		if len(as) > 0 {
			active++
		}
		for _, a := range as {
			if w := a / wordBytes; !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	st.LaneAccesses = uint64(active)
	if active == 0 {
		return nil, PatternDivergent, st
	}
	if len(words) == 1 {
		st.Broadcast, st.Emitted = 1, 1
		return []uint64{words[0] * wordBytes &^ uint64(lineBytes-1)}, PatternBroadcast, st
	}
	var lines []uint64 // first-touch order
	perLine := map[uint64][]uint64{}
	for _, w := range words {
		l := w * wordBytes / uint64(lineBytes)
		if _, ok := perLine[l]; !ok {
			lines = append(lines, l)
		}
		perLine[l] = append(perLine[l], w)
	}
	consecutive := true
	for _, l := range lines {
		lo, hi := perLine[l][0], perLine[l][0]
		for _, w := range perLine[l] {
			lo, hi = min(lo, w), max(hi, w)
		}
		if hi-lo+1 != uint64(len(perLine[l])) {
			consecutive = false
		}
	}
	var out []uint64
	if consecutive && len(lines) < active {
		for _, l := range lines {
			out = append(out, l*uint64(lineBytes))
		}
		st.Coalesced, st.Emitted = 1, uint64(len(lines))
		return out, PatternCoalesced, st
	}
	for _, as := range lanes {
		if len(as) > 0 {
			out = append(out, as[0]&^(wordBytes-1))
		}
	}
	st.Divergent, st.Emitted = 1, uint64(active)
	return out, PatternDivergent, st
}

// checkCoalesceRef fails t when AppendCoalesce and coalesceRef differ
// on lanes in emitted addresses, pattern or MCUStats.
func checkCoalesceRef(t *testing.T, sc *CoalesceScratch, lanes [][]uint64, lineBytes int) {
	t.Helper()
	var st MCUStats
	got, pat := AppendCoalesce(nil, sc, lanes, lineBytes, &st)
	want, wantPat, wantSt := coalesceRef(lanes, lineBytes)
	if pat != wantPat || st != wantSt || !slices.Equal(got, want) {
		t.Fatalf("lanes %v: got %v %v %+v, full grouping gives %v %v %+v",
			lanes, got, pat, st, want, wantPat, wantSt)
	}
}

// TestCoalesceMatchesFullGrouping: the coalescer, which stops grouping
// once the touched lines reach the active lane count, emits the same
// addresses, pattern and counts as grouping every word. The lanes mix
// inactive lanes, multi-granule accesses, duplicate words and address
// spans from one line to many, so every pattern and the early exit at
// every position occur.
func TestCoalesceMatchesFullGrouping(t *testing.T) {
	var sc CoalesceScratch
	// Directed cases: a gapped run filled in later and then re-read, a
	// word below a run's min, duplicates inside and outside runs, a
	// 2-granule lane straddling lines, and lines reaching the active
	// count at the last word.
	for _, lanes := range [][][]uint64{
		{{0}, {8}, {4}, {8}, {4}, {0}},
		{{0}, {8}, {0}, {8}},
		{{8}, {4}, {0}, {12}},
		{{16}, {0}, {8}, {4}, {12}, {4}},
		{{28, 32}, {36}, {24}},
		{{0}, {32}, {64}, {96}},
		{{0}, nil, {32}, nil, {4}},
		{{0, 4}, {0, 4}, {64, 68}},
	} {
		checkCoalesceRef(t, &sc, lanes, 32)
	}
	r := rand.New(rand.NewSource(1))
	patterns := map[Pattern]int{}
	for iter := 0; iter < 20000; iter++ {
		lineBytes := 32 << r.Intn(3)
		span := uint64(4) << r.Intn(10) // bytes the lanes' addresses spread over
		base := uint64(r.Intn(1<<20)) &^ 3
		stride := uint64(r.Intn(3)) * 4
		lanes := make([][]uint64, 1+r.Intn(32))
		for i := range lanes {
			if r.Intn(6) == 0 {
				continue // inactive lane
			}
			a := base + (uint64(i)*stride+uint64(r.Int63n(int64(span))))&^3
			if r.Intn(2) == 0 {
				a = base + uint64(i)*stride // a strided lane: coalescible runs
			}
			for g := 0; g < 1+r.Intn(2); g++ {
				lanes[i] = append(lanes[i], a+uint64(g)*4)
			}
		}
		checkCoalesceRef(t, &sc, lanes, lineBytes)
		_, pat, _ := coalesceRef(lanes, lineBytes)
		patterns[pat]++
	}
	for _, p := range []Pattern{PatternBroadcast, PatternCoalesced, PatternDivergent} {
		if patterns[p] == 0 {
			t.Errorf("no case gave pattern %v: %v", p, patterns)
		}
	}
}

// TestTLBNonPow2Geometry: a bank count and page size that are not
// powers of two take the dividing index path.
func TestTLBNonPow2Geometry(t *testing.T) {
	tlb := NewTLB(TLBConfig{EntriesPerBank: 2, Banks: 3, MissLatCycles: 40, PageBytes: 6000})
	for _, c := range []struct {
		addr uint64
		bank int
		lat  uint64
	}{
		{0, 4, 40},    // bank 1, page 0: cold
		{5999, 1, 0},  // bank 1, page 0 again
		{6000, 7, 40}, // bank 1, page 1
		{5999, 0, 40}, // bank 0 holds no page yet
		{6001, 4, 0},  // bank 1, page 1 again
	} {
		if lat := tlb.Lookup(c.addr, c.bank); lat != c.lat {
			t.Fatalf("Lookup(%d, %d) = %d, want %d", c.addr, c.bank, lat, c.lat)
		}
	}
}

func sysConfig() SysConfig {
	return SysConfig{
		L1:                CacheConfig{Name: "l1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 32, Banks: 2, LatCycles: 3},
		TLB:               TLBConfig{EntriesPerBank: 16, Banks: 2, MissLatCycles: 40},
		L2:                CacheConfig{Name: "l2", SizeBytes: 4 << 10, Ways: 4, LineBytes: 32, Banks: 1, LatCycles: 12},
		L3:                CacheConfig{Name: "l3", SizeBytes: 16 << 10, Ways: 4, LineBytes: 32, Banks: 1, LatCycles: 36},
		ICLatCycles:       4,
		DRAMLatCycles:     160,
		DRAMBytesPerCycle: 16,
	}
}

func TestSystemLatencyOrdering(t *testing.T) {
	s := NewSystem(sysConfig())
	cold := s.Access(0x1000, false, false, 100)
	s.TLB.Reset()
	warm := s.Access(0x1000, false, false, cold)
	if warm-cold >= cold-100 {
		t.Fatalf("warm access (%d cyc) not faster than cold (%d cyc)", warm-cold, cold-100)
	}
	st := s.Stats()
	if st.L1.Accesses != 2 || st.L1.Misses != 1 || st.DRAMAccesses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSystemMSHRMerge(t *testing.T) {
	s := NewSystem(sysConfig())
	d1 := s.Access(0x2000, false, false, 0)
	d2 := s.Access(0x2008, false, false, 1) // same line, outstanding
	if d2 > d1 {
		t.Fatalf("merged access finished later than the fill: %d > %d", d2, d1)
	}
	if s.Stats().DRAMAccesses != 1 {
		t.Fatalf("MSHR failed to merge: %d DRAM accesses", s.Stats().DRAMAccesses)
	}
}

func TestSystemAtomicsAtL3(t *testing.T) {
	cfg := sysConfig()
	cfg.AtomicsAtL3 = true
	s := NewSystem(cfg)
	s.Access(0x3000, false, true, 0)
	st := s.Stats()
	if st.AtomicL3 != 1 {
		t.Fatal("atomic not routed to L3")
	}
	if st.L1.Accesses != 0 {
		t.Fatal("atomic touched L1 despite bypass")
	}
}

func TestSystemDRAMBandwidthQueueing(t *testing.T) {
	s := NewSystem(sysConfig())
	// Two concurrent misses to different L3 sets must serialise on the
	// DRAM channel.
	d1 := s.Access(0x10000, false, false, 0)
	d2 := s.Access(0x20000, false, false, 0)
	if d2 <= d1 {
		t.Fatalf("no DRAM queueing: %d vs %d", d2, d1)
	}
}

func TestSystemResetTimingKeepsContents(t *testing.T) {
	s := NewSystem(sysConfig())
	s.Access(0x4000, false, false, 0)
	s.ResetTiming()
	done := s.Access(0x4000, false, false, 0)
	if done > 10 {
		t.Fatalf("contents lost across ResetTiming: %d cycles", done)
	}
	s.Reset()
	if s.Stats().L1.Accesses != 0 {
		t.Fatal("full Reset did not clear stats")
	}
}

// TestSystemResetMatchesFresh: a System dirtied by one access stream
// and then Reset behaves exactly like a freshly built one — same
// completion cycle for every access of a second stream and the same
// Stats() afterwards — with and without a prefetcher on either stream
// and for both atomics placements. Sweeps reuse hierarchies across
// cells on this guarantee.
func TestSystemResetMatchesFresh(t *testing.T) {
	type access struct {
		addr          uint64
		write, atomic bool
		t             uint64
	}
	// stream mixes ascending runs (which trigger the prefetcher) with
	// scattered reads, writes and atomics over a footprint larger than
	// the L2, at arrival times close enough for bank conflicts and MSHR
	// merges.
	stream := func(seed uint64, n int) []access {
		x := seed
		out := make([]access, 0, n)
		var at, seq uint64
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			var addr uint64
			if x>>60 < 6 {
				seq += 32
				addr = 0x200000 + seq
			} else {
				addr = 0x100000 + (x>>20)%(64<<10)
			}
			at += (x >> 40) % 4
			out = append(out, access{addr: addr, write: x>>33&3 == 0, atomic: x>>35&7 == 0, t: at})
		}
		return out
	}
	run := func(s *System, pf bool, accs []access) []uint64 {
		if pf {
			s.PF = NewPrefetcher(2)
		}
		done := make([]uint64, len(accs))
		for i, a := range accs {
			done[i] = s.Access(a.addr, a.write, a.atomic, a.t)
		}
		return done
	}
	measured := stream(7, 4000)
	for _, l3 := range []bool{false, true} {
		for _, dirtyPF := range []bool{false, true} {
			for _, pf := range []bool{false, true} {
				cfg := sysConfig()
				cfg.AtomicsAtL3 = l3
				fresh := NewSystem(cfg)
				want := run(fresh, pf, measured)

				reused := NewSystem(cfg)
				// The dirtying stream overlaps the measured one, so any
				// surviving line, prefetch record or counter shows.
				run(reused, dirtyPF, stream(7, 3000))
				run(reused, dirtyPF, stream(11, 3000))
				reused.Reset()
				got := run(reused, pf, measured)

				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("atomicsAtL3=%v dirtyPF=%v pf=%v: access %d completes at %d after Reset, %d fresh",
							l3, dirtyPF, pf, i, got[i], want[i])
					}
				}
				if gs, ws := reused.Stats(), fresh.Stats(); gs != ws {
					t.Fatalf("atomicsAtL3=%v dirtyPF=%v pf=%v: stats after Reset %+v, fresh %+v",
						l3, dirtyPF, pf, gs, ws)
				}
			}
		}
	}
}

func TestPrefetcherDetectsSequentialRuns(t *testing.T) {
	cfg := sysConfig()
	s := NewSystem(cfg)
	s.PF = NewPrefetcher(2)
	// Sequential stream: after the run is detected, later lines should
	// already be resident (useful prefetches).
	for i := 0; i < 64; i++ {
		s.Access(0x100000+uint64(i)*32, false, false, uint64(i)*10)
	}
	st := s.Stats()
	if st.PF.Issued == 0 {
		t.Fatal("no prefetches issued on a sequential stream")
	}
	if st.PF.Accuracy() < 0.5 {
		t.Fatalf("sequential accuracy %.2f", st.PF.Accuracy())
	}
}

func TestPrefetcherUselessOnRandom(t *testing.T) {
	cfg := sysConfig()
	s := NewSystem(cfg)
	s.PF = NewPrefetcher(2)
	x := uint64(12345)
	for i := 0; i < 512; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s.Access(0x100000+(x%4096)*32, false, false, uint64(i)*10)
	}
	st := s.Stats()
	// Table III: random probe streams give the prefetcher nothing.
	if st.PF.Accuracy() > 0.3 {
		t.Fatalf("random-stream accuracy %.2f, expected low", st.PF.Accuracy())
	}
}
