package mem

// SysConfig describes one core's view of the memory hierarchy. L3 is
// modelled as this core's slice of the shared cache, reached over the
// chip interconnect; DRAM bandwidth is the per-core share of the socket
// (Table IV's memBW/thread × threads/core).
type SysConfig struct {
	L1  CacheConfig
	TLB TLBConfig
	L2  CacheConfig
	L3  CacheConfig
	// ICLatCycles is the core→L3 interconnect latency (mesh average for
	// the CPU, single crossbar hop for the RPU).
	ICLatCycles uint64
	// DRAMLatCycles is the row access latency.
	DRAMLatCycles uint64
	// DRAMBytesPerCycle is the per-core bandwidth share.
	DRAMBytesPerCycle float64
	// AtomicsAtL3 sends atomic RMWs straight to the L3 slice (the
	// RPU's relaxed-coherence design); otherwise atomics behave as
	// normal L1 accesses (the paper's idealistic CPU assumption).
	AtomicsAtL3 bool
}

// SysStats aggregates hierarchy event counts.
type SysStats struct {
	L1, L2, L3   CacheStats
	TLB          TLBStats
	MCU          MCUStats
	DRAMAccesses uint64
	DRAMBytes    uint64
	// AtomicL3 counts atomics routed directly to L3.
	AtomicL3 uint64
	// PF reports prefetcher activity when one is attached.
	PF PrefetchStats
}

// Add accumulates o's counts into s. Study drivers use this to sum the
// per-run deltas of every cell into an aggregate (the accumulation
// semantics pipeline.Stats.Accumulate relies on).
func (s *SysStats) Add(o *SysStats) {
	s.L1.Add(&o.L1)
	s.L2.Add(&o.L2)
	s.L3.Add(&o.L3)
	s.TLB.Add(&o.TLB)
	s.MCU.Add(&o.MCU)
	s.DRAMAccesses += o.DRAMAccesses
	s.DRAMBytes += o.DRAMBytes
	s.AtomicL3 += o.AtomicL3
	s.PF.Add(&o.PF)
}

// Delta returns s minus prev. System counters are cumulative for the
// lifetime of a System, so a run's own contribution is the difference
// between the snapshots taken after and before it; all counters are
// monotone, so summing consecutive deltas reproduces the final
// snapshot exactly.
func (s SysStats) Delta(prev *SysStats) SysStats {
	out := s
	out.L1.Sub(&prev.L1)
	out.L2.Sub(&prev.L2)
	out.L3.Sub(&prev.L3)
	out.TLB.Sub(&prev.TLB)
	out.MCU.Sub(&prev.MCU)
	out.DRAMAccesses -= prev.DRAMAccesses
	out.DRAMBytes -= prev.DRAMBytes
	out.AtomicL3 -= prev.AtomicL3
	out.PF.Sub(&prev.PF)
	return out
}

// mshrMax caps the number of outstanding fills tracked before the
// table is pruned (and, if still saturated, recycled wholesale).
const mshrMax = 4096

// mshrSlots is the fixed open-addressing table size; occupancy never
// exceeds mshrMax+1 (System.Access prunes the moment the live count
// passes mshrMax), so a probe always terminates at an empty slot and
// the load factor stays ≤ 1/4.
const mshrSlots = 16384

// mshrTable maps outstanding L1 line fills (line address -> fill
// completion cycle) with the same key-value semantics as the map it
// replaces, but without per-insert allocation: linear-probe open
// addressing over a fixed array, plus an insertion log so clearing
// between runs costs O(live entries), not O(table).
type mshrTable struct {
	keys []uint64 // line+1; 0 marks an empty slot
	vals []uint64
	used []int32 // slots occupied since the last clear
}

func mshrHash(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> 50 % mshrSlots
}

// get returns the fill cycle registered for line, if any.
func (m *mshrTable) get(line uint64) (uint64, bool) {
	if m.keys == nil {
		return 0, false
	}
	for h := mshrHash(line); ; h = (h + 1) % mshrSlots {
		k := m.keys[h]
		if k == 0 {
			return 0, false
		}
		if k == line+1 {
			return m.vals[h], true
		}
	}
}

// put inserts or overwrites line's fill cycle.
func (m *mshrTable) put(line, fill uint64) {
	if m.keys == nil {
		m.keys = make([]uint64, mshrSlots)
		m.vals = make([]uint64, mshrSlots)
	}
	for h := mshrHash(line); ; h = (h + 1) % mshrSlots {
		switch m.keys[h] {
		case 0:
			m.keys[h] = line + 1
			m.vals[h] = fill
			m.used = append(m.used, int32(h))
			return
		case line + 1:
			m.vals[h] = fill
			return
		}
	}
}

// live returns the number of tracked fills.
func (m *mshrTable) live() int { return len(m.used) }

// clear drops every entry.
func (m *mshrTable) clear() {
	for _, h := range m.used {
		m.keys[h] = 0
	}
	m.used = m.used[:0]
}

// System is one core's memory hierarchy instance with its own timing
// state.
type System struct {
	cfg SysConfig
	L1  *Cache
	TLB *TLB
	L2  *Cache
	L3  *Cache
	MCU MCUStats
	// PF, when non-nil, runs a next-line prefetcher in front of the L1
	// (Table III ablation; off by default).
	PF           *Prefetcher
	prefetched   map[uint64]bool
	mshr         mshrTable // outstanding L1 line fills
	mshrScratch  []uint64  // prune survivor buffer (line, fill pairs)
	dramFree     uint64
	dramAccesses uint64
	dramBytes    uint64
	atomicL3     uint64
}

// NewSystem builds the hierarchy from cfg.
func NewSystem(cfg SysConfig) *System {
	return &System{
		cfg: cfg,
		L1:  NewCache(cfg.L1),
		TLB: NewTLB(cfg.TLB),
		L2:  NewCache(cfg.L2),
		L3:  NewCache(cfg.L3),
	}
}

// Config returns the hierarchy configuration.
func (s *System) Config() SysConfig { return s.cfg }

// Stats snapshots all counters.
func (s *System) Stats() SysStats {
	out := SysStats{
		L1:           s.L1.Stats,
		L2:           s.L2.Stats,
		L3:           s.L3.Stats,
		TLB:          s.TLB.Stats,
		MCU:          s.MCU,
		DRAMAccesses: s.dramAccesses,
		DRAMBytes:    s.dramBytes,
		AtomicL3:     s.atomicL3,
	}
	if s.PF != nil {
		out.PF = s.PF.Stats
	}
	return out
}

// dram serialises a line transfer on the DRAM channel share and returns
// its completion time.
func (s *System) dram(t uint64, bytes int) uint64 {
	start := t
	if s.dramFree > start {
		start = s.dramFree
	}
	transfer := uint64(float64(bytes)/s.cfg.DRAMBytesPerCycle + 0.5)
	if transfer == 0 {
		transfer = 1
	}
	s.dramFree = start + transfer
	s.dramAccesses++
	s.dramBytes += uint64(bytes)
	return start + s.cfg.DRAMLatCycles + transfer
}

// l3Access runs an access at the shared L3 slice, falling through to
// DRAM on a miss; t is the arrival time at the L3.
func (s *System) l3Access(addr uint64, write bool, t uint64) uint64 {
	la := s.L3.LineAddr(addr)
	hit, wb := s.L3.Access(la, write)
	if wb {
		s.dramBytes += uint64(s.cfg.L3.LineBytes)
	}
	done := t + s.cfg.L3.LatCycles
	if !hit {
		done = s.dram(done, s.cfg.L3.LineBytes)
	}
	return done
}

// Access performs one data access and returns its completion cycle.
// Timing effects modelled: L1 bank serialisation, TLB bank lookup with
// page-walk penalty, MSHR merging of outstanding line fills, L2 and L3
// lookup latencies, interconnect latency to L3 and DRAM bandwidth
// queueing. Atomics optionally bypass to L3.
func (s *System) Access(addr uint64, write, atomic bool, t uint64) uint64 {
	if atomic && s.cfg.AtomicsAtL3 {
		s.atomicL3++
		return s.l3Access(addr, true, t+s.cfg.ICLatCycles)
	}

	bankStart := s.L1.BankTime(addr, t)
	walk := s.TLB.Lookup(addr, s.L1.Bank(addr))
	la := s.L1.LineAddr(addr)
	hit, wb := s.L1.Access(la, write)
	if s.PF != nil {
		lb := uint64(s.cfg.L1.LineBytes)
		if s.prefetched[la/lb] {
			s.PF.Stats.Useful++
			delete(s.prefetched, la/lb)
		}
		for _, pl := range s.PF.observe(la/lb, s.cfg.L1.LineBytes) {
			if s.prefetched == nil {
				s.prefetched = map[uint64]bool{}
			}
			if !s.L1.Probe(pl * lb) {
				s.PF.Stats.Issued++
				s.prefetched[pl] = true
				// Fill through the hierarchy off the critical path.
				if h2, _ := s.L2.Access(s.L2.LineAddr(pl*lb), false); !h2 {
					s.l3Access(pl*lb, false, t)
				}
				s.L1.Access(pl*lb, false)
				s.L1.Stats.Accesses-- // fills are not demand accesses
			}
		}
	}
	if wb {
		// Dirty eviction becomes L2 write traffic (no added latency on
		// the critical path).
		s.L2.Access(s.L2.LineAddr(la), true)
	}
	l1Done := bankStart + walk + s.cfg.L1.LatCycles
	if hit {
		return l1Done
	}

	// Merge with an outstanding fill for the same line. A stale entry
	// (fill already past) is simply overwritten by the put below.
	if fill, ok := s.mshr.get(la); ok && fill > l1Done {
		return fill
	}

	hit2, wb2 := s.L2.Access(s.L2.LineAddr(la), false)
	if wb2 {
		s.L3.Access(s.L3.LineAddr(la), true)
	}
	done := l1Done + s.cfg.L2.LatCycles
	if !hit2 {
		done = s.l3Access(la, false, done+s.cfg.ICLatCycles)
	}
	if write {
		// The allocated L1 line is dirty.
		s.L1.MarkDirty(la)
	}
	s.mshr.put(la, done)
	if s.mshr.live() > mshrMax {
		// Amortized prune: drop completed fills; if the table is still
		// saturated with far-future fills, recycle it wholesale (the
		// only cost is losing some merge opportunities).
		keep := s.mshrScratch[:0]
		for _, h := range s.mshr.used {
			if f := s.mshr.vals[h]; f > t {
				keep = append(keep, s.mshr.keys[h]-1, f)
			}
		}
		s.mshr.clear()
		if len(keep) > 2*mshrMax {
			s.mshr.put(la, done)
		} else {
			for i := 0; i < len(keep); i += 2 {
				s.mshr.put(keep[i], keep[i+1])
			}
		}
		s.mshrScratch = keep[:0]
	}
	return done
}

// ResetTiming clears bank/DRAM/MSHR timing state while keeping cache
// contents and statistics — used between per-request runs on a warm
// core, where each run's clock restarts at zero.
func (s *System) ResetTiming() {
	s.L1.ResetTiming()
	s.L2.ResetTiming()
	s.L3.ResetTiming()
	s.mshr.clear()
	s.dramFree = 0
}

// Reset returns the System to the state NewSystem(s.Config()) builds:
// cache and TLB contents, MSHRs, DRAM timing and every counter are
// cleared, and the prefetcher is detached along with its record of
// prefetched lines, so a reused hierarchy counts no earlier run's
// prefetches. The line arrays keep their storage.
func (s *System) Reset() {
	s.L1.Reset()
	s.TLB.Reset()
	s.L2.Reset()
	s.L3.Reset()
	s.MCU = MCUStats{}
	s.mshr.clear()
	s.dramFree = 0
	s.dramAccesses = 0
	s.dramBytes = 0
	s.atomicL3 = 0
	s.PF = nil
	clear(s.prefetched)
}
