// Package mem models the SIMR memory system: banked set-associative
// caches with LRU replacement, per-bank TLBs, MSHR-based miss merging,
// the RPU's memory coalescing unit (MCU), DRAM channels with a
// latency+bandwidth model, and the mesh vs crossbar interconnects the
// paper compares.
package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	Banks     int
	// LatCycles is the hit latency.
	LatCycles uint64
	// BytesPerCycle is the peak read bandwidth (reporting only).
	BytesPerCycle int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// CacheStats counts cache events.
type CacheStats struct {
	Accesses      uint64
	Misses        uint64
	Writebacks    uint64
	BankConflicts uint64
}

// Add accumulates o's counts into s.
func (s *CacheStats) Add(o *CacheStats) {
	s.Accesses += o.Accesses
	s.Misses += o.Misses
	s.Writebacks += o.Writebacks
	s.BankConflicts += o.BankConflicts
}

// Sub subtracts o's counts from s (o must be an earlier snapshot).
func (s *CacheStats) Sub(o *CacheStats) {
	s.Accesses -= o.Accesses
	s.Misses -= o.Misses
	s.Writebacks -= o.Writebacks
	s.BankConflicts -= o.BankConflicts
}

// MPKI returns misses per thousand of the given instruction count.
func (s CacheStats) MPKI(instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instrs) * 1000
}

// HitRate returns the fraction of accesses that hit.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 1 - float64(s.Misses)/float64(s.Accesses)
}

// Tag-word flags. A tag word is the line tag (addr >> lineShift) with
// tagValid set and, for a modified line, tagDirty; 0 is an empty way.
// LineBytes >= 4 keeps the top two bits of every tag clear for them.
const (
	tagValid uint64 = 1 << 63
	tagDirty uint64 = 1 << 62
)

// Cache is a banked, set-associative, write-allocate, write-back cache.
// Lines are interleaved over banks at line granularity, as in the RPU's
// multi-bank L1 (which is why TLB entries must be duplicated per bank).
//
// The tag store is split: tags holds one word per way (flags folded
// in), so a lookup scans a set's ways as one contiguous run (one
// 64-byte host line for 8 ways), and used holds the LRU timestamps the
// victim choice reads. A simulated line costs 16 bytes of host memory.
type Cache struct {
	cfg  CacheConfig
	sets int
	// lineShift is log2(LineBytes); tag extraction on the access fast
	// path is a shift instead of a division. setMask/bankMask replace
	// the modulo when the count is a power of two (setsPow2/banksPow2),
	// which all chip geometries are for banks and the L1/L2 for sets.
	lineShift uint
	setMask   uint64
	bankMask  uint64
	setsPow2  bool
	banksPow2 bool
	tags      []uint64 // sets × ways tag words; 0 is an empty way
	// used holds each way's LRU timestamp: the tick of its last access,
	// 0 exactly when the way is empty (the first access is tick 1).
	used     []uint64
	tick     uint64
	bankFree []uint64 // next cycle each bank can accept an access
	Stats    CacheStats
}

// NewCache builds a cache from cfg; the shape must divide evenly and
// the line size must be a power of two (LineAddr masks on it) of at
// least 4 bytes (the tag word's top two bits hold the line's flags).
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	sets := cfg.Sets()
	if sets == 0 || cfg.SizeBytes%(cfg.Ways*cfg.LineBytes) != 0 ||
		cfg.LineBytes < 4 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q shape invalid: size=%d ways=%d line=%d",
			cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.LineBytes))
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		tags:     make([]uint64, sets*cfg.Ways),
		used:     make([]uint64, sets*cfg.Ways),
		bankFree: make([]uint64, cfg.Banks),
	}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	if sets&(sets-1) == 0 {
		c.setsPow2, c.setMask = true, uint64(sets-1)
	}
	if cfg.Banks&(cfg.Banks-1) == 0 {
		c.banksPow2, c.bankMask = true, uint64(cfg.Banks-1)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

// Bank returns the bank servicing addr (line-granularity interleave).
func (c *Cache) Bank(addr uint64) int {
	l := addr >> c.lineShift
	if c.banksPow2 {
		return int(l & c.bankMask)
	}
	return int(l % uint64(c.cfg.Banks))
}

// set returns the set index for a line tag.
func (c *Cache) set(tag uint64) int {
	if c.setsPow2 {
		return int(tag & c.setMask)
	}
	return int(tag % uint64(c.sets))
}

// BankTime serialises an access on addr's bank starting no earlier than
// t and returns the cycle the bank actually accepted it. Accesses to
// distinct banks proceed in parallel; same-bank accesses serialise
// (bank conflicts).
func (c *Cache) BankTime(addr uint64, t uint64) uint64 {
	b := c.Bank(addr)
	start := t
	if c.bankFree[b] > start {
		start = c.bankFree[b]
		c.Stats.BankConflicts++
	}
	c.bankFree[b] = start + 1
	return start
}

// locate returns the index of addr's set's first way in tags and used,
// and addr's valid tag word.
func (c *Cache) locate(addr uint64) (base int, key uint64) {
	tag := addr >> c.lineShift
	return c.set(tag) * c.cfg.Ways, tag | tagValid
}

// find returns the way of the set starting at base holding key, or -1.
func (c *Cache) find(base int, key uint64) int {
	for i, w := range c.tags[base : base+c.cfg.Ways] {
		if w&^tagDirty == key {
			return base + i
		}
	}
	return -1
}

// Access looks up addr; on a miss the line is allocated (write-allocate)
// and the evicted dirty line counts as a writeback. Returns hit and
// whether a dirty line was written back.
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool) {
	c.tick++
	c.Stats.Accesses++
	base, key := c.locate(addr)
	if i := c.find(base, key); i >= 0 {
		c.used[i] = c.tick
		if write {
			c.tags[i] |= tagDirty
		}
		return true, false
	}
	c.Stats.Misses++
	// Choose the LRU victim; an empty way (used 0) ends the search.
	used := c.used[base : base+c.cfg.Ways]
	victim, oldest := 0, used[0]
	for i := 1; i < len(used) && oldest != 0; i++ {
		if used[i] < oldest {
			victim, oldest = i, used[i]
		}
	}
	victim += base
	writeback = c.tags[victim]&tagDirty != 0
	if writeback {
		c.Stats.Writebacks++
	}
	if write {
		key |= tagDirty
	}
	c.tags[victim] = key
	c.used[victim] = c.tick
	return false, writeback
}

// MarkDirty sets the dirty bit on addr's line if resident, without
// counting an access.
func (c *Cache) MarkDirty(addr uint64) {
	if i := c.find(c.locate(addr)); i >= 0 {
		c.tags[i] |= tagDirty
	}
}

// Probe reports whether addr is resident without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	return c.find(c.locate(addr)) >= 0
}

// ResetTiming clears bank timing state (between independent runs that
// share cache contents).
func (c *Cache) ResetTiming() {
	clear(c.bankFree)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.used)
	clear(c.bankFree)
	c.tick = 0
	c.Stats = CacheStats{}
}
