package mem

// PageBytes is the default translation page size.
const PageBytes = 4096

// TLBConfig describes a banked L1 data TLB. In the RPU each L1 data
// bank has an associated TLB bank; because data is interleaved over
// banks at sub-page granularity, the same page's entry may be
// duplicated in several banks (paper §III-A), reducing effective
// capacity — which this model reproduces naturally by giving each bank
// its own entry array.
type TLBConfig struct {
	EntriesPerBank int
	Banks          int
	// MissLatCycles is the page-walk penalty.
	MissLatCycles uint64
	// PageBytes is the translation granule; 0 selects the 4 KB
	// default. Data center deployments map heaps and shared tables
	// with 2 MB transparent huge pages, which is what the chip
	// configurations use.
	PageBytes uint64
}

// TLBStats counts translation events.
type TLBStats struct {
	Accesses uint64
	Misses   uint64
}

// Add accumulates o's counts into s.
func (s *TLBStats) Add(o *TLBStats) {
	s.Accesses += o.Accesses
	s.Misses += o.Misses
}

// Sub subtracts o's counts from s (o must be an earlier snapshot).
func (s *TLBStats) Sub(o *TLBStats) {
	s.Accesses -= o.Accesses
	s.Misses -= o.Misses
}

// TLB is a banked, fully-associative (within bank), LRU TLB.
type TLB struct {
	cfg TLBConfig
	// pageShift is log2(PageBytes) when it is a power of two (pagePow2),
	// making the fast-path translation a shift; likewise bankMask for a
	// power-of-two bank count.
	pageShift uint
	bankMask  int
	pagePow2  bool
	banksPow2 bool
	pages     [][]uint64 // per bank, valid entries (page numbers)
	used      [][]uint64
	tick      uint64
	Stats     TLBStats
}

// NewTLB builds a TLB from cfg.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = PageBytes
	}
	t := &TLB{cfg: cfg}
	if cfg.PageBytes&(cfg.PageBytes-1) == 0 {
		t.pagePow2 = true
		for 1<<t.pageShift < cfg.PageBytes {
			t.pageShift++
		}
	}
	if cfg.Banks&(cfg.Banks-1) == 0 {
		t.banksPow2, t.bankMask = true, cfg.Banks-1
	}
	t.pages = make([][]uint64, cfg.Banks)
	t.used = make([][]uint64, cfg.Banks)
	for b := range t.pages {
		t.pages[b] = make([]uint64, 0, cfg.EntriesPerBank)
		t.used[b] = make([]uint64, 0, cfg.EntriesPerBank)
	}
	return t
}

// index returns the TLB bank that serves cacheBank and addr's page
// number, dividing only for a bank count or page size that is not a
// power of two.
func (t *TLB) index(addr uint64, cacheBank int) (bank int, page uint64) {
	if t.banksPow2 {
		bank = cacheBank & t.bankMask
	} else {
		bank = cacheBank % t.cfg.Banks
	}
	if t.pagePow2 {
		page = addr >> t.pageShift
	} else {
		page = addr / t.cfg.PageBytes
	}
	return bank, page
}

// Lookup translates addr through the TLB bank that serves the given
// cache bank; it returns the added latency (0 on hit, the walk penalty
// on a miss, with the entry filled).
func (t *TLB) Lookup(addr uint64, cacheBank int) uint64 {
	t.tick++
	t.Stats.Accesses++
	b, page := t.index(addr, cacheBank)
	pages, used := t.pages[b], t.used[b]
	for i, p := range pages {
		if p == page {
			used[i] = t.tick
			if i > 0 {
				// Move-to-front so the hot page's scan is O(1). Hits and
				// victim choice depend only on the (page, used) pair set,
				// not entry order, so reordering never changes outcomes.
				pages[0], pages[i] = pages[i], pages[0]
				used[0], used[i] = used[i], used[0]
			}
			return 0
		}
	}
	t.Stats.Misses++
	if len(pages) < t.cfg.EntriesPerBank {
		t.pages[b] = append(pages, page)
		t.used[b] = append(used, t.tick)
		return t.cfg.MissLatCycles
	}
	victim := 0
	for i := 1; i < len(used); i++ {
		if used[i] < used[victim] {
			victim = i
		}
	}
	pages[victim] = page
	used[victim] = t.tick
	return t.cfg.MissLatCycles
}

// Reset clears contents and statistics.
func (t *TLB) Reset() {
	for b := range t.pages {
		t.pages[b] = t.pages[b][:0]
		t.used[b] = t.used[b][:0]
	}
	t.tick = 0
	t.Stats = TLBStats{}
}
