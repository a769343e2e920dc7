package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLine is one way of refCache: the array-of-structs line layout the
// split tag store replaced.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// refCache is the reference tag store for the equivalence tests: one
// 24-byte struct per way, scanned with an explicit valid check, and the
// victim rule spelled out (an invalid way first, else the least
// recently used). Only the tag state and the counters are modelled;
// banks and latencies are not part of the tag store.
type refCache struct {
	ways, sets int
	lineShift  uint
	lines      []refLine
	tick       uint64
	stats      CacheStats
}

func newRefCache(cfg CacheConfig) *refCache {
	r := &refCache{ways: cfg.Ways, sets: cfg.Sets()}
	r.lines = make([]refLine, r.sets*r.ways)
	for 1<<r.lineShift < cfg.LineBytes {
		r.lineShift++
	}
	return r
}

func (r *refCache) set(addr uint64) (tag uint64, ways []refLine) {
	tag = addr >> r.lineShift
	s := int(tag % uint64(r.sets))
	return tag, r.lines[s*r.ways : (s+1)*r.ways]
}

func (r *refCache) Access(addr uint64, write bool) (hit, writeback bool) {
	r.tick++
	r.stats.Accesses++
	tag, ways := r.set(addr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].used = r.tick
			if write {
				ways[i].dirty = true
			}
			return true, false
		}
	}
	r.stats.Misses++
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	writeback = ways[victim].valid && ways[victim].dirty
	if writeback {
		r.stats.Writebacks++
	}
	ways[victim] = refLine{tag: tag, valid: true, dirty: write, used: r.tick}
	return false, writeback
}

func (r *refCache) MarkDirty(addr uint64) {
	tag, ways := r.set(addr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].dirty = true
			return
		}
	}
}

func (r *refCache) Probe(addr uint64) bool {
	tag, ways := r.set(addr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return true
		}
	}
	return false
}

func (r *refCache) Reset() {
	clear(r.lines)
	r.tick = 0
	r.stats = CacheStats{}
}

// equivGeometries are the shapes the tag store must match refCache on:
// 8-way caches with power-of-two set counts (every chip L1 and L2),
// the 16-way L3 slices with 672 and 800 sets (CPU and SMT-8, whose set
// index is a modulo), and a direct-mapped cache.
var equivGeometries = []CacheConfig{
	{Name: "8way-64set", SizeBytes: 16 << 10, Ways: 8, LineBytes: 32, Banks: 1},
	{Name: "8way-256set", SizeBytes: 64 << 10, Ways: 8, LineBytes: 32, Banks: 8},
	{Name: "16way-672set", SizeBytes: 336 << 10, Ways: 16, LineBytes: 32, Banks: 2},
	{Name: "16way-800set", SizeBytes: 400 << 10, Ways: 16, LineBytes: 32, Banks: 2},
	{Name: "1way-128set", SizeBytes: 4 << 10, Ways: 1, LineBytes: 32, Banks: 1},
}

// cacheOp is one step of an equivalence run.
type cacheOp struct {
	kind byte // 0 read, 1 write, 2 MarkDirty, 3 Probe, 4 Reset
	addr uint64
}

// checkCacheEquiv drives a Cache and a refCache of geometry cfg through
// ops and fails on the first access whose hit or writeback differs, the
// first Probe that differs, or final counters that differ. It returns
// the final counters.
func checkCacheEquiv(t *testing.T, cfg CacheConfig, ops []cacheOp) CacheStats {
	t.Helper()
	c, r := NewCache(cfg), newRefCache(cfg)
	for i, op := range ops {
		switch op.kind {
		case 0, 1:
			h, wb := c.Access(op.addr, op.kind == 1)
			rh, rwb := r.Access(op.addr, op.kind == 1)
			if h != rh || wb != rwb {
				t.Fatalf("%s op %d: Access(%#x, %v) = hit %v wb %v, reference hit %v wb %v",
					cfg.Name, i, op.addr, op.kind == 1, h, wb, rh, rwb)
			}
		case 2:
			c.MarkDirty(op.addr)
			r.MarkDirty(op.addr)
		case 3:
			if p, rp := c.Probe(op.addr), r.Probe(op.addr); p != rp {
				t.Fatalf("%s op %d: Probe(%#x) = %v, reference %v", cfg.Name, i, op.addr, p, rp)
			}
		case 4:
			c.Reset()
			r.Reset()
		}
	}
	if c.Stats != r.stats {
		t.Fatalf("%s: stats %+v, reference %+v", cfg.Name, c.Stats, r.stats)
	}
	return c.Stats
}

// TestCacheMatchesReference is the seeded property test of the split
// tag store: random reads, writes, MarkDirty and Probe calls over twice
// each cache's capacity in lines (so sets overflow and dirty victims
// write back), with about three Resets per run, agree with refCache on
// every hit and writeback and on the final CacheStats.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range equivGeometries {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				lines := 2 * cfg.SizeBytes / cfg.LineBytes
				ops := make([]cacheOp, 40*lines)
				for i := range ops {
					k := rng.Intn(100)
					op := &ops[i]
					switch {
					case rng.Intn(len(ops)) < 3:
						op.kind = 4
					case k < 55:
						op.kind = 0
					case k < 85:
						op.kind = 1
					case k < 92:
						op.kind = 2
					default:
						op.kind = 3
					}
					op.addr = uint64(rng.Intn(lines))*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
				}
				st := checkCacheEquiv(t, cfg, ops)
				if st.Misses*4 < st.Accesses || st.Writebacks == 0 {
					t.Fatalf("run too tame to test eviction: %+v", st)
				}
			})
		}
	}
}
