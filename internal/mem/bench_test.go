package mem

import "testing"

func BenchmarkCacheAccess(b *testing.B) {
	c := NewCache(CacheConfig{Name: "b", SizeBytes: 64 << 10, Ways: 8, LineBytes: 32, Banks: 1, LatCycles: 3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*32%(128<<10), i%4 == 0)
	}
}

func BenchmarkSystemAccess(b *testing.B) {
	s := NewSystem(sysConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Access(uint64(i)*40%(1<<20), false, false, uint64(i))
	}
}

func BenchmarkCoalesceBroadcast(b *testing.B) {
	lanes := make([][]uint64, 32)
	for i := range lanes {
		lanes[i] = []uint64{0x1000}
	}
	var st MCUStats
	var sc CoalesceScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Coalesce(lanes, 32, &st, &sc)
	}
}

func BenchmarkCoalesceDivergent(b *testing.B) {
	lanes := make([][]uint64, 32)
	for i := range lanes {
		lanes[i] = []uint64{uint64(i) * 8192}
	}
	var st MCUStats
	var sc CoalesceScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Coalesce(lanes, 32, &st, &sc)
	}
}

// BenchmarkCoalesceScratch exercises the shared-scratch append path the
// uop builder and tracedump use: a reused dst arena plus one scratch
// across the whole run must be 0 allocs/op once warm.
func BenchmarkCoalesceScratch(b *testing.B) {
	lanes := make([][]uint64, 32)
	for i := range lanes {
		lanes[i] = []uint64{0x1000 + uint64(i)*4, 0x1004 + uint64(i)*4}
	}
	var st MCUStats
	var sc CoalesceScratch
	dst := make([]uint64, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, _ = AppendCoalesce(dst[:0], &sc, lanes, 32, &st)
	}
}

// BenchmarkCacheAccessL2Random looks up random lines of an RPU-sized L2
// (2 MiB, 8 ways, 32-byte lines: 8192 sets) drawn from twice its
// capacity, so about half the accesses miss and evict. The tag store
// is far larger than a host L1 and each access lands in a random set,
// so the time per access is dominated by the host memory the set scan
// touches.
func BenchmarkCacheAccessL2Random(b *testing.B) {
	c := NewCache(CacheConfig{Name: "l2", SizeBytes: 2 << 20, Ways: 8, LineBytes: 32, Banks: 2, LatCycles: 20})
	const lines = 2 * (2 << 20) / 32
	x := uint64(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.Access((x>>20)%lines*32, i%4 == 0)
	}
}
