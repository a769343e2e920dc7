package seedrng

import (
	"math/rand"
	"testing"
)

// TestMatchesMathRand proves bit-identity with math/rand far past the
// 607-output recorded prefix, across the derived Rand methods the
// service programs actually use.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40, -987654321} {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 3*rngLen; i++ {
			switch i % 4 {
			case 0:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
				}
			case 1:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, g, w)
				}
			case 2:
				if g, w := got.Intn(1000), want.Intn(1000); g != w {
					t.Fatalf("seed %d draw %d: Intn = %d, want %d", seed, i, g, w)
				}
			case 3:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
				}
			}
		}
	}
}

// TestReplayIndependence checks that two streams of the same seed do
// not disturb each other (each copies the recorded prefix).
func TestReplayIndependence(t *testing.T) {
	a, b := New(7), New(7)
	ref := rand.New(rand.NewSource(7))
	for i := 0; i < 2*rngLen; i++ {
		w := ref.Uint64()
		if g := a.Uint64(); g != w {
			t.Fatalf("stream a draw %d: %d != %d", i, g, w)
		}
		if i%3 == 0 { // advance b at a different rate
			b.Uint64()
		}
	}
}

// TestSeedRestart verifies Source.Seed restarts the sequence.
func TestSeedRestart(t *testing.T) {
	s := new(Source)
	s.Seed(5)
	r := rand.New(s)
	first := make([]uint64, rngLen+10)
	for i := range first {
		first[i] = r.Uint64()
	}
	s.Seed(5)
	for i := range first {
		if g := r.Uint64(); g != first[i] {
			t.Fatalf("draw %d after re-seed: %d != %d", i, g, first[i])
		}
	}
}

// resetTables empties the seed table cache.
func resetTables() {
	mu.Lock()
	clear(tables)
	used = 0
	mu.Unlock()
}

// TestTableRecycle exercises the wholesale cache recycle path, including
// a stream seeded before the recycle whose table is re-recorded in place
// while the stream is still replaying it.
func TestTableRecycle(t *testing.T) {
	resetTables()
	held := New(-5) // its table is store[0], the first one re-recorded
	heldRef := rand.New(rand.NewSource(-5))
	for i := 0; i < 10; i++ {
		if g, w := held.Uint64(), heldRef.Uint64(); g != w {
			t.Fatalf("held draw %d: %d != %d", i, g, w)
		}
	}
	for seed := int64(0); seed < maxTables+8; seed++ {
		var p [rngLen]uint64
		load(seed, &p)
	}
	mu.Lock()
	n := len(tables)
	mu.Unlock()
	if n > maxTables {
		t.Fatalf("table cache grew to %d entries, cap is %d", n, maxTables)
	}
	for i := 10; i < 2*rngLen; i++ {
		if g, w := held.Uint64(), heldRef.Uint64(); g != w {
			t.Fatalf("held draw %d after recycle: %d != %d", i, g, w)
		}
	}
	// Post-recycle streams still match math/rand.
	want := rand.New(rand.NewSource(3))
	got := New(3)
	for i := 0; i < 100; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d after recycle: %d != %d", i, g, w)
		}
	}
}

// TestSeedMissAllocs holds a full cache to recording misses in place:
// once maxTables tables exist, seeding from a seed the cache does not
// hold allocates nothing, so the bytes a run allocates do not depend on
// how many of its lookups miss.
func TestSeedMissAllocs(t *testing.T) {
	resetTables()
	s := new(Source)
	seed := int64(1 << 50)
	for i := 0; i < maxTables; i++ {
		s.Seed(seed)
		seed++
	}
	if a := testing.AllocsPerRun(2*maxTables, func() {
		s.Seed(seed)
		seed++
	}); a != 0 {
		t.Fatalf("a missing seed allocates %v times with the cache full, want 0", a)
	}
}
