package seedrng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds whose normalisation takes each branch of
// rngSource.Seed: zero and the multiples of 2^31−1 (replaced by
// 89482311), negatives (wrapped), the extremes of int64 and the
// replacement seed itself.
var edgeSeeds = []int64{
	0, 1, -1, 42, 7, 1 << 40, -987654321,
	seedMod, -seedMod, 2 * seedMod, -2 * seedMod, 1 << 31, seedMod - 1, -(seedMod - 1),
	seedZero, -seedZero,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// testSeeds returns edgeSeeds and 300 seeds drawn from a fixed stream.
func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// draws is the stream length each exactness check reads: several
// register cycles, through every boundary where a word stops being
// computed on first read (draws 273, 334) and where the register wraps
// (607).
const draws = 5 * rngLen

// TestMatchesMathRand proves bit-identity with math/rand over several
// register cycles, for every seed of testSeeds, across the derived
// Rand methods the service programs use.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < draws; i++ {
			switch i % 5 {
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
			case 4:
				if g, w := got.Int31n(7), want.Int31n(7); g != w {
					t.Fatalf("seed %d draw %d: Int31n = %d, want %d", seed, i, g, w)
				}
			}
		}
	}
}

// TestSourceMatchesRawStream compares the raw Uint64 stream of a Source
// with rand.NewSource's draw for draw, reseeding both mid-stream at
// every boundary of the register walk so each seed starts from a
// Source whose register holds another seed's words.
func TestSourceMatchesRawStream(t *testing.T) {
	cuts := []int{0, 1, freshTap - 1, freshTap, freshTap + 1, freshFeed - 1, freshFeed, freshFeed + 1,
		rngLen - 1, rngLen, rngLen + 1, 2*rngLen + 5, draws}
	seeds := testSeeds()
	s := new(Source)
	ref := rand.NewSource(0).(rand.Source64)
	for i, seed := range seeds {
		s.Seed(seed)
		ref.Seed(seed)
		// Every seed reads the whole stream except where it is cut.
		n := cuts[i%len(cuts)]
		if i%2 == 0 {
			n = draws
		}
		for d := 0; d < n; d++ {
			if g, w := s.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d (after %d) draw %d: %d, want %d", seed, seeds[max(i-1, 0)], d, g, w)
			}
		}
	}
}

// TestReplayIndependence checks that two streams of the same seed do
// not disturb each other.
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

// TestSeedRestart verifies Source.Seed restarts the sequence, also
// through rand.Rand.Seed, at each boundary of the register walk.
func TestSeedRestart(t *testing.T) {
	s := new(Source)
	s.Seed(5)
	r := rand.New(s)
	first := make([]uint64, rngLen+10)
	for i := range first {
		first[i] = r.Uint64()
	}
	for _, cut := range []int{freshTap, freshFeed, rngLen, len(first)} {
		s.Seed(5)
		for i := range first {
			if g := r.Uint64(); g != first[i] {
				t.Fatalf("draw %d after re-seed: %d != %d", i, g, first[i])
			}
		}
		for i := 0; i < cut; i++ {
			r.Uint64()
		}
		r.Seed(5)
		for i := range first {
			if g := r.Uint64(); g != first[i] {
				t.Fatalf("draw %d after Rand.Seed at %d: %d != %d", i, cut, g, first[i])
			}
		}
	}
}

// TestSeedDrawAllocs: seeding and drawing allocate nothing, so the
// bytes a run allocates do not depend on its requests' seeds.
func TestSeedDrawAllocs(t *testing.T) {
	r := New(1)
	seed := int64(1 << 50)
	if a := testing.AllocsPerRun(100, func() {
		r.Seed(seed)
		seed++
		for i := 0; i < rngLen+10; i++ {
			r.Uint64()
		}
		r.Intn(1000)
		r.Float64()
	}); a != 0 {
		t.Fatalf("seeding and drawing allocate %v times, want 0", a)
	}
}
