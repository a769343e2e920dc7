package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean not zero")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 {
		t.Fatalf("mean = %v", m.Value())
	}
	m.AddN(10, 2)
	if m.Count() != 4 || m.Value() != (2+4+20)/4.0 {
		t.Fatalf("weighted mean = %v count %d", m.Value(), m.Count())
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample(0)
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	for _, c := range []struct {
		p, want, tol float64
	}{
		{0, 1, 0},
		{100, 100, 0},
		{50, 50.5, 1e-9},
		{99, 99.01, 1e-9},
		{-3, 1, 0},
		{250, 100, 0},
		{math.NaN(), math.NaN(), 0},
	} {
		got := s.Percentile(c.p)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("p%v = %v, want NaN", c.p, got)
			}
		} else if math.Abs(got-c.want) > c.tol {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if s.Max() != 100 {
		t.Fatalf("max = %v", s.Max())
	}
	if math.Abs(s.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

// Max skips NaN whether or not a Percentile call has reordered the
// observations; it once returned 3 before a query and NaN after one.
func TestSampleMaxIgnoresNaN(t *testing.T) {
	s := NewSample(4)
	for _, v := range []float64{3, math.NaN(), 1, 2} {
		s.Add(v)
	}
	if got := s.Max(); got != 3 {
		t.Fatalf("max before a query = %v", got)
	}
	if got := s.Percentile(0); !math.IsNaN(got) {
		t.Fatalf("p0 = %v, want NaN", got)
	}
	if got := s.Max(); got != 3 {
		t.Fatalf("max after a query = %v", got)
	}
	all := NewSample(2)
	all.Add(math.NaN())
	all.Add(math.NaN())
	if got := all.Max(); !math.IsNaN(got) {
		t.Fatalf("max of all-NaN sample = %v", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(4)
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := NewSample(len(vals))
		for _, v := range vals {
			s.Add(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := s.Percentile(pa), s.Percentile(pb)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return va <= vb+1e-9 && va >= sorted[0]-1e-9 && vb <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean = %v", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Fatalf("geomean of non-positives = %v", g)
	}
	if g := GeoMean([]float64{5, -1}); math.Abs(g-5) > 1e-9 {
		t.Fatalf("geomean skipping negatives = %v", g)
	}
}

func TestHarmonicMean(t *testing.T) {
	if h := HarmonicMean([]float64{1, 1}); math.Abs(h-1) > 1e-9 {
		t.Fatalf("harmonic = %v", h)
	}
	if h := HarmonicMean([]float64{2, 6}); math.Abs(h-3) > 1e-9 {
		t.Fatalf("harmonic = %v", h)
	}
	if h := HarmonicMean(nil); h != 0 {
		t.Fatalf("empty harmonic = %v", h)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 1.0)
	for i := 0; i < 20; i++ {
		h.Add(float64(i))
	}
	if h.Count() != 20 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Bucket(0) != 1 {
		t.Fatalf("bucket 0 = %d", h.Bucket(0))
	}
	// Values >= 9 clamp into the last bucket.
	if h.Bucket(9) != 11 {
		t.Fatalf("last bucket = %d", h.Bucket(9))
	}
	h.Add(-5)
	if h.Bucket(0) != 2 {
		t.Fatal("negative not clamped to first bucket")
	}
}

func TestHistogramInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid histogram")
		}
	}()
	NewHistogram(0, 1)
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("ratio")
	}
	if Ratio(6, 0) != 0 {
		t.Fatal("ratio by zero should be 0")
	}
}

// sortedPercentile is the reference Percentile: sort a copy of the
// observations with sort.Float64s and interpolate between the two
// nearest ranks.
func sortedPercentile(sorted []float64, p float64) float64 {
	switch {
	case p != p:
		return math.NaN()
	case p <= 0:
		return sorted[0]
	case p >= 100:
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameFloat reports whether a and b are the same value: equal bits, or
// two zeros (sort.Float64s leaves -0 and +0 in no fixed order).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// percentileInputs returns the named inputs of n observations the
// property test runs on.
func percentileInputs(rng *rand.Rand, n int) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	// Musser's median-of-3 killer: it drives a quickselect that pivots
	// on the median of the first, middle and last value into quadratic
	// time.
	killer := make([]float64, n)
	k := n / 2
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			killer[i-1] = float64(i)
			killer[i] = float64(k + i)
		}
		killer[k+i-1] = float64(2 * i)
	}
	if n%2 == 1 {
		killer[n-1] = float64(n)
	}
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	return map[string][]float64{
		"random":     gen(func(int) float64 { return rng.NormFloat64() * 1e3 }),
		"duplicates": gen(func(int) float64 { return float64(rng.Intn(4)) }),
		"equal":      gen(func(int) float64 { return 7 }),
		"sorted":     gen(func(i int) float64 { return float64(i) }),
		"reversed":   gen(func(i int) float64 { return float64(n - i) }),
		"organpipe":  gen(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"killer":     killer,
		"special": gen(func(int) float64 {
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return rng.ExpFloat64()
		}),
		"allnan": gen(func(int) float64 { return math.NaN() }),
		"infs": gen(func(int) float64 {
			return math.Inf(1 - 2*rng.Intn(2))
		}),
	}
}

// Property: Percentile answers exactly what sorting the whole sample
// answers, for every input shape and for ranks queried in any order,
// repeated, and after more observations arrive; Max always equals
// Percentile(100), and the queries leave Mean's bits unchanged.
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fixed := []float64{0, 0.1, 50, 99, 99.9, 100, -1, 101, math.NaN()}
	for _, n := range []int{1, 2, 3, 17, 1000, 100_000} {
		inputs := percentileInputs(rng, n)
		names := make([]string, 0, len(inputs))
		for name := range inputs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vals := inputs[name]
			s := NewSample(n)
			for _, v := range vals {
				s.Add(v)
			}
			check := func(vals []float64, stage string) {
				ref := append([]float64(nil), vals...)
				sort.Float64s(ref)
				if m, want := s.Max(), sortedPercentile(ref, 100); !sameFloat(m, want) {
					t.Fatalf("n=%d %s %s: Max before queries = %v, want %v", n, name, stage, m, want)
				}
				mean := s.Mean()
				ps := append([]float64(nil), fixed...)
				for i := 0; i < 8; i++ {
					ps = append(ps, rng.Float64()*100)
				}
				ps = append(ps, ps[rng.Intn(len(ps))], ps[rng.Intn(len(ps))])
				rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
				for _, p := range ps {
					if got, want := s.Percentile(p), sortedPercentile(ref, p); !sameFloat(got, want) {
						t.Fatalf("n=%d %s %s: p%v = %v, want %v", n, name, stage, p, got, want)
					}
					if m, p100 := s.Max(), s.Percentile(100); !sameFloat(m, p100) {
						t.Fatalf("n=%d %s %s: Max = %v, Percentile(100) = %v", n, name, stage, m, p100)
					}
				}
				if m := s.Mean(); math.Float64bits(m) != math.Float64bits(mean) {
					t.Fatalf("n=%d %s %s: Mean = %v after queries, %v before", n, name, stage, m, mean)
				}
				got := append([]float64(nil), s.vals...)
				sort.Float64s(got)
				for i := range got {
					if !sameFloat(got[i], ref[i]) {
						t.Fatalf("n=%d %s %s: observations changed: sorted[%d] = %v, want %v", n, name, stage, i, got[i], ref[i])
					}
				}
			}
			check(vals, "fresh")
			more := []float64{rng.NormFloat64(), math.NaN(), 1e9}
			for _, v := range more {
				s.Add(v)
			}
			check(append(vals, more...), "after Add")
		}
	}
}

// A filled sample answers queries without allocating, whether a query
// searches the whole sample or only between settled ranks.
func TestPercentileAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 10_000)
	for i := range src {
		src[i] = rng.ExpFloat64()
	}
	s := NewSample(len(src))
	for _, v := range src {
		s.Add(v)
	}
	allocs := testing.AllocsPerRun(50, func() {
		copy(s.vals, src)
		s.nsettled = 0
		s.Percentile(50)
		s.Percentile(99)
		s.Percentile(99.9)
		s.Percentile(99)
		s.Percentile(rng.Float64() * 100)
	})
	if allocs != 0 {
		t.Fatalf("Percentile allocates %v times per query round", allocs)
	}
}

// BenchmarkPercentile queries p50, p99 and p99.9, the ranks the tail
// sweeps print, on a fresh copy of a lognormal sample of 20 k and of
// 2.6 M observations (a Figure 22 cell's and the tail-overload
// workload's size). The copy is made with the timer stopped.
func BenchmarkPercentile(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"20k", 20_000}, {"2.6M", 2_600_000}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := make([]float64, c.n)
			for i := range src {
				src[i] = math.Exp(rng.NormFloat64())
			}
			var s Sample
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s = Sample{vals: append(s.vals[:0], src...)}
				b.StartTimer()
				s.Percentile(50)
				s.Percentile(99)
				s.Percentile(99.9)
			}
		})
	}
}
