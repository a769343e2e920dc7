// Package stats provides small statistical helpers used throughout the
// SIMR simulators: streaming means, percentile estimation over recorded
// samples, fixed-bucket histograms and geometric means for the
// cross-workload summaries the paper reports.
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Mean is a streaming arithmetic mean with count tracking.
type Mean struct {
	sum float64
	n   int
}

// Add records one observation.
func (m *Mean) Add(v float64) {
	m.sum += v
	m.n++
}

// AddN records an observation with weight n.
func (m *Mean) AddN(v float64, n int) {
	m.sum += v * float64(n)
	m.n += n
}

// Value returns the current mean, or 0 if no observations were recorded.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Sum returns the running total.
func (m *Mean) Sum() float64 { return m.sum }

// Count returns the number of observations.
func (m *Mean) Count() int { return m.n }

// Sample accumulates observations for percentile queries. It retains
// every observation, 8 bytes each: a tail-mode load point records up to
// a few million request latencies (2.6 M in the benchmark's
// tail-overload workload).
//
// The observations stay in insertion order until the first Percentile
// call. From then on their order is unspecified: Percentile reorders
// them in place, and GobEncode writes whatever order they are in.
type Sample struct {
	vals []float64
	sum  float64 // of vals in insertion order, so Mean ignores reordering
	// settled holds, ascending, ranks that earlier Percentile calls put
	// in place: vals[r] is the r-th smallest observation, with no larger
	// one before it and no smaller one after it. The first nsettled
	// entries count; Add clears them.
	settled  [8]int
	nsettled int
}

// NewSample returns a Sample with capacity hint n. Non-positive hints
// (a zero- or negative-rate caller) allocate an empty sample.
func NewSample(n int) *Sample {
	if n < 0 {
		n = 0
	}
	return &Sample{vals: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.nsettled = 0
}

// Len returns the number of recorded observations.
func (s *Sample) Len() int { return len(s.vals) }

// Mean returns the arithmetic mean of the recorded observations, summed
// in insertion order, so a Percentile call does not change it.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Max returns the largest recorded observation, or 0 when empty. NaN
// observations are ignored unless every observation is NaN, so Max
// agrees with Percentile(100) whether or not a query came first.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	max := math.NaN()
	for _, v := range s.vals {
		if v > max || max != max {
			max = v
		}
	}
	return max
}

// GobEncode serializes the sample: a flag byte (always 0; it once
// marked a sorted sample), the count, then every observation in its
// current order as raw float64 bits. The queuesim golden-grid
// fingerprints hash these bytes, and its tests read the observations
// back from them.
func (s *Sample) GobEncode() ([]byte, error) {
	buf := make([]byte, 0, 9+8*len(s.vals))
	buf = append(buf, 0)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(s.vals)))
	for _, v := range s.vals {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100), interpolating
// linearly between the two nearest ranks of the sorted observations.
// Returns 0 when no samples were recorded and NaN when p is NaN. The
// ordering is sort.Float64s's: a NaN observation ranks below every
// number.
//
// Rather than sort the sample, it selects in place the one or two ranks
// it reads. Ranks that earlier queries settled bound the part of the
// sample a later query searches, so p50, p99 and p99.9 together cost
// about one and a half selections over the whole sample, and a repeated
// rank costs none.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if p != p {
		return math.NaN()
	}
	rank := float64(len(s.vals) - 1)
	if p <= 0 {
		rank = 0
	} else if p < 100 {
		rank *= p / 100
	}
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	s.settle(lo)
	x := s.vals[lo] // settling hi may move it when no room is left to record lo
	if lo == hi {
		return x
	}
	s.settle(hi)
	frac := rank - float64(lo)
	return x*(1-frac) + s.vals[hi]*frac
}

// settle puts the k-th smallest observation at vals[k], searching only
// between the settled ranks that bracket k, and records k as settled
// while there is room. When k is the first rank of that range, as the
// upper neighbour of a just-settled rank is, it is the range's minimum:
// one scan finds it.
func (s *Sample) settle(k int) {
	a, b, i := 0, len(s.vals), 0
	for ; i < s.nsettled; i++ {
		r := s.settled[i]
		if r == k {
			return
		}
		if r > k {
			b = r
			break
		}
		a = r + 1
	}
	v := s.vals[a:b]
	if k == a {
		m := 0
		for j := 1; j < len(v); j++ {
			if less(v[j], v[m]) {
				m = j
			}
		}
		v[0], v[m] = v[m], v[0]
	} else {
		selectRank(v, k-a)
	}
	if s.nsettled < len(s.settled) {
		copy(s.settled[i+1:s.nsettled+1], s.settled[i:s.nsettled])
		s.settled[i] = k
		s.nsettled++
	}
}

// less is sort.Float64s's order: a NaN ranks below every number.
func less(x, y float64) bool { return x < y || (x != x && y == y) }

// selectRank reorders v so that v[k] holds the value sort.Float64s
// would put there, with no larger value before it and no smaller one
// after it. It is quickselect: expected O(len(v)) and allocation-free.
// Each partition that keeps more than 7/8 of the range spends one of
// log2(len(v)) credits; with none left, or with at most a dozen values
// left, it sorts the remaining range, so the worst case stays
// O(n log n).
func selectRank(v []float64, k int) {
	a, b := 0, len(v)
	credits := bits.Len(uint(len(v)))
	for b-a > 12 && credits > 0 {
		n := b - a
		w := v[a:b]
		pivot := choosePivot(w)
		if pivot != pivot {
			// Every NaN ranks first and equal: gather them at the front.
			q := a
			for j := a; j < b; j++ {
				if v[j] != v[j] {
					v[q], v[j] = v[j], v[q]
					q++
				}
			}
			if k < q {
				return
			}
			a = q
		} else {
			// v[a:p] < pivot == v[p] <= v[p+1:b].
			p := a + partitionBelow(w, pivot)
			switch {
			case k < p:
				b = p
			case k == p:
				return
			default:
				a = p + 1
			}
		}
		if 8*(b-a) > 7*n {
			credits--
		}
	}
	sort.Float64s(v[a:b])
}

// choosePivot moves a pivot to v[0] (v holds more than a dozen values)
// and returns it: the median of the values at the quartiles, which
// splits sorted, reversed and organ-pipe inputs well.
func choosePivot(v []float64) float64 {
	n := len(v)
	m := n / 2
	order3(v, n/4, m, n-1-n/4)
	v[0], v[m] = v[m], v[0]
	return v[0]
}

// order3 sorts v[i], v[j], v[k] in place.
func order3(v []float64, i, j, k int) {
	if less(v[j], v[i]) {
		v[i], v[j] = v[j], v[i]
	}
	if less(v[k], v[j]) {
		v[j], v[k] = v[k], v[j]
		if less(v[j], v[i]) {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// partitionBelow moves the pivot at v[0] to index p and every value that
// ranks below it (a NaN does, pivot not being NaN) before p, and
// returns p. It is Lomuto's scheme without a data-dependent branch:
// written as an add of 0 or 1, the comparison compiles to a flag set
// rather than a jump, so random data costs no branch mispredictions.
func partitionBelow(v []float64, pivot float64) int {
	i := 1
	for j := 1; j < len(v); j++ {
		t := v[j]
		v[j] = v[i]
		v[i] = t
		d := 0
		if !(pivot <= t) {
			d = 1
		}
		i += d
	}
	v[0], v[i-1] = v[i-1], v[0]
	return i - 1
}

// GeoMean returns the geometric mean of vs, skipping non-positive
// entries (which would otherwise poison the product). Returns 0 when no
// positive entries exist.
func GeoMean(vs []float64) float64 {
	logSum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// HarmonicMean returns the harmonic mean of vs, skipping non-positive
// entries. Returns 0 when no positive entries exist.
func HarmonicMean(vs []float64) float64 {
	inv, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			inv += 1 / v
			n++
		}
	}
	if inv == 0 {
		return 0
	}
	return float64(n) / inv
}

// Histogram is a fixed-width bucket histogram over [0, width*buckets);
// observations beyond the last bucket are clamped into it.
type Histogram struct {
	width   float64
	counts  []int
	total   int
	overMax int
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, width float64) *Histogram {
	if n <= 0 || width <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram shape n=%d width=%g", n, width))
	}
	return &Histogram{width: width, counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	i := int(v / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
		h.overMax++
	}
	h.counts[i]++
	h.total++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int { return h.total }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int { return h.counts[i] }

// Ratio returns a/b, or 0 when b is 0. It keeps report code tidy when a
// denominator can legitimately be empty (e.g. a service with no loads).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
