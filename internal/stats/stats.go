// Package stats provides small statistical helpers used throughout the
// SIMR simulators: streaming means, percentile estimation over recorded
// samples, fixed-bucket histograms and geometric means for the
// cross-workload summaries the paper reports.
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Sample accumulates observations for percentile queries. It retains all
// samples; the system simulator records at most a few hundred thousand
// request latencies per sweep point, which is well within budget.
type Sample struct {
	vals   []float64
	sorted bool
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
	s.sorted = false
}

// Len returns the number of recorded observations.
func (s *Sample) Len() int { return len(s.vals) }

// Mean returns the arithmetic mean of the recorded observations.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Max returns the largest recorded observation, or 0 when empty.
func (s *Sample) Max() float64 {
	max := 0.0
	for i, v := range s.vals {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// GobEncode serializes the sample: a sorted flag, the count, then every
// observation in insertion order as raw float64 bits. The queuesim
// golden-grid fingerprints hash these bytes, and its tests read the
// observations back from them.
func (s *Sample) GobEncode() ([]byte, error) {
	buf := make([]byte, 0, 9+8*len(s.vals))
	if s.sorted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(s.vals)))
	for _, v := range s.vals {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation. Returns 0 when no samples were recorded.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
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
