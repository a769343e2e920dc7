// Package seedrng reproduces math/rand.NewSource sequences while
// amortising the seeding cost across repeated streams with the same
// seed. rand.NewSource spends ~2000 multiplications warming up its
// 607-word additive lagged-Fibonacci state; the tracer re-seeds from
// the same request seed every time a request is interpreted (once per
// architecture, batch size and ablation in a study sweep), which made
// seeding alone ~10% of a chip study.
//
// The trick: rngSource's outputs ARE its evolving state. Each draw
// computes vec[feed] += vec[tap] and returns the new vec[feed], with
// the feed pointer stepping through all 607 slots per cycle. So after
// the first 607 outputs the generator satisfies the pure recurrence
//
//	o[n] = o[n-607] + o[n-273]  (mod 2^64)
//
// with no reference to the seeded state at all. Recording the first
// 607 outputs of a real rand.NewSource(seed) once therefore lets any
// number of later streams copy them into their own output ring and
// continue the recurrence there — bit-identical to a fresh source, with
// seeding paid once per distinct seed.
package seedrng

import (
	"math/rand"
	"sync"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// prefix holds the first rngLen outputs of rand.NewSource(seed).
type prefix [rngLen]uint64

// maxTables bounds the seed table cache; beyond it the cache is
// recycled wholesale and its tables re-recorded in place (later streams
// re-record, output unchanged). A stream copies its prefix when seeded,
// so a recycled table is never read by a stream still replaying it.
//
// The cache is shared by every goroutine, so which lookups miss depends
// on how concurrent streams interleave. Recording in place keeps what a
// miss costs in memory independent of that order: the cache allocates
// its maxTables tables once, and no miss allocates after that.
const maxTables = 4096

var (
	mu     sync.Mutex
	tables = map[int64]*prefix{}
	store  [maxTables]*prefix // every table allocated so far
	used   int                // tables of store recorded since the last recycle
	rec    rand.Source64      // re-seeded in place to record a table
)

// load copies seed's prefix into dst, recording it on a miss.
func load(seed int64, dst *[rngLen]uint64) {
	mu.Lock()
	defer mu.Unlock()
	t, ok := tables[seed]
	if !ok {
		t = record(seed)
	}
	*dst = *t
}

// record fills the next free table with seed's prefix and maps it. The
// caller holds mu.
func record(seed int64) *prefix {
	if used == maxTables {
		clear(tables)
		used = 0
	}
	t := store[used]
	if t == nil {
		t = new(prefix)
		store[used] = t
	}
	used++
	if rec == nil {
		rec = rand.NewSource(seed).(rand.Source64)
	} else {
		rec.Seed(seed)
	}
	for i := range t {
		t[i] = rec.Uint64()
	}
	tables[seed] = t
	return t
}

// Source is a rand.Source64 emitting exactly the sequence of
// rand.NewSource(seed). Not safe for concurrent use (same contract as
// math/rand sources).
type Source struct {
	vec [rngLen]uint64 // ring of the last rngLen outputs; the prefix after Seed
	n   int
}

// New returns a *rand.Rand identical in output to
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// Uint64 returns the next value of the underlying sequence.
func (s *Source) Uint64() uint64 {
	i := s.n % rngLen
	if s.n >= rngLen {
		// o[n-607] sits in the slot being overwritten.
		s.vec[i] += s.vec[(i+rngLen-rngTap)%rngLen]
	}
	s.n++
	return s.vec[i]
}

// Int63 returns the next value masked to 63 bits, as rngSource does.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Seed restarts the stream from the given seed.
func (s *Source) Seed(seed int64) {
	load(seed, &s.vec)
	s.n = 0
}
