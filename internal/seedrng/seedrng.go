// Package seedrng reproduces math/rand.NewSource sequences without
// paying the source's seeding warm-up. rand.NewSource fills a 607-word
// register with ~1800 multiplications before its first draw; the
// tracer reseeds from a request's seed every time it interprets the
// request, and most requests draw only a few dozen values, so the
// warm-up dominated their rng cost.
//
// The register word i that rngSource.Seed computes is
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// where x[k] = 48271^k · seed mod (2^31−1) is the k-th step of the
// seeding generator. A Source evaluates that formula for a word only
// when a draw first reads it, from a table of the powers 48271^k
// built at init, so a stream that draws n values computes at most 2n
// words instead of all 607. From then on it walks the register exactly
// as rngSource does. rngCooked is math/rand's fixed table; init
// recovers it from the first 607 outputs of one reference source.
package seedrng

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// seedMod is the seeding generator's modulus 2^31−1 and seedMul
	// its multiplier.
	seedMod = 1<<31 - 1
	seedMul = 48271
	// seedZero replaces a seed that is 0 modulo seedMod.
	seedZero = 89482311

	// Draws 0..freshFeed-1 find their feed word as seeded (the feed
	// pointer walks words 333..0 first), and draws 0..freshTap-1 find
	// their tap word as seeded (the tap pointer walks words 606..334
	// before the feed pointer reaches them).
	freshFeed = rngLen - rngTap
	freshTap  = rngTap
)

// Tables filled once by init and read-only afterwards.
var (
	// pow[k] is seedMul^k mod seedMod, for every step k the seeding
	// generator takes.
	pow [3*rngLen + 21]uint64
	// cooked is math/rand's rngCooked table.
	cooked [rngLen]uint64
)

func init() {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * seedMul % seedMod
	}
	// Recover the register rand.NewSource(1) seeds from its first
	// rngLen outputs o[n]. Draw n adds the tap word 606-n to the feed
	// word (333-n, or 940-n from draw 334 on), stores the sum in the
	// feed word and returns it, so:
	//   - draws 0..272 read words 333-n and 606-n, both as seeded;
	//   - draws 273..333 read word 333-n as seeded and word 606-n as
	//     draw n-273 wrote it;
	//   - draws 334..606 read word 940-n as seeded and word 606-n as
	//     draw n-273 wrote it.
	ref := rand.NewSource(1).(rand.Source64)
	var o, vec [rngLen]uint64
	for n := range o {
		o[n] = ref.Uint64()
	}
	for n := freshFeed; n < rngLen; n++ {
		vec[940-n] = o[n] - o[n-rngTap]
	}
	for n := 0; n < freshTap; n++ {
		vec[333-n] = o[n] - vec[606-n]
	}
	for n := freshTap; n < freshFeed; n++ {
		vec[333-n] = o[n] - o[n-rngTap]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ seeded(1, i)
	}
}

// seeded returns the seeding generator's part of register word i for
// a normalised seed: word i of rngSource.Seed before the rngCooked
// mask.
func seeded(seed uint64, i int) uint64 {
	x := func(k int) uint64 { return pow[k] * seed % seedMod }
	k := 21 + 3*i
	return x(k)<<40 ^ x(k+1)<<20 ^ x(k+2)
}

// Source is a rand.Source64 emitting exactly the sequence of
// rand.NewSource(seed). Not safe for concurrent use (same contract as
// math/rand sources).
type Source struct {
	seed      uint64 // normalised into [1, seedMod)
	n         int    // draws so far, counted up to freshFeed
	tap, feed int
	vec       [rngLen]uint64
}

// New returns a *rand.Rand identical in output to
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed restarts the stream from the given seed. It computes no
// register word; each is computed when a draw first reads it.
func (s *Source) Seed(seed int64) {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = seedZero
	}
	s.seed = uint64(seed)
	s.n = 0
	s.tap = 0
	s.feed = freshFeed
}

// Uint64 returns the next value of the underlying sequence.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n < freshFeed {
		s.vec[s.feed] = seeded(s.seed, s.feed) ^ cooked[s.feed]
		if s.n < freshTap {
			s.vec[s.tap] = seeded(s.seed, s.tap) ^ cooked[s.tap]
		}
		s.n++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value masked to 63 bits, as rngSource does.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }
