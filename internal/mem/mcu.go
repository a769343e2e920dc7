package mem

import "slices"

// Pattern classifies what the memory coalescing unit detected for one
// batch memory instruction.
type Pattern uint8

// Coalescing patterns. The RPU's low-latency MCU only detects the two
// simple cases (paper Fig 8b): a broadcast (all lanes read the same
// word) and consecutive-word runs within cache lines; anything else
// generates one access per active lane, exactly like the paper's
// LD/ST unit.
const (
	// PatternBroadcast: every active lane reads the same word.
	PatternBroadcast Pattern = iota
	// PatternCoalesced: lanes access consecutive words; one access per
	// touched cache line.
	PatternCoalesced
	// PatternDivergent: no simple pattern; one access per active lane.
	PatternDivergent
)

func (p Pattern) String() string {
	switch p {
	case PatternBroadcast:
		return "broadcast"
	case PatternCoalesced:
		return "coalesced"
	default:
		return "divergent"
	}
}

// MCUStats counts coalescer outcomes.
type MCUStats struct {
	Broadcast uint64
	Coalesced uint64
	Divergent uint64
	// LaneAccesses is the pre-coalescing access count (sum of active
	// lanes over all ops); Emitted is what actually reached the cache.
	LaneAccesses uint64
	Emitted      uint64
}

// Add accumulates o's counts into s.
func (s *MCUStats) Add(o *MCUStats) {
	s.Broadcast += o.Broadcast
	s.Coalesced += o.Coalesced
	s.Divergent += o.Divergent
	s.LaneAccesses += o.LaneAccesses
	s.Emitted += o.Emitted
}

// Sub subtracts o's counts from s (o must be an earlier snapshot).
func (s *MCUStats) Sub(o *MCUStats) {
	s.Broadcast -= o.Broadcast
	s.Coalesced -= o.Coalesced
	s.Divergent -= o.Divergent
	s.LaneAccesses -= o.LaneAccesses
	s.Emitted -= o.Emitted
}

// wordBytes is the coalescing word granularity.
const wordBytes = 4

// CoalesceScratch holds the MCU's working buffers so the per-batch-op
// hot path (one Coalesce per memory instruction) allocates nothing.
// Word and line counts per op are tiny (<= lanes x granules-per-lane),
// so linear scans over these buffers replace the maps a naive
// implementation would use. The zero value is ready to use; a scratch
// must not be shared between goroutines.
type CoalesceScratch struct {
	words []uint64  // distinct words, first-occurrence order
	runs  []lineRun // touched lines, first-touch order
}

// lineRun is the distinct-word run detected within one cache line.
type lineRun struct {
	line     uint64
	min, max uint64
	count    int
}

// Coalesce applies the MCU to a batch memory instruction. laneAddrs
// lists each active lane's physical word addresses (a lane may span
// two interleaved granules; see alloc.StackGroup.Translate). lineBytes
// is the L1 line size. It returns the addresses to issue to the cache
// and the detected pattern. sc supplies the reusable working buffers;
// callers issuing many ops (tracedump's batch view, the tests'
// property loops) pass one scratch across calls to keep the per-op
// path allocation-free, and a nil sc falls back to a fresh scratch.
//
// Detection: if every lane touches the same word, one broadcast access
// is emitted. Otherwise the MCU groups the touched words per cache
// line; when each touched line holds a consecutive run of words AND
// merging actually saves accesses, one access per line is emitted
// (PatternCoalesced). Any other shape is divergent: one access per
// active lane at its first word.
func Coalesce(laneAddrs [][]uint64, lineBytes int, stats *MCUStats, sc *CoalesceScratch) ([]uint64, Pattern) {
	if sc == nil {
		sc = new(CoalesceScratch)
	}
	return AppendCoalesce(nil, sc, laneAddrs, lineBytes, stats)
}

// AppendCoalesce is Coalesce writing into caller-provided storage: the
// issued addresses are appended to dst (which may be a shared backing
// arena) and the extended slice is returned. sc supplies the reusable
// working buffers. The emitted addresses, pattern and statistics are
// identical to Coalesce's.
func AppendCoalesce(dst []uint64, sc *CoalesceScratch, laneAddrs [][]uint64, lineBytes int, stats *MCUStats) ([]uint64, Pattern) {
	active := 0
	var first uint64
	allSame := true
	haveFirst := false
	for _, as := range laneAddrs {
		if len(as) == 0 {
			continue
		}
		active++
		for _, a := range as {
			w := a / wordBytes
			if !haveFirst {
				first, haveFirst = w, true
			} else if w != first {
				allSame = false
			}
		}
	}
	if stats != nil {
		stats.LaneAccesses += uint64(active)
	}
	if active == 0 {
		return dst, PatternDivergent
	}

	if allSame {
		if stats != nil {
			stats.Broadcast++
			stats.Emitted++
		}
		return append(dst, first*wordBytes&^uint64(lineBytes-1)), PatternBroadcast
	}

	// Group the distinct words per line (lines in first-touch order) and
	// check each line's words form a consecutive run. A word outside its
	// line's [min, max] is new and a word inside a run without gaps was
	// seen, so only a word inside a gapped run scans the words seen so
	// far. Coalescing must save an access, so grouping stops once the
	// lines reach the active lane count: the op is divergent whatever
	// the remaining words are.
	wordsPerLine := uint64(lineBytes / wordBytes)
	sc.words = sc.words[:0]
	sc.runs = sc.runs[:0]
group:
	for _, as := range laneAddrs {
		for _, a := range as {
			w := a / wordBytes
			la := w / wordsPerLine
			var r *lineRun
			for i := range sc.runs {
				if sc.runs[i].line == la {
					r = &sc.runs[i]
					break
				}
			}
			switch {
			case r == nil:
				sc.runs = append(sc.runs, lineRun{line: la, min: w, max: w, count: 1})
				if len(sc.runs) == active {
					break group
				}
			case w < r.min:
				r.min = w
				r.count++
			case w > r.max:
				r.max = w
				r.count++
			case r.max-r.min+1 == uint64(r.count) || slices.Contains(sc.words, w):
				continue // seen
			default:
				r.count++
			}
			sc.words = append(sc.words, w)
		}
	}
	coalesce := len(sc.runs) < active
	for i := 0; coalesce && i < len(sc.runs); i++ {
		if r := &sc.runs[i]; r.max-r.min+1 != uint64(r.count) {
			coalesce = false
		}
	}
	if coalesce {
		for i := range sc.runs {
			dst = append(dst, sc.runs[i].line*uint64(lineBytes))
		}
		if stats != nil {
			stats.Coalesced++
			stats.Emitted += uint64(len(sc.runs))
		}
		return dst, PatternCoalesced
	}

	// Divergent: one access per active lane, at the lane's first word.
	for _, as := range laneAddrs {
		if len(as) > 0 {
			dst = append(dst, as[0]&^uint64(wordBytes-1))
		}
	}
	if stats != nil {
		stats.Divergent++
		stats.Emitted += uint64(active)
	}
	return dst, PatternDivergent
}
