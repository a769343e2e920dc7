package mem

// Prefetcher is a simple tagged next-N-line prefetcher attached to the
// L1. The paper's Table III cites warehouse-scale studies showing data
// prefetchers are largely ineffective on microservice heaps (pointer
// chases and hash probes have no spatial next-line pattern, and stack
// reuse already hits); the prefetcher is modelled so the claim can be
// tested rather than asserted.
type Prefetcher struct {
	// Degree is how many sequential lines are fetched on a trigger.
	Degree int
	// lastLine per stream-table entry detects ascending runs.
	table map[uint64]uint64 // region (4KB) -> last line seen
	Stats PrefetchStats
}

// PrefetchStats counts prefetcher activity.
type PrefetchStats struct {
	Issued uint64 // prefetches sent to the hierarchy
	Useful uint64 // prefetched lines later demanded
}

// Add accumulates o's counts into s.
func (s *PrefetchStats) Add(o *PrefetchStats) {
	s.Issued += o.Issued
	s.Useful += o.Useful
}

// Sub subtracts o's counts from s (o must be an earlier snapshot).
func (s *PrefetchStats) Sub(o *PrefetchStats) {
	s.Issued -= o.Issued
	s.Useful -= o.Useful
}

// Accuracy returns useful / issued.
func (s PrefetchStats) Accuracy() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful) / float64(s.Issued)
}

// NewPrefetcher creates a next-line prefetcher of the given degree.
func NewPrefetcher(degree int) *Prefetcher {
	if degree <= 0 {
		degree = 1
	}
	return &Prefetcher{Degree: degree, table: map[uint64]uint64{}}
}

// observe is called on every demand access; it returns the lines to
// prefetch (possibly none).
func (p *Prefetcher) observe(line uint64, lineBytes int) []uint64 {
	region := line / (4096 / uint64(lineBytes))
	last, ok := p.table[region]
	p.table[region] = line
	if len(p.table) > 1024 {
		for k := range p.table {
			delete(p.table, k)
			if len(p.table) <= 512 {
				break
			}
		}
	}
	if !ok || line != last+1 {
		return nil // no ascending pattern
	}
	out := make([]uint64, 0, p.Degree)
	for d := 1; d <= p.Degree; d++ {
		out = append(out, line+uint64(d))
	}
	return out
}
