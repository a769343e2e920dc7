package pipeline

// Predictor is a small gshare branch predictor: a global history
// register XORed into a table of 2-bit saturating counters. The RPU
// uses one prediction per batch (warp-granularity prediction) and
// updates it with the majority vote of the batch's branch outcomes
// (paper §III-A); the CPU updates per thread.
type Predictor struct {
	hist  uint64
	table []uint8
	mask  uint64
}

// NewPredictor creates a predictor with 2^bits counters.
func NewPredictor(bits int) *Predictor {
	n := 1 << bits
	return &Predictor{table: make([]uint8, n), mask: uint64(n - 1)}
}

// Reset returns the predictor to its NewPredictor state.
func (p *Predictor) Reset() {
	clear(p.table)
	p.hist = 0
}

func (p *Predictor) index(pc uint64) uint64 {
	return ((pc >> 2) ^ p.hist) & p.mask
}

// Predict returns the predicted direction for the branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	return p.table[p.index(pc)] >= 2
}

// Update trains the counter and shifts the outcome into the history.
func (p *Predictor) Update(pc uint64, taken bool) {
	i := p.index(pc)
	if taken {
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
	p.hist = (p.hist << 1) | boolBit(taken)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
