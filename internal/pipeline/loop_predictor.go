package pipeline

// loopEntry tracks one backward branch's trip behaviour for the loop
// termination predictor.
type loopEntry struct {
	pc       uint64
	lastTrip uint32
	curRun   uint32
	conf     uint8 // saturating confidence that lastTrip repeats
	valid    bool
}

// LoopPredictor captures the loop-termination component modern
// frontends pair with a direction predictor: when a branch has shown a
// stable trip count, the exit (not-taken) iteration is predicted
// exactly, removing the one-mispredict-per-loop-instance penalty that
// a pure history predictor pays once the trip count exceeds its
// history window.
type LoopPredictor struct {
	entries []loopEntry
	mask    uint64
}

// NewLoopPredictor creates a predictor with 2^bits entries.
func NewLoopPredictor(bits int) *LoopPredictor {
	n := 1 << bits
	return &LoopPredictor{entries: make([]loopEntry, n), mask: uint64(n - 1)}
}

// Reset returns the predictor to its NewLoopPredictor state.
func (l *LoopPredictor) Reset() { clear(l.entries) }

func (l *LoopPredictor) entry(pc uint64) *loopEntry {
	return &l.entries[(pc>>2)&l.mask]
}

// Predict returns (prediction, confident). Confident is true only when
// the branch has repeated the same trip count at least twice.
func (l *LoopPredictor) Predict(pc uint64) (taken, confident bool) {
	e := l.entry(pc)
	if !e.valid || e.pc != pc || e.conf < 2 || e.lastTrip == 0 {
		return false, false
	}
	return e.curRun+1 < e.lastTrip, true
}

// Update trains the entry with the branch outcome.
func (l *LoopPredictor) Update(pc uint64, taken bool) {
	e := l.entry(pc)
	if !e.valid || e.pc != pc {
		*e = loopEntry{pc: pc, valid: true}
	}
	if taken {
		e.curRun++
		return
	}
	trip := e.curRun + 1
	if trip == e.lastTrip {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.lastTrip = trip
		e.conf = 0
	}
	e.curRun = 0
}
