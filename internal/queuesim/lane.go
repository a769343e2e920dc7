package queuesim

// Lanes are FIFO queues beside the calendar for events their callers
// schedule in time order: a ring append replaces the calendar's
// sorted bucket insert. Sim.atLane picks the lane; Sim.Run merges the
// lane heads with the calendar's and the wheel's.
const (
	// laneWire carries ekNet and ekBatchNet: every hop waits the same
	// constant wire delay after a monotone clock, so it never falls
	// back.
	laneWire = iota
	// laneArrival carries ekArrival: one arrival is outstanding at a
	// time, except after an MMPP flip, whose re-armed arrival falls
	// back when it lands ahead of the stale one.
	laneArrival
	numLanes
)

// laneMinCap is a lane ring's first allocation; it doubles when full.
const laneMinCap = 64

// lane is a power-of-two ring of events. It accepts an event only at
// or after its tail's time, and every push carries a fresh (higher)
// seq, so the ring stays sorted by (at, seq) and its head is its
// minimum.
type lane struct {
	ev     []calEvent
	head   int
	n      int
	tailAt float64

	// Stats reported under the queuesim.<label>.sched scope.
	pushed    uint64
	fallbacks uint64
}

// push appends e, or reports false when e is earlier than the tail.
func (l *lane) push(e calEvent) bool {
	if l.n > 0 && e.at < l.tailAt {
		return false
	}
	if l.n == len(l.ev) {
		l.grow()
	}
	l.ev[(l.head+l.n)&(len(l.ev)-1)] = e
	l.n++
	l.tailAt = e.at
	l.pushed++
	return true
}

// grow doubles the ring, unwrapping it so the head lands at index 0.
func (l *lane) grow() {
	ev := make([]calEvent, max(2*len(l.ev), laneMinCap))
	k := copy(ev, l.ev[l.head:])
	copy(ev[k:], l.ev[:l.head])
	l.ev = ev
	l.head = 0
}

// pop removes and returns the head; the lane must be non-empty.
func (l *lane) pop() calEvent {
	e := l.ev[l.head]
	l.head = (l.head + 1) & (len(l.ev) - 1)
	l.n--
	return e
}
