// The calendar-queue scheduler (Brown, CACM 1988): the pending-event
// set is hashed into power-of-two "day" buckets by floor(at/width),
// each bucket kept sorted by (at, seq), and the dequeue scan walks
// bucket windows in simulated-time order. With a width tuned so a
// bucket holds a handful of events, push and pop are O(1) amortized —
// versus ~log2(n) sift comparisons per binary-heap operation at
// data-center populations. The (at, seq) total order decides every
// dequeue, for every at in [0, +Inf] (see calMaxDay). Buckets are
// reused in place (a drained bucket resets its slice without freeing
// it), so steady state allocates nothing; only the amortized
// doubling/halving resizes allocate.
//
// The calendar is one of three event sources Sim.Run merges by
// (at, seq): events scheduled in time order (wire hops, arrivals) skip
// it for the FIFO lanes (lane.go), and cancellable timers live on the
// timer wheel (wheel.go).
package queuesim

// calEvent is the scheduler's compact event, shared by the calendar
// queue, the lanes and the timer wheel's due list: 32 bytes, no
// pointers.
type calEvent struct {
	at   float64
	seq  uint64
	a, b int32
	kind uint32
}

// calMinBuckets is the smallest bucket array; resize doubles/halves
// between this floor and whatever the live population demands.
const calMinBuckets = 64

// calMinWidth floors the bucket width (simulated ms) so degenerate
// same-timestamp floods cannot drive the day numbers out of int64
// range.
const calMinWidth = 1e-6

// calDefaultWidth seeds the width before the first resize calibrates
// it from the observed event spacing.
const calDefaultWidth = 0.05

// calGrowAt is the mean bucket occupancy that triggers a doubling;
// shrink fires at a quarter of it, a factor-four hysteresis band. The
// value favors fewer, denser buckets: a sorted insertion among a
// handful of 32-byte events stays inside one or two cache lines,
// while a sparser array pays an extra miss per touch (measured on the
// 7 MQPS tail point).
const calGrowAt = 6

// calWidthGapMul scales the mean inter-event gap into the bucket
// width at recalibration.
const calWidthGapMul = 4.0

// calMaxDay caps day numbers. Every event at or beyond day calMaxDay
// — far finite times and +Inf alike — shares that one day, kept in
// exact (at, seq) order inside its bucket, so the day arithmetic never
// leaves int64 (the scan cursor may still step a full rotation past
// it).
const calMaxDay = 1 << 62

// eventLess is the scheduler-wide dispatch order: time, then arming
// sequence — the FIFO tie-break the calendar and the wheel share.
func eventLess(a, b *calEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// calBucket is one day bucket: ev[head:] is the live, (at, seq)-sorted
// region; the prefix before head has been dequeued and is compacted
// away lazily.
type calBucket struct {
	ev   []calEvent
	head int
}

// calQueue is the calendar queue. The scan cursor scanB is an absolute
// day number (not a bucket index), so distinguishing "this year" from
// "a later year" in the same bucket is a single comparison against the
// head event's own day.
type calQueue struct {
	buckets []calBucket
	mask    int
	width   float64
	inv     float64 // 1/width: day() multiplies instead of dividing
	count   int
	scanB   int64 // absolute day number of the scan cursor

	peeked  bool
	peekB   int // bucket index holding the cached minimum
	peekAt  float64
	peekSeq uint64

	// Stats reported under the queuesim.<label>.sched scope.
	resizes     uint64
	directScans uint64
	bucketHWM   int
}

func (q *calQueue) init() {
	q.buckets = make([]calBucket, calMinBuckets)
	q.mask = calMinBuckets - 1
	q.width = calDefaultWidth
	q.inv = 1 / calDefaultWidth
}

// day maps an event time onto its absolute bucket number with the one
// expression push and peek must share: mixed arithmetic here would let
// an event straddle a window boundary and dispatch out of order.
func (q *calQueue) day(at float64) int64 {
	if d := at * q.inv; d < calMaxDay {
		return int64(d)
	}
	return calMaxDay
}

func (q *calQueue) push(e calEvent) {
	if q.buckets == nil {
		q.init()
	}
	q.insert(e)
	if q.count > calGrowAt*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// insert places e without triggering a resize (resize itself reinserts
// through here).
func (q *calQueue) insert(e calEvent) {
	b := q.day(e.at)
	bk := &q.buckets[int(b)&q.mask]
	ev := append(bk.ev, e)
	i := len(ev) - 1
	for i > bk.head && eventLess(&e, &ev[i-1]) {
		ev[i] = ev[i-1]
		i--
	}
	ev[i] = e
	bk.ev = ev
	if n := len(ev) - bk.head; n > q.bucketHWM {
		q.bucketHWM = n
	}
	if q.count == 0 || b < q.scanB {
		q.scanB = b
	}
	if q.peeked && (e.at < q.peekAt || (e.at == q.peekAt && e.seq < q.peekSeq)) {
		q.peeked = false
	}
	q.count++
}

// peek returns the (at, seq) of the next event without removing it.
// The scan resumes from the cursor's day window; a full rotation
// without a hit (every pending event lies years ahead) falls back to a
// direct minimum over bucket heads, which are each bucket's own
// minimum because buckets are sorted.
func (q *calQueue) peek() (at float64, seq uint64, ok bool) {
	if q.count == 0 {
		return 0, 0, false
	}
	if q.peeked {
		return q.peekAt, q.peekSeq, true
	}
	nb := len(q.buckets)
	for step := 0; step < nb; step++ {
		bk := &q.buckets[int(q.scanB)&q.mask]
		if bk.head < len(bk.ev) {
			e := &bk.ev[bk.head]
			if q.day(e.at) == q.scanB {
				q.cache(int(q.scanB)&q.mask, e)
				return e.at, e.seq, true
			}
		}
		q.scanB++
	}
	q.directScans++
	best := -1
	for i := range q.buckets {
		bk := &q.buckets[i]
		if bk.head >= len(bk.ev) {
			continue
		}
		if best < 0 || eventLess(&bk.ev[bk.head], &q.buckets[best].ev[q.buckets[best].head]) {
			best = i
		}
	}
	e := &q.buckets[best].ev[q.buckets[best].head]
	q.scanB = q.day(e.at)
	q.cache(best, e)
	return e.at, e.seq, true
}

func (q *calQueue) cache(bucket int, e *calEvent) {
	q.peeked = true
	q.peekB = bucket
	q.peekAt = e.at
	q.peekSeq = e.seq
}

// pop removes and returns the minimum event.
func (q *calQueue) pop() calEvent {
	if !q.peeked {
		q.peek()
	}
	bk := &q.buckets[q.peekB]
	e := bk.ev[bk.head]
	bk.head++
	q.peeked = false
	q.count--
	if bk.head == len(bk.ev) {
		bk.ev = bk.ev[:0]
		bk.head = 0
	} else if bk.head > 32 && 2*bk.head >= len(bk.ev) {
		// A bucket that keeps events years ahead never fully drains;
		// compact its dequeued prefix so the slice cannot creep.
		n := copy(bk.ev, bk.ev[bk.head:])
		bk.ev = bk.ev[:n]
		bk.head = 0
	}
	if 4*q.count < calGrowAt*len(q.buckets) && len(q.buckets) > calMinBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return e
}

// resize rebuilds the bucket array at the new size and recalibrates
// the width to a small multiple of the mean inter-event gap, so a day
// window again holds a handful of events. Triggered on a factor-four
// hysteresis band around the calGrowAt target occupancy, the O(count)
// rebuild amortizes to O(1) per operation.
func (q *calQueue) resize(n int) {
	q.resizes++
	lo, hi := 0.0, 0.0
	k := 0 // events inside the day range
	for i := range q.buckets {
		bk := &q.buckets[i]
		for j := bk.head; j < len(bk.ev); j++ {
			at := bk.ev[j].at
			if q.day(at) == calMaxDay {
				continue // a far or infinite time would stretch the width without bound
			}
			if k == 0 {
				lo, hi = at, at
			} else if at < lo {
				lo = at
			} else if at > hi {
				hi = at
			}
			k++
		}
	}
	if k > 1 && hi > lo {
		w := (hi - lo) / float64(k) * calWidthGapMul
		if w < calMinWidth {
			w = calMinWidth
		}
		q.width = w
		q.inv = 1 / w
	}
	old := q.buckets
	q.buckets = make([]calBucket, n)
	q.mask = n - 1
	q.count = 0
	q.peeked = false
	for i := range old {
		bk := &old[i]
		for j := bk.head; j < len(bk.ev); j++ {
			q.insert(bk.ev[j])
		}
	}
}
