// The hierarchical timer wheel (Varghese & Lauck, SOSP 1987) hosting
// the cancellable auxiliary events — timeouts, retry backoffs, hedge
// points, batch-formation timers. Arming returns a handle; cancelling
// through it unlinks the entry in O(1), so a completed request's
// timers vanish instead of being popped later as gen-checked no-ops.
// Four 64-slot levels are cycle-aligned on the absolute tick number
// (level L holds entries sharing the cursor's level-L cycle but not
// its level-(L-1) cycle); per-level occupancy bitmaps make "next
// non-empty slot" one TrailingZeros64, and slots cascade downward
// on demand. The current slot expands into a due buffer sorted by
// (at, seq) — the same total order as the calendar queue — so the
// merged dispatch keeps one global order. Entries
// live in an index-addressed arena with a freelist: steady state
// allocates nothing.
package queuesim

import "math/bits"

const (
	twSlotBits = 6
	twSlots    = 1 << twSlotBits
	twMask     = twSlots - 1
	twLevels   = 4
	// wheelTick is the level-0 slot width in simulated milliseconds.
	// The four levels cover delays up to 64⁴ ticks (~2.3 simulated
	// hours); anything beyond parks on the overflow list and is
	// re-placed when the wheel catches up.
	wheelTick = 0.5
	// wheelMaxTick caps tick numbers so far and infinite times stay
	// inside int64: they all land on this one tick, which the due
	// buffer's (at, seq) sort orders exactly.
	wheelMaxTick = 1 << 62
)

// tickOf maps an absolute time onto its (capped) tick number.
func tickOf(at float64) int64 {
	if t := at / wheelTick; t < wheelMaxTick {
		return int64(t)
	}
	return wheelMaxTick
}

// Timer entry states.
const (
	twFree      uint8 = iota
	twInSlot          // linked into a level/slot list
	twInDue           // in the due buffer awaiting dispatch
	twInOvf           // on the overflow list (delay beyond the top level)
	twCancelled       // cancelled while in the due buffer; freed at drain
)

// twEntry is one pooled timer. next/prev link the slot lists (and the
// freelist via next); lvl/slot locate the entry for O(1) unlink.
type twEntry struct {
	at    float64
	seq   uint64
	next  int32
	prev  int32
	a, b  int32
	kind  uint8
	state uint8
	lvl   int8
	slot  uint8
}

type timerWheel struct {
	entries  []twEntry
	freeHead int32
	slots    [twLevels][twSlots]int32
	occ      [twLevels]uint64
	curTick  int64
	due      []int32
	dueHead  int
	ovf      []int32
	live     int
	inited   bool

	// Stats reported under the queuesim.<label>.sched scope.
	armed     uint64
	fired     uint64
	cancelled uint64 // physically unlinked
	cascades  uint64
	overflows uint64
	dueHWM    int
}

func (w *timerWheel) init() {
	w.inited = true
	w.freeHead = -1
	for l := range w.slots {
		for s := range w.slots[l] {
			w.slots[l][s] = -1
		}
	}
}

// arm schedules a typed timer at absolute time at with arming sequence
// seq, returning its arena index. A timer landing inside the
// still-draining due window is merge-inserted there so global (at,
// seq) order survives; everything else hashes onto a wheel level.
func (w *timerWheel) arm(at float64, seq uint64, kind uint8, a, b int32) int32 {
	if !w.inited {
		w.init()
	}
	var idx int32
	if w.freeHead >= 0 {
		idx = w.freeHead
		w.freeHead = w.entries[idx].next
	} else {
		w.entries = append(w.entries, twEntry{})
		idx = int32(len(w.entries) - 1)
	}
	w.entries[idx] = twEntry{at: at, seq: seq, a: a, b: b, kind: kind, next: -1, prev: -1}
	w.live++
	w.armed++
	if tickOf(at) < w.curTick {
		// Behind the cursor (it can run ahead of the clock, e.g. after
		// an overflow rebase): no slot's window start bounds this entry
		// from below, so it waits in the due buffer.
		w.insertDue(idx)
		return idx
	}
	if w.dueHead < len(w.due) {
		last := &w.entries[w.due[len(w.due)-1]]
		if at < last.at || (at == last.at && seq < last.seq) {
			w.insertDue(idx)
			return idx
		}
	}
	w.place(idx)
	return idx
}

// place hashes an entry onto the lowest level sharing the cursor's
// cycle: level L iff tick>>6(L+1) == curTick>>6(L+1). Within that
// level the slot index is strictly ahead of the cursor (equal only at
// level 0), so cursor-relative bitmap scans never miss live work.
func (w *timerWheel) place(idx int32) {
	en := &w.entries[idx]
	tick := max(tickOf(en.at), w.curTick)
	for lvl := 0; lvl < twLevels; lvl++ {
		shift := uint(twSlotBits * (lvl + 1))
		if tick>>shift != w.curTick>>shift {
			continue
		}
		slot := int(tick >> uint(twSlotBits*lvl) & twMask)
		en.lvl, en.slot, en.state = int8(lvl), uint8(slot), twInSlot
		en.prev = -1
		en.next = w.slots[lvl][slot]
		if en.next >= 0 {
			w.entries[en.next].prev = idx
		}
		w.slots[lvl][slot] = idx
		w.occ[lvl] |= 1 << uint(slot)
		return
	}
	en.state = twInOvf
	w.ovf = append(w.ovf, idx)
	w.overflows++
}

// insertDue merge-inserts an entry into the sorted live region of the
// due buffer.
func (w *timerWheel) insertDue(idx int32) {
	en := &w.entries[idx]
	en.state = twInDue
	lo, hi := w.dueHead, len(w.due)
	for lo < hi {
		mid := (lo + hi) / 2
		m := &w.entries[w.due[mid]]
		if m.at < en.at || (m.at == en.at && m.seq < en.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.due = append(w.due, 0)
	copy(w.due[lo+1:], w.due[lo:])
	w.due[lo] = idx
}

// cancel deschedules a live timer in O(1): slot entries unlink, due
// entries are tombstoned until the drain frees them, overflow entries
// (rare by construction) are scanned out.
func (w *timerWheel) cancel(idx int32) bool {
	en := &w.entries[idx]
	switch en.state {
	case twInSlot:
		w.unlink(idx)
		w.freeEntry(idx)
	case twInDue:
		en.state = twCancelled
	case twInOvf:
		for i, v := range w.ovf {
			if v == idx {
				w.ovf = append(w.ovf[:i], w.ovf[i+1:]...)
				break
			}
		}
		w.freeEntry(idx)
	default:
		return false
	}
	w.live--
	w.cancelled++
	return true
}

func (w *timerWheel) unlink(idx int32) {
	en := &w.entries[idx]
	if en.prev >= 0 {
		w.entries[en.prev].next = en.next
	} else {
		w.slots[en.lvl][en.slot] = en.next
	}
	if en.next >= 0 {
		w.entries[en.next].prev = en.prev
	}
	if w.slots[en.lvl][en.slot] < 0 {
		w.occ[en.lvl] &^= 1 << uint(en.slot)
	}
}

func (w *timerWheel) freeEntry(idx int32) {
	en := &w.entries[idx]
	en.state = twFree
	en.next = w.freeHead
	w.freeHead = idx
}

// peekMin returns the wheel's next (at, seq) without removing it. The
// caller passes the calendar queue's current minimum: while the
// earliest non-empty slot's window starts after that minimum, the
// wheel's exact head cannot win the merge, so no slot is expanded —
// the O(1) lower bound does the work. Expansion (and any cascades it
// needs) happens only when the wheel might hold the global minimum.
func (w *timerWheel) peekMin(calAt float64, calOK bool) (at float64, seq uint64, ok bool) {
	for {
		for w.dueHead < len(w.due) {
			en := &w.entries[w.due[w.dueHead]]
			if en.state == twCancelled {
				w.freeEntry(w.due[w.dueHead])
				w.dueHead++
				continue
			}
			return en.at, en.seq, true
		}
		if len(w.due) > 0 {
			w.due = w.due[:0]
			w.dueHead = 0
		}
		if w.live == 0 {
			return 0, 0, false
		}
		lvl, slot, startTick, found := w.nextSlot()
		if !found {
			w.rebaseOverflow()
			continue
		}
		if calOK && calAt < float64(startTick)*wheelTick {
			return 0, 0, false
		}
		w.expand(lvl, slot, startTick)
	}
}

// nextSlot locates the earliest non-empty slot across the levels. At
// level 0 the cursor's own slot counts (it may have been refilled by
// a short timer after expansion); at higher levels the cursor slot was
// cascaded on entry, so only strictly later slots can be live.
func (w *timerWheel) nextSlot() (lvl, slot int, startTick int64, ok bool) {
	c0 := int(w.curTick & twMask)
	if b := w.occ[0] >> uint(c0); b != 0 {
		s := c0 + bits.TrailingZeros64(b)
		return 0, s, w.curTick&^twMask + int64(s), true
	}
	for l := 1; l < twLevels; l++ {
		c := int(w.curTick >> uint(twSlotBits*l) & twMask)
		if b := w.occ[l] >> uint(c) >> 1; b != 0 {
			s := c + 1 + bits.TrailingZeros64(b)
			cycle := w.curTick &^ (int64(1)<<uint(twSlotBits*(l+1)) - 1)
			return l, s, cycle + int64(s)<<uint(twSlotBits*l), true
		}
	}
	return 0, 0, 0, false
}

// expand advances the cursor to the slot's window start and opens it:
// level 0 drains into the due buffer (sorted by (at, seq)); higher
// levels cascade their entries back through place, which re-hashes
// them onto lower levels relative to the new cursor.
func (w *timerWheel) expand(lvl, slot int, startTick int64) {
	w.curTick = startTick
	h := w.slots[lvl][slot]
	w.slots[lvl][slot] = -1
	w.occ[lvl] &^= 1 << uint(slot)
	if lvl == 0 {
		for i := h; i >= 0; {
			next := w.entries[i].next
			w.entries[i].state = twInDue
			w.due = append(w.due, i)
			i = next
		}
		w.sortDue()
		if len(w.due) > w.dueHWM {
			w.dueHWM = len(w.due)
		}
		return
	}
	w.cascades++
	for i := h; i >= 0; {
		next := w.entries[i].next
		w.entries[i].next, w.entries[i].prev = -1, -1
		w.place(i)
		i = next
	}
}

// rebaseOverflow re-places the overflow list once every level is
// empty: the cursor jumps to the earliest parked tick, which by
// construction lands that entry on a live level.
func (w *timerWheel) rebaseOverflow() {
	minTick := int64(0)
	for i, idx := range w.ovf {
		t := tickOf(w.entries[idx].at)
		if i == 0 || t < minTick {
			minTick = t
		}
	}
	if minTick > w.curTick {
		w.curTick = minTick
	}
	pending := w.ovf
	w.ovf = w.ovf[len(w.ovf):]
	for _, idx := range pending {
		w.entries[idx].state = twFree // place() re-tags it
		w.place(idx)
	}
}

// popDue removes and returns the due head; peekMin has already skipped
// any cancelled tombstones in front of it.
func (w *timerWheel) popDue() calEvent {
	idx := w.due[w.dueHead]
	w.dueHead++
	en := &w.entries[idx]
	e := calEvent{at: en.at, seq: en.seq, kind: uint32(en.kind), a: en.a, b: en.b}
	w.freeEntry(idx)
	w.live--
	w.fired++
	return e
}

// sortDue heapsorts the due buffer by (at, seq) in place — hand-rolled
// so the dispatch path stays allocation-free.
func (w *timerWheel) sortDue() {
	d := w.due
	n := len(d)
	for i := n/2 - 1; i >= 0; i-- {
		w.siftDue(i, n)
	}
	for i := n - 1; i > 0; i-- {
		d[0], d[i] = d[i], d[0]
		w.siftDue(0, i)
	}
}

func (w *timerWheel) siftDue(i, n int) {
	d := w.due
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && w.dueLess(d[l], d[r]) {
			m = r
		}
		if !w.dueLess(d[i], d[m]) {
			return
		}
		d[i], d[m] = d[m], d[i]
		i = m
	}
}

func (w *timerWheel) dueLess(a, b int32) bool {
	ea, eb := &w.entries[a], &w.entries[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}
