package queuesim

// Paged storage for everything the engine scales with the in-flight
// population: the request and batch arenas and the station queues.
// Both grow one fixed-size page at a time and never copy or free a
// page during a run, so a run allocates about its live high-water mark
// instead of the whole series of copies a doubling (or 1.25x append)
// slice leaves behind, and a slot pointer stays valid while later
// slots are handed out.

// Arena pages hold 1<<arenaPageBits slots; at the 56-byte ereq and
// ebatch a page is exactly seven 8 KiB heap pages.
const (
	arenaPageBits = 10
	arenaPageLen  = 1 << arenaPageBits
	arenaPageMask = arenaPageLen - 1
	// arenaMaxPages keeps every slot index a non-negative int32.
	arenaMaxPages = 1 << (31 - arenaPageBits)
)

// arena is a page table of slots addressed by int32 index. It only
// hands out never-used slots; the owner reuses released ones through a
// free list threaded through a dead slot's own link field.
type arena[T any] struct {
	pages []*[arenaPageLen]T
	n     int32 // slots handed out so far
}

// at returns slot i. The inner index is masked, so only the page
// lookup is bounds-checked.
func (a *arena[T]) at(i int32) *T {
	return &a.pages[i>>arenaPageBits][i&arenaPageMask]
}

// grow hands out the next never-used (zero-valued) slot, adding a page
// when the last one is full.
func (a *arena[T]) grow() int32 {
	if a.n&arenaPageMask == 0 {
		if len(a.pages) == arenaMaxPages {
			panic("queuesim: arena exceeds 2^31 slots")
		}
		a.pages = append(a.pages, new([arenaPageLen]T))
	}
	i := a.n
	a.n++
	return i
}

// fifoBlockLen is the number of words per FIFO block: with its link
// word a block is exactly one 8 KiB size class.
const fifoBlockLen = 1023

// fifoBlock is one block of a fifo. The link comes first so the
// collector scans one word per block.
type fifoBlock struct {
	next *fifoBlock
	buf  [fifoBlockLen]int64
}

// fifo is a station queue of packed (index, generation) words in a
// chain of fixed blocks. A drained block moves to the spare chain and
// is reused before a new one is allocated, so a queue that has reached
// its high-water mark never allocates again.
type fifo struct {
	head, tail *fifoBlock
	spare      *fifoBlock
	hi, ti     int // next read slot in head, next write slot in tail
	n          int
}

func pack(idx int32, gen uint32) int64 { return int64(idx)<<32 | int64(gen) }
func unpack(v int64) (int32, uint32)   { return int32(v >> 32), uint32(v) }

func (q *fifo) push(v int64) {
	if q.tail == nil || q.ti == fifoBlockLen {
		q.link()
	}
	q.tail.buf[q.ti] = v
	q.ti++
	q.n++
}

// link appends an empty block, a spare one when there is one.
func (q *fifo) link() {
	b := q.spare
	if b != nil {
		q.spare = b.next
		b.next = nil
	} else {
		b = new(fifoBlock)
	}
	if q.tail == nil {
		q.head = b
	} else {
		q.tail.next = b
	}
	q.tail = b
	q.ti = 0
}

// pop removes the oldest word; the queue must not be empty.
func (q *fifo) pop() int64 {
	v := q.head.buf[q.hi]
	q.hi++
	q.n--
	switch {
	case q.n == 0:
		// Only a non-empty block is ever linked behind the head, so an
		// empty queue is down to one block: rewind it in place.
		q.hi, q.ti = 0, 0
	case q.hi == fifoBlockLen:
		b := q.head
		q.head = b.next
		b.next = q.spare
		q.spare = b
		q.hi = 0
	}
	return v
}
