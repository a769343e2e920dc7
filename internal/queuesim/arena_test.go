package queuesim

import (
	"math/rand"
	"testing"
)

// TestStationFIFOProperty: the paged station FIFO pops exactly what a
// plain slice queue pops under seeded interleavings of pushes and pops
// that cross block boundaries, drain to empty and refill, and it
// allocates no block beyond what its high-water mark needs.
func TestStationFIFOProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q fifo
		var ref []int64
		next, hwm := int64(0), 0
		for round := 0; round < 6; round++ {
			// Grow to a random depth of up to a few blocks, mixing in
			// pops, then drain to empty and start over on the same
			// (now recycled) blocks.
			depth := rng.Intn(4 * fifoBlockLen)
			for len(ref) < depth {
				if len(ref) > 0 && rng.Intn(3) == 0 {
					if got, want := q.pop(), ref[0]; got != want {
						t.Fatalf("seed %d: popped %d, want %d", seed, got, want)
					}
					ref = ref[1:]
					continue
				}
				for k := rng.Intn(2*fifoBlockLen) + 1; k > 0; k-- {
					q.push(next)
					ref = append(ref, next)
					next++
				}
				hwm = max(hwm, len(ref))
			}
			for len(ref) > 0 {
				if q.n != len(ref) {
					t.Fatalf("seed %d: fifo holds %d, reference %d", seed, q.n, len(ref))
				}
				if got, want := q.pop(), ref[0]; got != want {
					t.Fatalf("seed %d: popped %d, want %d", seed, got, want)
				}
				ref = ref[1:]
			}
			if q.n != 0 || q.head != q.tail || q.hi != 0 || q.ti != 0 {
				t.Fatalf("seed %d: drained fifo not rewound: n %d hi %d ti %d", seed, q.n, q.hi, q.ti)
			}
		}
		blocks := 0
		for b := q.head; b != nil; b = b.next {
			blocks++
		}
		for b := q.spare; b != nil; b = b.next {
			blocks++
		}
		// A queue that peaked at hwm words spans at most hwm/len + 2
		// blocks (a partly read head and a partly written tail).
		if limit := hwm/fifoBlockLen + 2; blocks > limit {
			t.Fatalf("seed %d: %d blocks for a high-water mark of %d words, want <= %d", seed, blocks, hwm, limit)
		}
	}
}

// TestStationFIFOAllocs: once a FIFO has reached its depth, push/pop
// cycles (here a steady queue of 1.5 blocks sliding across block
// boundaries) allocate nothing: drained blocks are recycled.
func TestStationFIFOAllocs(t *testing.T) {
	var q fifo
	depth := fifoBlockLen * 3 / 2
	for i := 0; i < depth; i++ {
		q.push(int64(i))
	}
	cycle := func() {
		for i := 0; i < fifoBlockLen; i++ {
			q.push(q.pop())
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warmed push/pop cycle allocates %v allocs/op, want 0", n)
	}
}

// TestArenaPagesStable: growing the arena adds pages without moving a
// slot, so a slot pointer taken earlier stays valid.
func TestArenaPagesStable(t *testing.T) {
	var a arena[ereq]
	first := a.at(a.grow())
	first.user = 42
	for i := 1; i < 3*arenaPageLen+1; i++ {
		if got := a.grow(); got != int32(i) {
			t.Fatalf("grow handed out %d, want %d", got, i)
		}
	}
	if len(a.pages) != 4 {
		t.Fatalf("%d pages for %d slots, want 4", len(a.pages), a.n)
	}
	if a.at(0) != first || first.user != 42 {
		t.Fatal("slot 0 moved while the arena grew")
	}
}
