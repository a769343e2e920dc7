package queuesim

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
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
	first.parent = 42
	for i := 1; i < 3*arenaPageLen+1; i++ {
		if got := a.grow(); got != int32(i) {
			t.Fatalf("grow handed out %d, want %d", got, i)
		}
	}
	if len(a.pages) != 4 {
		t.Fatalf("%d pages for %d slots, want 4", len(a.pages), a.n)
	}
	if a.at(0) != first || first.parent != 42 {
		t.Fatal("slot 0 moved while the arena grew")
	}
}

// TestEreqSize pins the request slot's host width: every event the
// engine dispatches loads one, so two slots share each 64-byte cache
// line and none straddles two. The side record sits in its own arena.
func TestEreqSize(t *testing.T) {
	if n := unsafe.Sizeof(ereq{}); n != 32 {
		t.Fatalf("ereq is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(ereqExt{}); n != 24 {
		t.Fatalf("ereqExt is %d bytes, want 24", n)
	}
}

// sideArenaCell is one run of TestSideArenaOnlyWhenUsed: its golden
// label, its configuration, and whether it can read a side record.
type sideArenaCell struct {
	goldenCell
	ext bool
}

// sideArenaCells is the scheduler grid's scenario at seed 1 in CPU
// and split-RPU mode: the social graph without a policy and closed
// loop, and the composepost graph, whose request path fans out (their
// lines are in golden_sched.txt), and the social graph at 16 kQPS with
// each of a timeout, a hedge and a queue cap alone, where every one of
// them fires in CPU mode (their lines are in golden_ext.txt).
func sideArenaCells(t *testing.T) []sideArenaCell {
	closed := ArrivalConfig{Process: ArrClosed, Users: 150, ThinkMs: 10}
	variants := []struct {
		label, graph string
		qps          float64
		ac           ArrivalConfig
		pc           PolicyConfig
		ext          bool
	}{
		{"poisson/nopol", "social", 3000, ArrivalConfig{}, PolicyConfig{}, false},
		{"closed/nopol", "social", 3000, closed, PolicyConfig{}, true},
		{"poisson/nopol", "composepost", 3000, ArrivalConfig{}, PolicyConfig{}, true},
		{"poisson/timeout", "social", 16000, ArrivalConfig{}, PolicyConfig{TimeoutMs: 5, MaxRetries: 2, BackoffMs: 1}, true},
		{"poisson/hedge", "social", 16000, ArrivalConfig{}, PolicyConfig{HedgeMs: 3}, true},
		{"poisson/qcap", "social", 16000, ArrivalConfig{}, PolicyConfig{QueueCap: 8, MaxRetries: 2, BackoffMs: 1}, true},
	}
	var cells []sideArenaCell
	for _, v := range variants {
		for _, mode := range []struct {
			label      string
			rpu, split bool
		}{{"cpu", false, false}, {"rpu-split", true, true}} {
			c := DefaultConfig()
			c.QPS = v.qps
			c.Seconds = 0.3
			c.Warmup = 0.05
			c.Drain = 3
			c.Seed = 1
			c.RPU = mode.rpu
			c.Split = mode.split
			g, err := GraphByName(v.graph, c)
			if err != nil {
				t.Fatalf("%s: %v", v.graph, err)
			}
			cells = append(cells, sideArenaCell{goldenCell{
				label: fmt.Sprintf("%s/seed1/%s/%s", v.graph, v.label, mode.label),
				seed:  1,
				cfg:   TailConfig{Config: c, Scale: 1, Arrivals: v.ac, Policy: v.pc, Graph: g},
			}, v.ext})
		}
	}
	return cells
}

// TestSideArenaOnlyWhenUsed: a policy-free, open-loop run on a graph
// without request fan-out allocates no side-record page, and gives
// the same result when forced to keep side records; a timeout, a
// hedge or a queue cap alone, closed loop, and request fan-out each
// allocate one. Every cell reproduces its golden line, written before
// the request slot was split.
func TestSideArenaOnlyWhenUsed(t *testing.T) {
	want := readGolden(t, "testdata/golden_sched.txt")
	for label, line := range readGolden(t, "testdata/golden_ext.txt") {
		want[label] = line
	}
	run := func(c sideArenaCell, force bool) (*engine, *TailMetrics) {
		t.Helper()
		e, err := newTailEngine(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		e.hasExt = e.hasExt || force
		return e, e.run()
	}
	for _, c := range sideArenaCells(t) {
		w, ok := want[c.label]
		if !ok {
			t.Fatalf("no golden line for %s", c.label)
		}
		e, m := run(c, false)
		if got := len(e.ext.pages) > 0; got != c.ext {
			t.Errorf("%s: %d side-record pages, want side records %v", c.label, len(e.ext.pages), c.ext)
		}
		if got := goldenLine(m); got != w {
			t.Errorf("%s diverged from its golden line:\nwant %s\ngot  %s", c.label, w, got)
		}
		if !c.ext {
			if _, mf := run(c, true); goldenLine(mf) != w {
				t.Errorf("%s: forcing side records changed the result", c.label)
			}
		}
	}
}
