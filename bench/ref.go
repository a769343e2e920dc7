package main

import "time"

// The benchmark reports host times in units of a reference loop that is
// fixed with the benchmark, not with the simulators: on a shared host
// the speed of memory and of the cores drifts by tens of percent over
// minutes (see README.md), and a simulator rep slows down with it. The
// parent times the loop just before and just after every rep, while no
// child runs, and divides the rep's host time by the mean of the two.
// A change to the simulators moves the rep and not the loop, so the
// ratio moves by the share of host time the change saves or costs.
//
// The loop has a memory phase and a compute phase because the workloads
// depend on both and the host's drift moves both, by different amounts:
// over an hour of runs of every workload, dividing by the memory phase
// alone over-corrected, by the compute phase alone under-corrected, and
// by the two in this proportion left the least spread.
const (
	refWords   = 1 << 22 // 32 MiB of uint64: well past the L2, into the shared L3 and memory
	refMemOps  = 1 << 22 // read-modify-writes at pseudo-random words
	refCPUOps  = 3 << 22 // xorshift rounds with no memory access
	refXorSeed = 88172645463325252
)

// refClock times the reference loop between reps.
type refClock struct {
	buf   []uint64
	shift uint    // the loop runs its ops >> shift
	prev  float64 // the last timing, in seconds
	sink  uint64  // keeps the loop's result live
}

// newRefClock allocates the loop's buffer and runs the loop once
// untimed, so that page faults stay out of every timing. The quick
// sizing times an eighth of the loop, which keeps the package's tests
// fast; its ratios are not comparable with full ones.
func newRefClock(quick bool) *refClock {
	c := &refClock{buf: make([]uint64, refWords)}
	c.time()
	if quick {
		c.shift = 3
	}
	return c
}

// time runs the reference loop once and returns its host time in
// seconds.
func (c *refClock) time() float64 {
	t0 := time.Now()
	x := uint64(refXorSeed)
	for i := 0; i < refMemOps>>c.shift; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[x&(refWords-1)] += x
	}
	for i := 0; i < refCPUOps>>c.shift; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	c.sink += x
	return time.Since(t0).Seconds()
}

// start times the loop right before a workload's first rep.
func (c *refClock) start() {
	c.prev = c.time()
}

// next times the loop right after a rep and returns the mean of that
// timing and the one before the rep.
func (c *refClock) next() float64 {
	t := c.time()
	mean := (c.prev + t) / 2
	c.prev = t
	return mean
}
