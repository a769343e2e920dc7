// Package pipeline is the cycle-level core timing model. It implements
// a one-pass dataflow (interval-style) simulation of a superscalar
// out-of-order pipeline: width-limited fetch/dispatch, ROB occupancy,
// dependency-driven wakeup, bandwidth-limited issue with sub-batch
// interleaving over the SIMT lanes, per-class execution latencies,
// branch prediction with optional per-batch majority voting, memory
// accesses timed through internal/mem, and width-limited in-order
// retire. The same engine models the paper's four design points: the
// single-threaded OoO CPU, the SMT-8 CPU, the OoO-SIMT RPU and an
// in-order SIMT GPU.
package pipeline

import (
	"math/bits"

	"simr/internal/isa"
	"simr/internal/mem"
)

// Uop is one instruction presented to the timing model: a scalar
// instruction (CPU), or a batch instruction with its active mask and
// coalesced physical accesses (RPU/GPU). It is 40 bytes: the timing
// core reads one per simulated instruction, so its width is host
// memory traffic.
type Uop struct {
	PC uint64
	// Mask is a batch instruction's active-lane mask, 0 for a scalar
	// one. The uop's active lane count is popcount(Mask), or 1 when
	// Mask is 0.
	Mask uint64
	// TakenMask has a bit set per lane whose branch was taken. For a
	// scalar branch (Mask 0) bit 0 is the outcome.
	TakenMask  uint64
	Dep1, Dep2 int32 // producer uop indices in the same stream, -1 none
	// Acc and NAcc locate the physical addresses this uop issues to
	// the L1 (already MCU-coalesced for batch mode): the stream's
	// Addrs[Acc : Acc+NAcc].
	Acc   uint32
	NAcc  uint16
	Class isa.Class
	// Thread tags the SMT stream the uop belongs to.
	Thread uint8
}

// Lanes returns the uop's active lane count: popcount(Mask), or 1 for
// a scalar uop.
func (u *Uop) Lanes() int {
	if u.Mask == 0 {
		return 1
	}
	return popcount(u.Mask)
}

// Stream is a uop stream and the one address array its uops' Acc and
// NAcc index. Producers (core's uop builder, the batch cache) may
// share a stream's slices between consumers: Core.Run and every other
// consumer treat both as read-only.
type Stream struct {
	Uops  []Uop
	Addrs []uint64
}

// Accesses returns the L1 addresses of uop u of the stream.
func (s Stream) Accesses(u *Uop) []uint64 {
	return s.Addrs[u.Acc : u.Acc+uint32(u.NAcc)]
}

// Config describes one core's pipeline.
type Config struct {
	Name string
	// FetchWidth, IssueWidth and RetireWidth are per-cycle limits.
	FetchWidth, IssueWidth, RetireWidth int
	// ROB is the reorder-buffer size; ROBPerThread, when non-zero,
	// partitions it per SMT thread.
	ROB          int
	ROBPerThread int
	// Lanes is the SIMT execution width m; batch instructions issue
	// over ceil(active/m) cycles (sub-batch interleaving). 1 = scalar.
	Lanes int
	// Execution latencies per class, in cycles.
	IALULat, FALULat, SimdLat, BranchLat, SyscallLat uint64
	// RedirectPenalty is the frontend refill after a mispredict.
	RedirectPenalty uint64
	// InOrder forces issue in program order (GPU).
	InOrder bool
	// NoSpeculation stalls fetch until each branch resolves (GPU).
	NoSpeculation bool
	// MajorityVote updates the predictor with the batch's majority
	// outcome; otherwise lane 0's outcome is used.
	MajorityVote bool
	// FreqGHz converts cycles to wall time.
	FreqGHz float64
}

// Stats is the outcome of one Run.
type Stats struct {
	Cycles uint64
	// Uops is the number of instructions the frontend processed
	// (batch instructions in batch mode: the quantity the RPU
	// amortises frontend energy over).
	Uops uint64
	// ScalarOps is the work performed (sum of active lanes).
	ScalarOps uint64
	// UopsByClass and LaneOpsByClass split the two counts per class.
	UopsByClass    [isa.NumClasses]uint64
	LaneOpsByClass [isa.NumClasses]uint64
	Branches       uint64
	Mispredicts    uint64
	// FlushedLanes counts lanes whose instructions were flushed at
	// commit because their branch outcome disagreed with the batch
	// prediction (divergence-induced mispredictions).
	FlushedLanes uint64
	// IssueSlots counts consumed issue tokens (sub-batch occupancy).
	IssueSlots uint64
	// LoadCount/LoadLatSum measure average load-to-use latency.
	LoadCount  uint64
	LoadLatSum uint64
	// Mem snapshots the memory system counters accumulated during the
	// run (deltas are the caller's responsibility when reusing a
	// System).
	Mem mem.SysStats
}

// Seconds converts a cycle count to seconds at the configured clock.
func (c Config) Seconds(cycles uint64) float64 {
	return float64(cycles) / (c.FreqGHz * 1e9)
}

// AvgLoadLatency returns the mean load completion latency in cycles.
func (s *Stats) AvgLoadLatency() float64 {
	if s.LoadCount == 0 {
		return 0
	}
	return float64(s.LoadLatSum) / float64(s.LoadCount)
}

// IPC returns retired uops per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Uops) / float64(s.Cycles)
}

// ring enforces a per-cycle token bandwidth W for IN-ORDER pipeline
// stages (fetch/dispatch and retire): grant i must be at least one
// cycle after grant i-W.
type ring struct {
	slots []uint64
	pos   int
}

// init readies the ring for a fresh run, reusing its slot array when
// it is wide enough.
func (r *ring) init(w int) {
	if w <= 0 {
		w = 1
	}
	if cap(r.slots) < w {
		r.slots = make([]uint64, w)
	} else {
		r.slots = r.slots[:w]
		clear(r.slots)
	}
	r.pos = 0
}

// grant returns the earliest time >= want with bandwidth available.
func (r *ring) grant(want uint64) uint64 {
	if min := r.slots[r.pos] + 1; want < min {
		want = min
	}
	r.slots[r.pos] = want
	r.pos++
	if r.pos == len(r.slots) {
		r.pos = 0
	}
	return want
}

// slotTable enforces a per-cycle token bandwidth for the OUT-OF-ORDER
// issue stage: an instruction whose operands are ready at cycle t
// takes the first cycle >= t with a free issue slot, independent of
// program order (a stalled older instruction does not delay ready
// younger ones). Slot counts live in a sliding window of cycles
// [base, base+len(counts)): cycles behind the fetch frontier can never
// be asked for again (every issue request is at least one cycle after
// its uop's fetch grant, and fetch grants only move forward), so
// advance reclaims them instead of keeping one map entry per busy
// cycle for the whole run.
type slotTable struct {
	counts []uint16 // ring indexed by cycle & mask (len is a power of two)
	mask   uint64   // len(counts) - 1
	base   uint64   // lowest cycle still tracked
	width  uint16
}

// init readies the table for a fresh run. The window keeps whatever
// size it grew to — grant results depend only on the counts, not the
// window length, so a larger retained window changes nothing.
func (s *slotTable) init(w int) {
	if w <= 0 {
		w = 1
	}
	s.width = uint16(w)
	if s.counts == nil {
		s.counts = make([]uint16, 1024)
		s.mask = 1023
	} else {
		for i := range s.counts {
			s.counts[i] = 0
		}
	}
	s.base = 0
}

// grant consumes one slot at the earliest cycle >= want.
func (s *slotTable) grant(want uint64) uint64 {
	if want < s.base {
		want = s.base
	}
	for {
		for want >= s.base+uint64(len(s.counts)) {
			s.grow()
		}
		if c := &s.counts[want&s.mask]; *c < s.width {
			*c++
			return want
		}
		want++
	}
}

// advance prunes all cycles below floor. The caller must guarantee no
// later grant asks for a cycle below floor.
func (s *slotTable) advance(floor uint64) {
	if floor <= s.base {
		return
	}
	n := uint64(len(s.counts))
	end := floor
	if end > s.base+n {
		end = s.base + n // cycles past the window were never written
	}
	// The pruned cycles [base, end) occupy at most two contiguous runs
	// of the ring.
	lo := s.base & s.mask
	cnt := end - s.base
	if lo+cnt <= n {
		clear(s.counts[lo : lo+cnt])
	} else {
		clear(s.counts[lo:])
		clear(s.counts[:lo+cnt-n])
	}
	s.base = floor
}

// grow doubles the window, re-homing live counts to the new ring
// positions.
func (s *slotTable) grow() {
	old := s.counts
	n := uint64(len(old))
	s.counts = make([]uint16, 2*n)
	for c := s.base; c < s.base+n; c++ {
		s.counts[c&(2*n-1)] = old[c&(n-1)]
	}
	s.mask = 2*n - 1
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// robRing is one SMT thread's dispatch history for partitioned ROBs:
// a fixed window of the last ROBPerThread dispatched uop indices. pos
// is the slot the thread's next dispatch overwrites, and full says the
// window has wrapped, so that slot holds the dispatch exactly
// ROBPerThread uops back on the thread.
type robRing struct {
	buf  []int
	pos  int
	full bool
}

// runScratch is Core.Run's reusable working storage. completion and
// retire are reused across runs without clearing: dependency and
// retire-chain references only ever point backwards, so within one run
// every slot is written before it can be read.
type runScratch struct {
	completion, retire []uint64
	fetchR, retireR    ring
	issueS             slotTable
	threads            []robRing
}

// Core bundles a pipeline configuration with its branch predictors and
// the reusable run scratch. A Core must not run on two goroutines at
// once.
type Core struct {
	Cfg Config
	BP  *Predictor
	LP  *LoopPredictor
	sc  runScratch
}

// NewCore creates a core with a 4K-entry gshare predictor and a 256-
// entry loop termination predictor.
func NewCore(cfg Config) *Core {
	if cfg.Lanes <= 0 {
		cfg.Lanes = 1
	}
	return &Core{Cfg: cfg, BP: NewPredictor(12), LP: NewLoopPredictor(8)}
}

// Reset readies the core to run cfg exactly as NewCore(cfg) would: it
// clears both branch predictors and keeps the run scratch, which no run
// reads before writing.
func (c *Core) Reset(cfg Config) {
	if cfg.Lanes <= 0 {
		cfg.Lanes = 1
	}
	c.Cfg = cfg
	c.BP.Reset()
	c.LP.Reset()
}

// Run simulates the uop stream against the memory system and returns
// timing statistics. The memory system's state (cache contents, bank
// timing) persists across calls, modelling back-to-back requests on a
// warm core.
func (c *Core) Run(ms *mem.System, s Stream) Stats {
	cfg := c.Cfg
	var st Stats
	uops := s.Uops

	n := len(uops)
	if cap(c.sc.completion) < n {
		grow := 2 * cap(c.sc.completion)
		if grow < n {
			grow = n
		}
		c.sc.completion = make([]uint64, grow)
		c.sc.retire = make([]uint64, grow)
	}
	completion := c.sc.completion[:n]
	retire := c.sc.retire[:n]

	fetchR := &c.sc.fetchR
	fetchR.init(cfg.FetchWidth)
	issueS := &c.sc.issueS
	issueS.init(cfg.IssueWidth)
	retireR := &c.sc.retireR
	retireR.init(cfg.RetireWidth)

	var fetchMin uint64  // frontend stalled until (redirects)
	var lastIssue uint64 // in-order issue constraint
	// Per-thread dispatch history for partitioned ROBs: size the thread
	// table and every ring once per run from the stream's max thread id,
	// so the dispatch loop below only indexes (no appends or makes on
	// the hot path, and zero allocations in the steady state).
	if cfg.ROBPerThread > 0 {
		var maxThread uint8
		for i := range uops {
			maxThread = max(maxThread, uops[i].Thread)
		}
		for int(maxThread) >= len(c.sc.threads) {
			c.sc.threads = append(c.sc.threads, robRing{})
		}
		for t := range c.sc.threads {
			h := &c.sc.threads[t]
			if cap(h.buf) < cfg.ROBPerThread {
				h.buf = make([]int, cfg.ROBPerThread)
			}
			h.buf = h.buf[:cfg.ROBPerThread]
			h.pos, h.full = 0, false
		}
	}

	for i := range uops {
		u := &uops[i]

		// Dispatch: fetch bandwidth, redirect stalls, ROB occupancy.
		d := fetchR.grant(fetchMin)
		// Fetch grants are monotone and every issue request below is at
		// least d+1, so issue slots behind this frontier are dead.
		issueS.advance(d)
		if cfg.ROBPerThread > 0 {
			h := &c.sc.threads[u.Thread]
			if h.full {
				d = max64(d, retire[h.buf[h.pos]])
			}
			h.buf[h.pos] = i
			if h.pos++; h.pos == len(h.buf) {
				h.pos, h.full = 0, true
			}
		} else if cfg.ROB > 0 && i >= cfg.ROB {
			d = max64(d, retire[i-cfg.ROB])
		}

		// Ready: dependencies resolved.
		ready := d + 1
		if u.Dep1 >= 0 {
			ready = max64(ready, completion[u.Dep1])
		}
		if u.Dep2 >= 0 {
			ready = max64(ready, completion[u.Dep2])
		}
		if cfg.InOrder {
			ready = max64(ready, lastIssue)
		}

		// Issue: one token per sub-batch group (execution classes widen
		// over the lanes); memory instructions occupy one LSQ row.
		lanes := u.Lanes()
		tokens := 1
		if lanes > cfg.Lanes && !u.Class.IsMem() {
			tokens = (lanes + cfg.Lanes - 1) / cfg.Lanes
		}
		issue := ready
		for k := 0; k < tokens; k++ {
			issue = issueS.grant(issue)
		}
		st.IssueSlots += uint64(tokens)
		lastIssue = issue

		// Execute.
		var done uint64
		switch u.Class {
		case isa.Load, isa.Atomic:
			done = issue
			for _, a := range s.Accesses(u) {
				if t := ms.Access(a, false, u.Class == isa.Atomic, issue); t > done {
					done = t
				}
			}
			st.LoadCount++
			st.LoadLatSum += done - issue
		case isa.Store:
			// Stores retire from the store queue off the critical path,
			// but still update cache state and traffic now.
			for _, a := range s.Accesses(u) {
				ms.Access(a, true, false, issue)
			}
			done = issue + 1
		case isa.Branch:
			done = issue + cfg.BranchLat
			st.Branches++
			actual := u.TakenMask&1 != 0
			if u.Mask != 0 {
				actual = c.voteOutcome(u)
				// Lanes disagreeing with the batch direction flush at
				// commit regardless of prediction accuracy.
				agree := popcount(u.TakenMask)
				if !actual {
					agree = popcount(u.Mask) - agree
				}
				st.FlushedLanes += uint64(popcount(u.Mask) - agree)
			}
			pred, conf := c.LP.Predict(u.PC)
			if !conf {
				pred = c.BP.Predict(u.PC)
			}
			c.LP.Update(u.PC, actual)
			c.BP.Update(u.PC, actual)
			if pred != actual {
				st.Mispredicts++
				fetchMin = max64(fetchMin, done+cfg.RedirectPenalty)
			}
			if cfg.NoSpeculation {
				fetchMin = max64(fetchMin, done)
			}
		case isa.Jump, isa.CallOp, isa.RetOp:
			done = issue + cfg.IALULat
		case isa.FAlu:
			done = issue + cfg.FALULat
		case isa.Simd:
			done = issue + cfg.SimdLat
		case isa.Syscall:
			done = issue + cfg.SyscallLat
		case isa.Fence:
			done = issue + 1
			if cfg.InOrder {
				lastIssue = done
			}
		default:
			done = issue + cfg.IALULat
		}
		completion[i] = done

		// Retire: in order, width-limited.
		r := retireR.grant(done)
		if i > 0 {
			r = max64(r, retire[i-1])
		}
		retire[i] = r

		// Accounting.
		st.Uops++
		st.UopsByClass[u.Class]++
		st.ScalarOps += uint64(lanes)
		st.LaneOpsByClass[u.Class] += uint64(lanes)
	}

	if n > 0 {
		st.Cycles = retire[n-1]
	}
	st.Mem = ms.Stats()
	return st
}

// voteOutcome applies the configured vote policy to a batch branch.
func (c *Core) voteOutcome(u *Uop) bool {
	if c.Cfg.MajorityVote {
		taken := popcount(u.TakenMask)
		total := popcount(u.Mask)
		return taken*2 >= total
	}
	// Without voting the prediction follows the lowest active lane.
	low := u.Mask & (^u.Mask + 1)
	return u.TakenMask&low != 0
}

func popcount(m uint64) int { return bits.OnesCount64(m) }

// Accumulate adds another run's counters into s, memory counters
// included. Callers that reuse one mem.System across runs must convert
// o.Mem (an end-of-run snapshot of cumulative System counters) to the
// run's own delta first — see mem.SysStats.Delta — or the same events
// are counted once per remaining run.
func (s *Stats) Accumulate(o *Stats) {
	s.Cycles += o.Cycles
	s.Uops += o.Uops
	s.ScalarOps += o.ScalarOps
	for c := range s.UopsByClass {
		s.UopsByClass[c] += o.UopsByClass[c]
		s.LaneOpsByClass[c] += o.LaneOpsByClass[c]
	}
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	s.FlushedLanes += o.FlushedLanes
	s.IssueSlots += o.IssueSlots
	s.LoadCount += o.LoadCount
	s.LoadLatSum += o.LoadLatSum
	s.Mem.Add(&o.Mem)
}
