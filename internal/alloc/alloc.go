// Package alloc models the SIMR virtual address space and the two heap
// allocation policies the paper compares: the SIMR-agnostic CPU
// allocator (glibc-like, which lands every thread's private arrays on
// the same L1 bank alignment and causes bank conflicts) and the
// SIMR-aware allocator (paper Fig 16, which offsets each thread's
// allocations to a distinct bank so consecutive per-thread accesses are
// conflict-free). It also implements the contiguous per-batch stack
// segments and the 4-byte stack interleaving physical mapping of paper
// Fig 13.
package alloc

import "fmt"

// Virtual address space layout. Segment bases are far apart so segment
// classification is a range check, as in a real Linux process layout.
const (
	// GlobalBase is the shared data segment (constants, shared tables).
	GlobalBase uint64 = 1 << 32
	// HeapBase starts the per-thread heap arenas.
	HeapBase uint64 = 1 << 36
	// StackRegion starts the stack segments (growing upward per batch,
	// each thread's stack growing downward inside its segment).
	StackRegion uint64 = 1 << 46
	// StackSize is one thread's stack segment size.
	StackSize uint64 = 1 << 20
	// ArenaSize is one thread's heap arena size. Arenas are kept small
	// so a batch's 32 arenas stay within a handful of huge pages (the
	// high-throughput allocators the paper assumes pool per-thread
	// arenas the same way).
	ArenaSize uint64 = 1 << 20
	// InterleaveBytes is the stack physical interleaving granularity.
	InterleaveBytes uint64 = 4
)

// IsStack reports whether addr falls in the stack region.
func IsStack(addr uint64) bool { return addr >= StackRegion }

// IsHeap reports whether addr falls in the heap region.
func IsHeap(addr uint64) bool { return addr >= HeapBase && addr < StackRegion }

// IsGlobal reports whether addr falls in the shared data segment.
func IsGlobal(addr uint64) bool { return addr >= GlobalBase && addr < HeapBase }

// Globals is a bump allocator for the shared data segment. Services
// allocate their shared tables (hash indexes, posting lists, models)
// once at construction.
type Globals struct{ next uint64 }

// NewGlobals returns an empty shared segment allocator.
func NewGlobals() *Globals { return &Globals{next: GlobalBase} }

// Alloc reserves n bytes, 64-byte aligned, and returns the base address.
func (g *Globals) Alloc(n int) uint64 {
	g.next = (g.next + 63) &^ 63
	base := g.next
	g.next += uint64(n)
	if g.next >= HeapBase {
		panic("alloc: shared data segment exhausted")
	}
	return base
}

// Policy selects the heap allocation strategy.
type Policy uint8

// Heap allocation policies.
const (
	// PolicyCPU is the SIMR-agnostic default: allocations are 16-byte
	// aligned bumps within the thread's arena. Because every arena
	// starts at the same bank alignment, parallel threads walking their
	// private arrays hit the same L1 bank together.
	PolicyCPU Policy = iota
	// PolicySIMR offsets each allocation so that
	// start % (lineBytes*banks) == (tid%banks)*lineBytes, placing each
	// thread's stream on its own starting bank (paper Fig 16b bottom).
	PolicySIMR
)

func (p Policy) String() string {
	if p == PolicySIMR {
		return "simr-aware"
	}
	return "cpu"
}

// Arena is one thread's heap allocator. It implements isa.Heap.
type Arena struct {
	tid       int
	next      uint64
	limit     uint64
	policy    Policy
	lineBytes uint64
	banks     uint64
	// Wasted counts alignment padding bytes introduced by the policy
	// (the paper reports ~896 B per 8-thread allocation round).
	Wasted uint64
}

// NewArena creates the heap arena for thread tid of a batch. lineBytes
// and banks describe the target L1 cache geometry that the SIMR-aware
// policy aligns against.
func NewArena(tid int, policy Policy, lineBytes, banks int) *Arena {
	a := new(Arena)
	a.Reset(tid, policy, lineBytes, banks)
	return a
}

// Reset returns the arena to the state NewArena gives it, so a caller
// tracing request after request can reuse one arena.
func (a *Arena) Reset(tid int, policy Policy, lineBytes, banks int) {
	base := HeapBase + uint64(tid)*ArenaSize
	*a = Arena{
		tid:       tid,
		next:      base,
		limit:     base + ArenaSize,
		policy:    policy,
		lineBytes: uint64(lineBytes),
		banks:     uint64(banks),
	}
}

// Alloc reserves n bytes under the arena's policy and returns the base
// virtual address.
func (a *Arena) Alloc(n int) uint64 {
	var base uint64
	switch a.policy {
	case PolicySIMR:
		stride := a.lineBytes * a.banks
		want := (uint64(a.tid) % a.banks) * a.lineBytes
		base = a.next
		if rem := base % stride; rem != want {
			base += (want + stride - rem) % stride
		}
	default:
		base = (a.next + 15) &^ 15
	}
	a.Wasted += base - a.next
	a.next = base + uint64(n)
	if a.next > a.limit {
		panic(fmt.Sprintf("alloc: arena for thread %d exhausted", a.tid))
	}
	return base
}

// Used returns the bytes consumed so far, including padding.
func (a *Arena) Used() uint64 { return a.next - (HeapBase + uint64(a.tid)*ArenaSize) }

// StackGroup describes the contiguous stack segments of one batch and
// the optional 4-byte physical interleaving the RPU driver applies.
type StackGroup struct {
	base       uint64
	batchSize  int
	interleave bool
}

// NewStackGroup lays out batchSize contiguous stack segments for batch
// number batchIdx. interleave enables the RPU physical mapping; the CPU
// identity mapping is used otherwise.
func NewStackGroup(batchIdx, batchSize int, interleave bool) *StackGroup {
	return &StackGroup{
		base:       StackRegion + uint64(batchIdx)*uint64(batchSize)*StackSize,
		batchSize:  batchSize,
		interleave: interleave,
	}
}

// StackBase returns the initial stack pointer (exclusive segment top)
// for thread tid.
func (g *StackGroup) StackBase(tid int) uint64 {
	if tid < 0 || tid >= g.batchSize {
		panic(fmt.Sprintf("alloc: tid %d outside batch of %d", tid, g.batchSize))
	}
	return g.base + uint64(tid+1)*StackSize
}

// Contains reports whether virt falls inside this group's segments.
func (g *StackGroup) Contains(virt uint64) bool {
	return virt >= g.base && virt < g.base+uint64(g.batchSize)*StackSize
}

// TargetTID returns the thread whose segment contains virt, i.e. the
// paper's TargetTID = (SSi-SS0)/StackSize computation that permits
// inter-thread stack access.
func (g *StackGroup) TargetTID(virt uint64) int {
	if !g.Contains(virt) {
		return -1
	}
	return int((virt - g.base) / StackSize)
}

// Translate maps a virtual stack access of size bytes to the physical
// 4-byte-granule addresses it touches. Without interleaving this is the
// identity access (one address). With interleaving, granule w of thread
// t lands at base + w*4*batchSize + t*4, so the same stack offset
// across a batch becomes physically contiguous and coalesces into
// cache lines.
func (g *StackGroup) Translate(virt uint64, size int) []uint64 {
	return g.AppendTranslate(nil, virt, size)
}

// AppendTranslate is Translate writing into a caller-provided buffer:
// it appends the physical granule addresses to dst and returns the
// extended slice, allocating only when dst lacks capacity. It is the
// allocation-free path the per-batch uop conversion uses.
func (g *StackGroup) AppendTranslate(dst []uint64, virt uint64, size int) []uint64 {
	if size <= 0 {
		size = 1
	}
	if !g.interleave {
		return append(dst, virt)
	}
	tid := g.TargetTID(virt)
	if tid < 0 {
		return append(dst, virt)
	}
	off := virt - g.base - uint64(tid)*StackSize
	first := off / InterleaveBytes
	last := (off + uint64(size) - 1) / InterleaveBytes
	for w := first; w <= last; w++ {
		phys := g.base + w*InterleaveBytes*uint64(g.batchSize) + uint64(tid)*InterleaveBytes
		dst = append(dst, phys)
	}
	return dst
}
