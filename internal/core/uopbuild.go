package core

import (
	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/mem"
	"simr/internal/pipeline"
	"simr/internal/simt"
)

// uopBuilder converts trace/batch-op streams into pipeline streams
// without per-op allocations: uops and their addresses are carved out
// of growing chunk arenas, and the per-op lane expansion reuses flat
// buffers. Streams built between two reset calls may all stay alive at
// once (MultiBatchStudy keeps 2): when a chunk fills, a fresh one is
// started and earlier streams keep pointing into the old chunk, whose
// values are never rewritten. reset recycles only the current chunks,
// so it must not be called while a previously built stream is still in
// use. A builder must not be shared between goroutines.
type uopBuilder struct {
	uops  []pipeline.Uop // current uop chunk
	addrs []uint64       // current address chunk
	// start is where the stream being built begins in addrs; its uops'
	// Acc offsets count from there.
	start int

	laneBuf []uint64   // flat per-op lane granule storage
	lanes   [][]uint64 // per-lane views into laneBuf
	csc     mem.CoalesceScratch

	// smtUops and mergeSMT working storage.
	remapBuf []int32
	remap    [][]int32
	cursor   []int
}

// reset recycles the current chunks for a new, independent run.
func (b *uopBuilder) reset() {
	b.uops = b.uops[:0]
	b.addrs = b.addrs[:0]
}

// carve returns an n-uop slice from the uop arena; the caller must
// overwrite every element. Chunks grow geometrically so a steady-state
// working set (e.g. one stream per unit, every unit) converges to a
// single reused chunk instead of churning fixed-size ones.
func (b *uopBuilder) carve(n int) []pipeline.Uop {
	if cap(b.uops)-len(b.uops) < n {
		c := 2 * cap(b.uops)
		if c < 1<<12 {
			c = 1 << 12
		}
		if c < n {
			c = n
		}
		b.uops = make([]pipeline.Uop, 0, c)
	}
	l := len(b.uops)
	b.uops = b.uops[:l+n]
	return b.uops[l : l+n : l+n]
}

// begin starts a new stream's address array at the end of the arena.
func (b *uopBuilder) begin() {
	b.start = len(b.addrs)
}

// addrRoom guarantees the address arena can absorb n more words of the
// current stream. A stream's addresses must sit in one array, so when a
// fresh chunk is started the stream's addresses so far move over with
// it; Acc offsets count from the stream's start, so they stay valid.
func (b *uopBuilder) addrRoom(n int) {
	if cap(b.addrs)-len(b.addrs) < n {
		cur := b.addrs[b.start:]
		c := 2 * cap(b.addrs)
		if c < 1<<14 {
			c = 1 << 14
		}
		if c < len(cur)+n {
			c = len(cur) + n
		}
		b.addrs = append(make([]uint64, 0, c), cur...)
		b.start = 0
	}
}

// setAcc points u at the addresses appended to the current stream
// since the arena held l words. A uop issues at most one address per
// 4-byte word its lanes touch: at most 64 lanes of 65 words (a 255-byte
// access), far below NAcc's 65535.
func (b *uopBuilder) setAcc(u *pipeline.Uop, l int) {
	u.Acc, u.NAcc = uint32(l-b.start), uint16(len(b.addrs)-l)
}

// stream returns the current stream: uops and the addresses appended
// since begin.
func (b *uopBuilder) stream(uops []pipeline.Uop) pipeline.Stream {
	end := len(b.addrs)
	return pipeline.Stream{Uops: uops, Addrs: b.addrs[b.start:end:end]}
}

// scalarUops converts a scalar trace into a pipeline stream with
// identity address translation (no interleaving, no coalescing).
func (b *uopBuilder) scalarUops(trace []isa.TraceOp, thread uint8) pipeline.Stream {
	uops := b.carve(len(trace))
	b.begin()
	b.addrRoom(len(trace))
	for i := range trace {
		op := &trace[i]
		b.scalarUop(&uops[i], op, thread, 0)
		if op.Dep1 != 0 {
			uops[i].Dep1 = int32(i - int(op.Dep1))
		}
		if op.Dep2 != 0 {
			uops[i].Dep2 = int32(i - int(op.Dep2))
		}
	}
	return b.stream(uops)
}

// smtUops builds the SMT core's stream straight from its threads'
// scalar traces, each traced as thread 0 of the CPU layout: ops are
// taken round-robin, one per unfinished thread per turn, trace t's
// uops are tagged thread t with their heap and stack addresses moved
// up t stacks (into thread t's arena and stack; see prepSlot.smt), and
// each dependency distance is resolved within its trace and remapped
// into the merged stream as it is built. The result equals mergeSMT
// over scalarUops of the threads' own traces without building the
// per-thread streams.
func (b *uopBuilder) smtUops(traces [][]isa.TraceOp) pipeline.Stream {
	remap, cursor, total := mergeScratch(b, traces, func(tr []isa.TraceOp) int { return len(tr) })
	merged := b.carve(total)
	b.begin()
	b.addrRoom(total)
	k := 0
	for k < total {
		for t, tr := range traces {
			c := cursor[t]
			if c >= len(tr) {
				continue
			}
			u, op := &merged[k], &tr[c]
			b.scalarUop(u, op, uint8(t), uint64(t)*alloc.StackSize)
			if op.Dep1 != 0 {
				u.Dep1 = remap[t][c-int(op.Dep1)]
			}
			if op.Dep2 != 0 {
				u.Dep2 = remap[t][c-int(op.Dep2)]
			}
			remap[t][c] = int32(k)
			cursor[t]++
			k++
		}
	}
	return b.stream(merged)
}

// scalarUop fills u from the scalar trace op: one active lane (Mask
// 0), the branch outcome in TakenMask bit 0, the given thread tag, and
// identity address translation of the op's address after moving a
// heap or stack address up by shift bytes. It leaves both dependencies
// at -1: the op's distances become stream indices only where the
// caller knows the op's place in the stream. The caller must have made
// addrRoom for the op's address.
func (b *uopBuilder) scalarUop(u *pipeline.Uop, op *isa.TraceOp, thread uint8, shift uint64) {
	// Field stores (not a struct literal) so the compiler writes the
	// arena slot in place instead of building and copying a stack
	// temporary per uop; carve reuses chunk memory, so every field
	// including the unused ones must be (re)assigned.
	u.PC = uint64(op.PC)
	u.Class = op.Class
	u.Dep1, u.Dep2 = -1, -1
	u.Acc, u.NAcc = 0, 0
	u.Mask = 0
	u.TakenMask = 0
	if op.Taken {
		u.TakenMask = 1
	}
	u.Thread = thread
	if op.Class.IsMem() {
		a := op.Addr
		if a >= alloc.HeapBase {
			a += shift
		}
		l := len(b.addrs)
		b.addrs = append(b.addrs, a)
		b.setAcc(u, l)
	}
}

// batchUops converts the lock-step batch stream into pipeline uops:
// stack addresses are physically interleaved via the batch's stack
// group (when enabled) and every memory instruction passes through the
// MCU coalescer. The coalescer's counts go to mcu (nil discards
// them), which callers point at a per-batch delta (applied to the memory system in batch order by
// the consumer) rather than live counters — the build pass itself must
// stay pure so batches can be prepared ahead on worker goroutines.
func (b *uopBuilder) batchUops(ops []simt.BatchOp, sg *alloc.StackGroup, interleave bool, mcu *mem.MCUStats) pipeline.Stream {
	uops := b.carve(len(ops))
	b.begin()
	for i := range ops {
		op := &ops[i]
		// In-place field stores for the same reason as scalarUops.
		u := &uops[i]
		u.PC = op.PC
		u.Class = op.Class
		u.Dep1 = op.Dep1
		u.Dep2 = op.Dep2
		u.Acc, u.NAcc = 0, 0
		u.Mask = op.Mask
		u.TakenMask = op.TakenMask
		u.Thread = 0
		if op.Class.IsMem() {
			b.laneBuf = b.laneBuf[:0]
			b.lanes = b.lanes[:0]
			for t := range op.Addrs {
				if op.Mask&(1<<uint(t)) == 0 {
					continue
				}
				a := op.Addrs[t]
				start := len(b.laneBuf)
				if interleave && alloc.IsStack(a) {
					b.laneBuf = sg.AppendTranslate(b.laneBuf, a, int(op.Size))
				} else {
					b.laneBuf = appendGranules(b.laneBuf, a, int(op.Size))
				}
				b.lanes = append(b.lanes, b.laneBuf[start:len(b.laneBuf):len(b.laneBuf)])
			}
			// The coalescer emits at most one address per input word.
			b.addrRoom(len(b.laneBuf))
			l := len(b.addrs)
			b.addrs, _ = mem.AppendCoalesce(b.addrs, &b.csc, b.lanes, lineBytes, mcu)
			b.setAcc(u, l)
		}
	}
	return b.stream(uops)
}

// appendGranules expands one lane's access into the 4-byte words it
// touches so the MCU sees the full footprint (an 8-byte access from
// every lane covers a contiguous region even though lane start
// addresses are 8 bytes apart). The common <=4-byte case appends a
// single word.
func appendGranules(dst []uint64, addr uint64, size int) []uint64 {
	if size <= 4 {
		return append(dst, addr)
	}
	first := addr &^ 3
	last := (addr + uint64(size) - 1) &^ 3
	for a := first; a <= last; a += 4 {
		dst = append(dst, a)
	}
	return dst
}

// mergeSMT interleaves per-thread streams round-robin, remaps
// dependency indices into the merged stream and copies each uop's
// addresses into the merged stream's array in merged order. The input
// streams are not modified; the merged stream is carved from the
// builder's arenas.
func (b *uopBuilder) mergeSMT(streams []pipeline.Stream) pipeline.Stream {
	remap, cursor, total := mergeScratch(b, streams, func(s pipeline.Stream) int { return len(s.Uops) })
	merged := b.carve(total)
	b.begin()
	words := 0
	for _, s := range streams {
		words += len(s.Addrs)
	}
	b.addrRoom(words)
	k := 0
	for k < total {
		for t, s := range streams {
			if cursor[t] >= len(s.Uops) {
				continue
			}
			dst := &merged[k]
			*dst = s.Uops[cursor[t]]
			if dst.NAcc > 0 {
				l := len(b.addrs)
				b.addrs = append(b.addrs, s.Accesses(dst)...)
				b.setAcc(dst, l)
			}
			if dst.Dep1 >= 0 {
				dst.Dep1 = remap[t][dst.Dep1]
			}
			if dst.Dep2 >= 0 {
				dst.Dep2 = remap[t][dst.Dep2]
			}
			remap[t][cursor[t]] = int32(k)
			cursor[t]++
			k++
		}
	}
	return b.stream(merged)
}

// mergeScratch returns a round-robin merge's working storage from b
// for streams, stream t holding length(streams[t]) elements:
// per-stream views of one remap buffer (stream index -> merged index),
// zeroed cursors and the streams' total length.
func mergeScratch[T any](b *uopBuilder, streams []T, length func(T) int) (remap [][]int32, cursor []int, total int) {
	for _, s := range streams {
		total += length(s)
	}
	if cap(b.remapBuf) < total {
		b.remapBuf = make([]int32, max(total, 2*cap(b.remapBuf)))
	}
	if cap(b.remap) < len(streams) {
		b.remap = make([][]int32, len(streams))
		b.cursor = make([]int, len(streams))
	}
	remap = b.remap[:len(streams)]
	cursor = b.cursor[:len(streams)]
	off := 0
	for t, s := range streams {
		n := length(s)
		remap[t] = b.remapBuf[off : off+n : off+n]
		off += n
		cursor[t] = 0
	}
	return remap, cursor, total
}
