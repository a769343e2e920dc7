package pipeline

import (
	"testing"

	"simr/internal/isa"
)

func benchUops(n int, mask uint64) Stream {
	var s Stream
	for i := 0; i < n; i++ {
		cls := isa.IAlu
		switch i % 7 {
		case 3:
			cls = isa.Load
		case 5:
			cls = isa.Store
		}
		u := Uop{Class: cls, Dep1: -1, Dep2: -1, Mask: mask, PC: uint64(i) * 4}
		if i%4 == 0 && i > 0 {
			u.Dep1 = int32(i - 1)
		}
		if cls.IsMem() {
			s = appendUop(s, u, uint64(i)*64%(1<<20))
		} else {
			s = appendUop(s, u)
		}
	}
	return s
}

// benchRun times s on one reused core and memory system, each Reset
// before every run, so the measurement is Core.Run and the memory
// accesses it makes, not the allocation and clearing of fresh cache
// arrays.
func benchRun(b *testing.B, cfg Config, s Stream) {
	c, ms := NewCore(cfg), testMem()
	b.SetBytes(int64(len(s.Uops)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(cfg)
		ms.Reset()
		c.Run(ms, s)
	}
}

func BenchmarkRunScalar(b *testing.B) {
	benchRun(b, testCfg(), benchUops(4096, 0))
}

// BenchmarkRunLongTrace guards the slotTable sliding window: a long
// compute trace must not allocate issue-bookkeeping proportional to
// its cycle count (the old map kept one entry per busy cycle for the
// whole run). Pure ALU uops keep memory-hierarchy allocations out of
// the measurement.
func BenchmarkRunLongTrace(b *testing.B) {
	const n = 1 << 18
	uops := make([]Uop, n)
	for i := range uops {
		uops[i] = Uop{Class: isa.IAlu, Dep1: -1, Dep2: -1, PC: uint64(i) * 4}
		if i%4 == 0 && i > 0 {
			uops[i].Dep1 = int32(i - 1)
		}
	}
	benchRun(b, testCfg(), Stream{Uops: uops})
}

func BenchmarkRunBatch(b *testing.B) {
	cfg := testCfg()
	cfg.Lanes = 8
	benchRun(b, cfg, benchUops(4096, 1<<32-1))
}
