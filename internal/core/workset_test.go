package core

import (
	"fmt"
	"reflect"
	"testing"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/pipeline"
	"simr/internal/simt"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// TestCellScratchAllocs: a chip cell's working set, warmed by one pass
// over a service's requests, allocates nothing on a second pass through
// CPU-side and RPU prep — every group of 8 set, every request traced
// once and built for the CPU, every SMT-8 stream merged from the same
// traces, every RPU batch lock-stepped and built — and the Reset of its
// cores to each architecture. The first pass grows every buffer to what
// the service's largest request and batch need.
func TestCellScratchAllocs(t *testing.T) {
	suite := uservices.NewSuite()
	for _, name := range []string{"memc", "hdsearch-leaf"} {
		svc := suite.Get(name)
		reqs := genRequests(svc, 96, 5)
		opts := DefaultOptions()
		batches := batch.Form(reqs, svc.TunedBatch, opts.Policy)
		banks := MemConfig(ArchRPU).L1.Banks
		reconv := svc.BranchReconv()

		ws := &workSet{}
		p := ws.slot(svc, nil)
		var bs trace.BatchStream
		pass := func() {
			for _, a := range []Arch{ArchCPU, ArchSMT8, ArchRPU, ArchGPU} {
				ws.core(0, PipelineConfig(a))
			}
			for off := 0; off < len(reqs); off += smtWays {
				p.setGroup(reqs[off:min(off+smtWays, len(reqs))])
				for i := range p.group {
					if _, err := p.scalar(i); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := p.smt(); err != nil {
					t.Fatal(err)
				}
			}
			for i := range batches {
				if err := p.batch(&batches[i], &opts, svc.TunedBatch, banks, reconv, &bs); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass()
		if n := testing.AllocsPerRun(2, pass); n != 0 {
			t.Errorf("%s: a warmed working set allocates %v times per pass, want 0", name, n)
		}
	}
}

// TestSMTRelocation pins the invariant the CPU side's shared
// interpretation rests on: every request of every bundled service,
// traced as SMT-8 thread t (tid t, stack t of an 8-way group, heap
// arena t), equals its CPU-layout trace (tid 0, the one stack of a
// 1-way group, arena 0) with every heap and stack address moved up
// t·StackSize bytes and nothing else changed. Thread t's arena sits
// t·ArenaSize above arena 0, so the move is one shift only while the
// two sizes agree.
func TestSMTRelocation(t *testing.T) {
	if alloc.StackSize != alloc.ArenaSize {
		t.Fatalf("StackSize %d != ArenaSize %d: an SMT thread's heap and stack move by different amounts",
			alloc.StackSize, alloc.ArenaSize)
	}
	smtSG := alloc.NewStackGroup(0, smtWays, false)
	for _, suite := range []*uservices.Suite{uservices.NewSuite(), uservices.NewGPGPUSuite()} {
		for _, svc := range suite.Services {
			reqs := append(genRequests(svc, 400, 7), genRequests(svc, 400, 42)...)
			cpu, smt := tracer{svc: svc}, tracer{svc: svc}
			for r := range reqs {
				tid := r % smtWays
				base, err := cpu.request(&reqs[r], 0, 0, cpuStack, alloc.PolicyCPU, 1)
				if err != nil {
					t.Fatal(err)
				}
				own, err := smt.request(&reqs[r], 0, tid, smtSG.StackBase(tid), alloc.PolicyCPU, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(base) != len(own) {
					t.Fatalf("%s request %d: %d ops as thread %d, %d in the CPU layout", svc.Name, r, len(own), tid, len(base))
				}
				for i := range base {
					want := base[i]
					if want.Addr >= alloc.HeapBase {
						want.Addr += uint64(tid) * alloc.StackSize
					}
					if own[i] != want {
						t.Fatalf("%s request %d op %d as thread %d: %+v, want the CPU layout's %+v relocated: %+v",
							svc.Name, r, i, tid, own[i], base[i], want)
					}
				}
			}
		}
	}
}

// TestSMTUopsMatchMerge: the SMT-8 stream built from the threads'
// CPU-layout traces equals the round-robin merge of the per-thread uop
// streams of the traces each thread takes in its own layout, for full
// groups and a short last one of uneven traces.
func TestSMTUopsMatchMerge(t *testing.T) {
	svc := uservices.NewSuite().Get("hdsearch-leaf")
	reqs := genRequests(svc, 13, 9)
	sg := alloc.NewStackGroup(0, smtWays, false)
	own := tracer{svc: svc}
	var p prepSlot
	p.tr.svc = svc
	for _, group := range [][]uservices.Request{reqs[:8], reqs[8:]} {
		traces, err := own.batch(group, sg, alloc.PolicyCPU, 1)
		if err != nil {
			t.Fatal(err)
		}
		var perThread uopBuilder
		streams := make([]pipeline.Stream, len(traces))
		for i, ops := range traces {
			streams[i] = perThread.scalarUops(ops, uint8(i))
		}
		p.setGroup(group)
		got, err := p.smt()
		if err != nil {
			t.Fatal(err)
		}
		if want := perThread.mergeSMT(streams); !reflect.DeepEqual(got, want) {
			t.Fatalf("group of %d: smtUops differs from mergeSMT over scalarUops", len(group))
		}
	}
}

// TestPrepPipelineDeterminism: the prep-then-time loop — trace fetch,
// SIMT lock-step merge and uop build, then the timing core — gives
// every architecture's run the same Result, field for field including
// the float accumulation order, whether it prepares into fresh scratch
// on fresh memory hierarchies (a direct RunService call) or into one
// working set and one worker's hierarchies that other services' and
// architectures' runs used before it, as in a chip-study cell. The
// service set covers the atomic/spin-heavy path (uniqueid) and the
// variants cover ideal IPDOM reconvergence and a tight spin window.
func TestPrepPipelineDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	run := func(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options, ws *workSet, sys *sysList) (*Result, error) {
		var res []*Result
		var err error
		switch arch {
		case ArchCPU, ArchSMT8:
			res, err = runScalar(svc, reqs, []Arch{arch}, opts, ws, sys)
		default:
			res, err = runBatched(svc, reqs, []Arch{arch}, []Options{opts}, ws, sys)
		}
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	arches := []Arch{ArchCPU, ArchSMT8, ArchRPU, ArchGPU}
	// Every run below reuses ws and sys, which a larger service's runs
	// have already grown and dirtied.
	ws, sys := &workSet{}, &sysList{}
	warm := suite.Get("hdsearch-leaf")
	for _, arch := range arches {
		if _, err := run(arch, warm, genRequests(warm, 96, 3), DefaultOptions(), ws, sys); err != nil {
			t.Fatal(err)
		}
	}
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"base", func(o *Options) {}},
		{"ipdom", func(o *Options) { o.UseIPDOM = true }},
		{"tightspin", func(o *Options) { o.Spin = &simt.SpinConfig{Window: 4, MinAtomics: 1, Grant: 4} }},
	}
	for _, name := range []string{"memc", "uniqueid", "user"} {
		svc := suite.Get(name)
		reqs := genRequests(svc, 48, 7)
		for _, arch := range arches {
			for _, v := range variants {
				if v.name != "base" && arch != ArchRPU {
					continue // reconvergence/spin options only shape RPU runs
				}
				t.Run(fmt.Sprintf("%s/%v/%s", name, arch, v.name), func(t *testing.T) {
					opts := DefaultOptions()
					v.mutate(&opts)
					fresh, err := RunService(arch, svc, reqs, opts)
					if err != nil {
						t.Fatal(err)
					}
					reused, err := run(arch, svc, reqs, opts, ws, sys)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fresh, reused) {
						t.Fatal("run on a reused working set differs from a fresh RunService run")
					}
				})
			}
		}
	}
}

// TestScalarArchesShareInterpretation: CPU and SMT-8 timed together on
// one interpretation of each request, in either order, get exactly the
// Results each gets alone from RunService, field for field. The cases
// cover the plain loop, CPU prefetching (which must reach the CPU's
// hierarchy only) and runs served from a trace cache and a
// batch-stream cache; the request count leaves a short last group.
func TestScalarArchesShareInterpretation(t *testing.T) {
	suite := uservices.NewSuite()
	cases := []struct {
		name   string
		mutate func(*Options, *uservices.Service)
	}{
		{"base", func(*Options, *uservices.Service) {}},
		{"prefetch", func(o *Options, _ *uservices.Service) { o.CPUPrefetch = true }},
		{"caches", func(o *Options, svc *uservices.Service) {
			o.Traces = trace.NewCache(svc, trace.NewBudget(0))
			o.BatchStreams = trace.NewBatchCache(trace.NewBudget(0))
		}},
	}
	orders := [][]Arch{{ArchCPU, ArchSMT8}, {ArchSMT8, ArchCPU}}
	ws, sys := &workSet{}, &sysList{}
	for _, name := range []string{"memc", "uniqueid", "hdsearch-leaf"} {
		svc := suite.Get(name)
		reqs := genRequests(svc, 45, 11)
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				opts := DefaultOptions()
				c.mutate(&opts, svc)
				for _, arches := range orders {
					together, err := runScalar(svc, reqs, arches, opts, ws, sys)
					if err != nil {
						t.Fatal(err)
					}
					for i, arch := range arches {
						alone, err := RunService(arch, svc, reqs, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(together[i], alone) {
							t.Fatalf("%v timed beside %v differs from %v alone", arch, arches, arch)
						}
						if arch != ArchSMT8 || !opts.CPUPrefetch {
							continue
						}
						plain := opts
						plain.CPUPrefetch = false
						if ref, err := RunService(arch, svc, reqs, plain); err != nil || !reflect.DeepEqual(together[i], ref) {
							t.Fatalf("CPUPrefetch changed the SMT-8 result (err %v)", err)
						}
					}
				}
			})
		}
	}
	for _, bad := range [][]Arch{{ArchCPU, ArchCPU}, {ArchSMT8, ArchSMT8}, {ArchRPU}, {ArchCPU, ArchGPU}} {
		if _, err := runScalar(suite.Get("memc"), genRequests(suite.Get("memc"), 8, 1), bad, DefaultOptions(), nil, nil); err == nil {
			t.Errorf("runScalar accepted architectures %v", bad)
		}
	}
}
