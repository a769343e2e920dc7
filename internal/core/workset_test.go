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
// CPU, SMT-8 and RPU prep — every request traced and built, every
// SMT-8 group merged, every RPU batch lock-stepped and built — and the
// Reset of its cores to each architecture. The first pass grows every
// buffer to what the service's largest request and batch need.
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
		cpuSG := alloc.NewStackGroup(0, 1, false)
		smtSG := alloc.NewStackGroup(0, 8, false)
		var bs trace.BatchStream
		pass := func() {
			for _, a := range []Arch{ArchCPU, ArchSMT8, ArchRPU, ArchGPU} {
				ws.core(0, PipelineConfig(a))
			}
			for i := range reqs {
				if _, err := p.scalar(&reqs[i], cpuSG); err != nil {
					t.Fatal(err)
				}
			}
			for off := 0; off < len(reqs); off += 8 {
				if _, err := p.smt(reqs[off:min(off+8, len(reqs))], smtSG); err != nil {
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

// TestSMTUopsMatchMerge: the SMT-8 stream built straight from the
// threads' traces equals the round-robin merge of their per-thread uop
// streams, for full groups and a short last one of uneven traces.
func TestSMTUopsMatchMerge(t *testing.T) {
	svc := uservices.NewSuite().Get("hdsearch-leaf")
	reqs := genRequests(svc, 13, 9)
	sg := alloc.NewStackGroup(0, 8, false)
	tr := tracer{svc: svc}
	for _, group := range [][]uservices.Request{reqs[:8], reqs[8:]} {
		traces, err := tr.batch(group, sg, alloc.PolicyCPU, 1)
		if err != nil {
			t.Fatal(err)
		}
		var direct, perThread uopBuilder
		streams := make([][]pipeline.Uop, len(traces))
		for i, ops := range traces {
			streams[i] = perThread.scalarUops(ops, i)
		}
		if got, want := direct.smtUops(traces), perThread.mergeSMT(streams); !reflect.DeepEqual(got, want) {
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
		switch arch {
		case ArchCPU:
			return runScalar(svc, reqs, opts, ws, sys)
		case ArchSMT8:
			return runSMT(svc, reqs, opts, ws, sys)
		}
		res, err := runBatched(svc, reqs, []Arch{arch}, []Options{opts}, ws, sys)
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
