package core

import (
	"reflect"
	"testing"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/pipeline"
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
		p := ws.slots(1, svc, nil)[0]
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
