package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/mem"
	"simr/internal/simt"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// testReqs keeps the integration tests fast; shape assertions use
// services where the effect is robust at this size.
const testReqs = 192

func run(t *testing.T, arch Arch, svcName string, mutate func(*Options)) *Result {
	t.Helper()
	suite := uservices.NewSuite()
	svc := suite.Get(svcName)
	reqs := svc.Generate(rand.New(rand.NewSource(42)), testReqs)
	opts := DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	res, err := RunService(arch, svc, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllArchitecturesRunAllServices(t *testing.T) {
	suite := uservices.NewSuite()
	for _, svc := range suite.Services {
		reqs := svc.Generate(rand.New(rand.NewSource(1)), 64)
		for _, arch := range []Arch{ArchCPU, ArchSMT8, ArchRPU, ArchGPU} {
			res, err := RunService(arch, svc, reqs, DefaultOptions())
			if err != nil {
				t.Fatalf("%s on %v: %v", svc.Name, arch, err)
			}
			if res.Requests != 64 || res.Latency.Len() != 64 {
				t.Fatalf("%s on %v: request accounting wrong", svc.Name, arch)
			}
			if res.Stats.Cycles == 0 || res.Energy.Total() <= 0 {
				t.Fatalf("%s on %v: empty result", svc.Name, arch)
			}
		}
	}
}

func TestHeadlineShape(t *testing.T) {
	// The paper's qualitative results must hold on a representative
	// mid-tier service: the RPU wins requests/joule by a wide margin at
	// under ~2.5x latency; SMT-8 is latency-poor and roughly
	// energy-neutral; the GPU is energy-best but latency-worst.
	for _, name := range []string{"memc", "mcrouter", "user"} {
		cpu := run(t, ArchCPU, name, nil)
		smt := run(t, ArchSMT8, name, nil)
		rpu := run(t, ArchRPU, name, nil)
		gpu := run(t, ArchGPU, name, nil)

		if r := rpu.ReqPerJoule() / cpu.ReqPerJoule(); r < 1.8 {
			t.Errorf("%s: RPU req/J only %.2fx CPU", name, r)
		}
		if r := rpu.AvgLatencySec() / cpu.AvgLatencySec(); r > 3.0 {
			t.Errorf("%s: RPU latency %.2fx CPU", name, r)
		}
		if r := smt.AvgLatencySec() / cpu.AvgLatencySec(); r < 1.5 {
			t.Errorf("%s: SMT-8 latency %.2fx CPU, expected much worse", name, r)
		}
		if r := smt.ReqPerJoule() / cpu.ReqPerJoule(); r < 0.6 || r > 1.8 {
			t.Errorf("%s: SMT-8 req/J %.2fx CPU, expected near parity", name, r)
		}
		if r := gpu.AvgLatencySec() / cpu.AvgLatencySec(); r < 5 {
			t.Errorf("%s: GPU latency only %.1fx CPU", name, r)
		}
		if gpu.ReqPerJoule() < rpu.ReqPerJoule() {
			t.Errorf("%s: GPU should be the energy-efficiency winner", name)
		}
	}
}

func TestRPUReducesFrontendWork(t *testing.T) {
	cpu := run(t, ArchCPU, "urlshort", nil)
	rpu := run(t, ArchRPU, "urlshort", nil)
	// Issued (frontend) instructions drop by ~batch×efficiency.
	r := float64(cpu.Stats.Uops) / float64(rpu.Stats.Uops)
	if r < 15 {
		t.Fatalf("frontend instruction reduction only %.1fx", r)
	}
	if rpu.Stats.ScalarOps != cpu.Stats.ScalarOps {
		t.Fatalf("scalar work differs: %d vs %d", rpu.Stats.ScalarOps, cpu.Stats.ScalarOps)
	}
}

func TestRPUCoalescesTraffic(t *testing.T) {
	cpu := run(t, ArchCPU, "mcrouter", nil)
	rpu := run(t, ArchRPU, "mcrouter", nil)
	r := rpu.L1AccessesPerRequest() / cpu.L1AccessesPerRequest()
	if r > 0.6 {
		t.Fatalf("stack-heavy service L1 traffic ratio %.2f, want well under 1", r)
	}
}

func TestBatchSizeOptionRespected(t *testing.T) {
	r32 := run(t, ArchRPU, "memc", func(o *Options) { o.BatchSize = 32 })
	r8 := run(t, ArchRPU, "memc", func(o *Options) { o.BatchSize = 8 })
	if r8.Batches <= r32.Batches {
		t.Fatalf("batch accounting: %d batches at size 8 vs %d at 32", r8.Batches, r32.Batches)
	}
}

func TestTunedBatchUsedByDefault(t *testing.T) {
	res := run(t, ArchRPU, "search-leaf", nil)
	// 192 requests at tuned batch 8 → ≥ 24 batches.
	if res.Batches < 24 {
		t.Fatalf("search-leaf should default to batch 8, got %d batches", res.Batches)
	}
}

func TestNaivePolicyLowersEfficiency(t *testing.T) {
	opt := run(t, ArchRPU, "memc", nil)
	naive := run(t, ArchRPU, "memc", func(o *Options) { o.Policy = batch.Naive })
	if naive.SIMTEff >= opt.SIMTEff {
		t.Fatalf("naive eff %.2f >= optimized %.2f", naive.SIMTEff, opt.SIMTEff)
	}
}

func TestEfficiencyStudyOrdering(t *testing.T) {
	suite := uservices.NewSuite()
	rows, err := EfficiencyStudyParallel(suite, 320, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows", len(rows))
	}
	var nv, pa, pg float64
	for _, r := range rows {
		nv += r.Naive
		pa += r.PerAPI
		pg += r.PerArg
		if r.Naive <= 0 || r.PerArg > 1 {
			t.Fatalf("%s: efficiency out of range: %+v", r.Service, r)
		}
	}
	if !(nv <= pa+0.01 && pa <= pg+0.01) {
		t.Fatalf("policy ordering violated: naive %.3f, per-api %.3f, +arg %.3f", nv, pa, pg)
	}
	// Paper Figure 11 band: optimized average ≈ 0.9.
	if avg := pg / 15; avg < 0.8 || avg > 1.0 {
		t.Fatalf("optimized average efficiency %.2f outside band", avg)
	}
}

func TestMPKIStudyLeafTuning(t *testing.T) {
	suite := uservices.NewSuite()
	rows, err := MPKIStudyParallel(suite, 192, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Service == "search-leaf" || r.Service == "hdsearch-leaf" {
			if r.RPU[8] >= r.RPU[32] {
				t.Fatalf("%s: MPKI at batch 8 (%.1f) not below batch 32 (%.1f)",
					r.Service, r.RPU[8], r.RPU[32])
			}
		}
	}
}

func TestSensitivityStudyRuns(t *testing.T) {
	suite := uservices.NewSuite()
	var sb strings.Builder
	err := SensitivityStudyParallel(&sb, suite, []string{"memc", "uniqueid"}, 96, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"sub-batch", "atomics", "allocator", "majority", "MinSP-PC", "interleaving"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sensitivity output missing %q", want)
		}
	}
}

func TestFig5Table(t *testing.T) {
	rows := Fig5Scaling()
	if len(rows) < 4 {
		t.Fatal("too few generations")
	}
	prev := 0
	for _, r := range rows {
		if r.Threads < prev {
			t.Fatal("thread scaling not monotone")
		}
		prev = r.Threads
	}
	// Paper: DDR5 era ~256+, DDR6/HBM ~512+.
	if rows[2].Threads < 250 || rows[3].Threads < 500 {
		t.Fatalf("scaling points %v", rows)
	}
}

func TestChipStudyWritersProduceOutput(t *testing.T) {
	suite := uservices.NewSuite()
	rows, err := ChipStudyParallel(suite, 64, 42, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, wfn := range []func(io.Writer, []ChipRow){WriteFig10, WriteFig14, WriteFig19, WriteFig20, WriteFig21} {
		var sb strings.Builder
		wfn(&sb, rows)
		if !strings.Contains(sb.String(), "memc") {
			t.Fatal("figure writer missing service rows")
		}
	}
}

func TestConfigsMatchTableIV(t *testing.T) {
	cpu := PipelineConfig(ArchCPU)
	rpu := PipelineConfig(ArchRPU)
	if cpu.IALULat != 1 || rpu.IALULat != 4 {
		t.Fatal("ALU latencies not per Table IV")
	}
	if rpu.Lanes != 8 || cpu.Lanes != 1 {
		t.Fatal("lane counts not per Table IV")
	}
	if ArchCPU.Cores() != 98 || ArchRPU.Cores() != 20 || ArchSMT8.Cores() != 80 {
		t.Fatal("core counts not per Table IV")
	}
	if ArchCPU.ThreadsPerCore()*ArchCPU.Cores() != 98 ||
		ArchRPU.ThreadsPerCore()*ArchRPU.Cores() != 640 ||
		ArchSMT8.ThreadsPerCore()*ArchSMT8.Cores() != 640 {
		t.Fatal("total threads not per Table IV")
	}
	mc, mr := MemConfig(ArchCPU), MemConfig(ArchRPU)
	if mc.L1.SizeBytes != 64<<10 || mr.L1.SizeBytes != 256<<10 {
		t.Fatal("L1 sizes not per Table IV")
	}
	if mc.L1.LatCycles != 3 || mr.L1.LatCycles != 8 {
		t.Fatal("L1 latencies not per Table IV")
	}
	if !mr.AtomicsAtL3 || mc.AtomicsAtL3 {
		t.Fatal("atomics policy not per the paper")
	}
}

func TestIPDOMOptionMatchesMinSPPC(t *testing.T) {
	// Structured (reducible) programs: MinSP-PC reaches the IPDOM
	// reconvergence points exactly, so efficiencies agree.
	a := run(t, ArchRPU, "post-text", nil)
	b := run(t, ArchRPU, "post-text", func(o *Options) { o.UseIPDOM = true })
	if diff := a.SIMTEff - b.SIMTEff; diff > 0.02 || diff < -0.02 {
		t.Fatalf("MinSP-PC %.3f vs IPDOM %.3f", a.SIMTEff, b.SIMTEff)
	}
}

func TestISPCBetweenCPUAndRPU(t *testing.T) {
	suite := uservices.NewSuite()
	svc := suite.Get("mcrouter")
	reqs := svc.Generate(rand.New(rand.NewSource(42)), testReqs)
	cpu, err := RunService(ArchCPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rpu, err := RunService(ArchRPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	isp, err := RunISPC(svc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// §VI-A: SIMD-on-CPU improves on the scalar CPU but loses to the
	// RPU on both energy and latency.
	if isp.ReqPerJoule() <= cpu.ReqPerJoule() {
		t.Fatalf("ISPC req/J %.0f not above CPU %.0f", isp.ReqPerJoule(), cpu.ReqPerJoule())
	}
	if isp.ReqPerJoule() >= rpu.ReqPerJoule() {
		t.Fatalf("ISPC req/J %.0f should trail the RPU %.0f", isp.ReqPerJoule(), rpu.ReqPerJoule())
	}
	if isp.AvgLatencySec() <= rpu.AvgLatencySec() {
		t.Fatalf("ISPC latency should exceed the RPU's (gathers + scalar fallback)")
	}
	if isp.Stats.ScalarOps != cpu.Stats.ScalarOps {
		t.Fatal("ISPC scalar work differs from CPU")
	}
}

func TestGPGPUSuiteCoalesces(t *testing.T) {
	suite := uservices.NewGPGPUSuite()
	if len(suite.Services) != 3 {
		t.Fatalf("%d kernels", len(suite.Services))
	}
	svc := suite.Get("spmd-saxpy")
	reqs := svc.Generate(rand.New(rand.NewSource(1)), 128)
	cpu, err := RunService(ArchCPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rpu, err := RunService(ArchRPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rpu.SIMTEff < 0.99 {
		t.Fatalf("saxpy SIMT efficiency %.2f, want ~1.0", rpu.SIMTEff)
	}
	// Grid-interleaved loads must coalesce hard (consecutive lanes).
	if r := rpu.L1AccessesPerRequest() / cpu.L1AccessesPerRequest(); r > 0.3 {
		t.Fatalf("saxpy traffic ratio %.2f, want deep coalescing", r)
	}
	gpu, err := RunService(ArchGPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gpu.ReqPerJoule() <= rpu.ReqPerJoule() {
		t.Fatal("GPU should remain the SPMD efficiency winner (§VI-D)")
	}
}

func TestMultiProcessStudy(t *testing.T) {
	res, err := MultiProcessStudy(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	// §VI-B: separate address spaces destroy lock-step; aligning the
	// processes' text restores it to the threaded level.
	if res.SeparateEff > res.SharedEff/4 {
		t.Fatalf("separate processes eff %.2f, expected collapse vs shared %.2f",
			res.SeparateEff, res.SharedEff)
	}
	if res.AlignedEff < res.SharedEff*0.9 {
		t.Fatalf("aligned processes eff %.2f should recover to ~shared %.2f",
			res.AlignedEff, res.SharedEff)
	}
	if res.SharedEff < 0.6 {
		t.Fatalf("shared baseline eff %.2f suspiciously low", res.SharedEff)
	}
}

func TestMultiBatchStudy(t *testing.T) {
	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(11)), 64)
	res, err := MultiBatchStudy(svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SequentialCycles == 0 || res.InterleavedCycles == 0 {
		t.Fatal("zero cycles")
	}
	// Interleaving two batches through one window must not be slower
	// than a generous margin and typically overlaps stalls.
	if sp := res.Speedup(); sp < 0.8 {
		t.Fatalf("interleaving speedup %.2f", sp)
	}
}

func TestWriteJSON(t *testing.T) {
	suite := uservices.NewSuite()
	rows, err := ChipStudyParallel(suite, 32, 5, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteJSON(&sb, rows[:2]); err != nil {
		t.Fatal(err)
	}
	var decoded []ResultJSON
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != 6 { // 2 services × 3 architectures
		t.Fatalf("%d records", len(decoded))
	}
	for _, d := range decoded {
		if d.Service == "" || d.Arch == "" || d.ReqPerJoule <= 0 {
			t.Fatalf("bad record %+v", d)
		}
	}
}

// TestDeterminism guards reproducibility: identical seeds must yield
// bit-identical results across runs (the simulators use no global
// state, wall clock or map-iteration-order-dependent arithmetic).
func TestDeterminism(t *testing.T) {
	runOnce := func() (uint64, float64, float64) {
		suite := uservices.NewSuite()
		svc := suite.Get("memc")
		reqs := svc.Generate(rand.New(rand.NewSource(99)), 96)
		res, err := RunService(ArchRPU, svc, reqs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles, res.Energy.Total(), res.SIMTEff
	}
	c1, e1, f1 := runOnce()
	c2, e2, f2 := runOnce()
	if c1 != c2 || e1 != e2 || f1 != f2 {
		t.Fatalf("non-deterministic: (%d,%g,%g) vs (%d,%g,%g)", c1, e1, f1, c2, e2, f2)
	}
}

// TestSamplingDeterminism keeps the name of the sampled-simulation
// contract, which checked that a sampler timing every unit left the
// Result unchanged. With sampled timing deleted every run times every
// unit, and what stays of that contract is checked here for every
// service, reconvergence/spin variant and both multi-unit
// architectures: each of the 96 requests contributes one latency, and a
// second run is identical to the first, field for field.
func TestSamplingDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"base", func(o *Options) {}},
		{"ipdom", func(o *Options) { o.UseIPDOM = true }},
		{"tightspin", func(o *Options) { o.Spin = &simt.SpinConfig{Window: 4, MinAtomics: 1, Grant: 4} }},
	}
	const requests = 96
	for _, svc := range suite.Services {
		reqs := genRequests(svc, requests, 7)
		for _, arch := range []Arch{ArchRPU, ArchSMT8} {
			for _, v := range variants {
				if v.name != "base" && arch != ArchRPU {
					continue // reconvergence/spin options only shape RPU runs
				}
				t.Run(fmt.Sprintf("%s/%v/%s", svc.Name, arch, v.name), func(t *testing.T) {
					run := func() *Result {
						opts := DefaultOptions()
						opts.BatchSize = 8 // 12 units per run
						v.mutate(&opts)
						res, err := RunService(arch, svc, reqs, opts)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					first := run()
					if first.Requests != requests || first.Latency.Len() != requests {
						t.Fatalf("%d requests with %d latencies, want %d timed", first.Requests, first.Latency.Len(), requests)
					}
					if !reflect.DeepEqual(first, run()) {
						t.Fatal("a second run differs from the first")
					}
				})
			}
		}
	}
}

// TestPerServiceEfficiencyBands pins each service's optimized SIMT
// efficiency to a band around the measured full-scale value, so
// workload regressions surface immediately.
func TestPerServiceEfficiencyBands(t *testing.T) {
	bands := map[string][2]float64{
		"mcrouter":         {0.90, 1.0},
		"memc-backend":     {0.80, 1.0},
		"memc":             {0.85, 1.0},
		"search-mid":       {0.85, 1.0},
		"search-leaf":      {0.70, 1.0},
		"hdsearch-mid":     {0.85, 1.0},
		"hdsearch-leaf":    {0.70, 1.0},
		"recommender-mid":  {0.85, 1.0},
		"recommender-leaf": {0.90, 1.0},
		"post":             {0.80, 1.0},
		"post-text":        {0.65, 1.0},
		"urlshort":         {0.95, 1.0},
		"uniqueid":         {0.98, 1.0},
		"usertag":          {0.80, 1.0},
		"user":             {0.80, 1.0},
	}
	suite := uservices.NewSuite()
	rows, err := EfficiencyStudyParallel(suite, 640, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		band := bands[r.Service]
		if r.PerArg < band[0] || r.PerArg > band[1] {
			t.Errorf("%s optimized efficiency %.3f outside band [%.2f, %.2f]",
				r.Service, r.PerArg, band[0], band[1])
		}
	}
}

// TestPrepLookaheadOutOfRange: the deprecated Options.PrepLookahead is
// ignored. Any value — negative, zero, or far past any run's unit
// count — gives every architecture the Result of the default options,
// field for field.
func TestPrepLookaheadOutOfRange(t *testing.T) {
	svc := uservices.NewSuite().Get("memc")
	reqs := genRequests(svc, 64, 7)
	for _, arch := range []Arch{ArchCPU, ArchSMT8, ArchRPU} {
		want, err := RunService(arch, svc, reqs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, la := range []int{-1, 0, 1, 4, math.MaxInt32, 1 << 30} {
			opts := DefaultOptions()
			opts.PrepLookahead = la
			got, err := RunService(arch, svc, reqs, opts)
			if err != nil {
				t.Fatalf("%v PrepLookahead %d: %v", arch, la, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%v PrepLookahead %d: differs from the default options' result", arch, la)
			}
		}
	}
}

// TestRunBatchedVariants: timing variants prepared once — RPU variants
// of the timing knobs, and RPU and GPU variants together — match the
// same options run one RunService call each, and a variant that differs
// from the first only in the ignored PrepLookahead times exactly like
// it. A variant that differs from the first in any field that shapes
// preparation, runs on a
// scalar architecture or on another L1 line size or bank count is an
// error naming what differs, not a panic or a silently wrong stream.
func TestRunBatchedVariants(t *testing.T) {
	svc := uservices.NewSuite().Get("memc")
	reqs := genRequests(svc, 48, 5)
	base := DefaultOptions()
	timing := []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.Lanes = 8 },
		func(o *Options) { o.MajorityVote = false },
		func(o *Options) { o.AtomicsAtL3 = false },
	}
	variants := make([]Options, len(timing))
	for v, mut := range timing {
		variants[v] = base
		mut(&variants[v])
	}
	rpus := func(n int) []Arch {
		a := make([]Arch, n)
		for i := range a {
			a[i] = ArchRPU
		}
		return a
	}
	got, err := runBatched(svc, reqs, rpus(len(variants)), variants, &workSet{}, &sysList{})
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range variants {
		want, err := RunService(ArchRPU, svc, reqs, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[v], want) {
			t.Fatalf("variant %d prepared once differs from its own RunService run", v)
		}
	}

	spin := *base.Spin
	spin.Grant++
	prep := []struct {
		name, field string
		mutate      func(*Options)
	}{
		{"BatchSize", "BatchSize", func(o *Options) { o.BatchSize = 8 }},
		{"Policy", "Policy", func(o *Options) { o.Policy = batch.Naive }},
		{"AllocPolicy", "AllocPolicy", func(o *Options) { o.AllocPolicy = alloc.PolicyCPU }},
		{"StackInterleave", "StackInterleave", func(o *Options) { o.StackInterleave = false }},
		{"UseIPDOM", "UseIPDOM", func(o *Options) { o.UseIPDOM = true }},
		{"Spin", "Spin", func(o *Options) { o.Spin = &spin }},
		{"Spin nil", "Spin", func(o *Options) { o.Spin = nil }},
		{"Traces", "Traces", func(o *Options) { o.Traces = trace.NewCache(svc, trace.NewBudget(0)) }},
		{"BatchStreams", "BatchStreams", func(o *Options) { o.BatchStreams = trace.NewBatchCache(trace.NewBudget(0)) }},
	}
	for _, c := range prep {
		t.Run(c.name, func(t *testing.T) {
			bad := base
			c.mutate(&bad)
			res, err := runBatched(svc, reqs, rpus(3), []Options{base, variants[1], bad}, nil, nil)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("got %v, %v; want an error naming %s", res, err, c.field)
			}
		})
	}
	// PrepLookahead is ignored, so a variant that differs from the base
	// only there shares its preparation and times exactly like it.
	t.Run("PrepLookahead", func(t *testing.T) {
		other := base
		other.PrepLookahead = 3
		res, err := runBatched(svc, reqs, rpus(2), []Options{base, other}, nil, nil)
		if err != nil {
			t.Fatalf("variant differing only in PrepLookahead rejected: %v", err)
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatal("variant differing only in PrepLookahead differs from the base")
		}
	})
	// An equal Spin behind another pointer prepares the same stream.
	same := base
	spinCopy := *base.Spin
	same.Spin = &spinCopy
	if _, err := runBatched(svc, reqs, rpus(2), []Options{base, same}, nil, nil); err != nil {
		t.Fatalf("equal Spin at another address rejected: %v", err)
	}
	if _, err := runBatched(svc, reqs, nil, nil, nil, nil); err == nil {
		t.Fatal("an empty variant list ran")
	}

	// RPU and GPU share one preparation: both columns equal their own
	// RunService runs.
	mixed := []Arch{ArchRPU, ArchGPU, ArchRPU}
	mixedOpts := []Options{base, base, variants[1]}
	got, err = runBatched(svc, reqs, mixed, mixedOpts, &workSet{}, &sysList{})
	if err != nil {
		t.Fatalf("RPU+GPU variants rejected: %v", err)
	}
	for v, a := range mixed {
		want, err := RunService(a, svc, reqs, mixedOpts[v])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[v], want) {
			t.Fatalf("%v variant %d prepared once differs from its own RunService run", a, v)
		}
	}

	// Scalar architectures, an architecture list that does not pair
	// with the options, and another L1 geometry are errors.
	for _, c := range []struct {
		name, want string
		arches     []Arch
		l1         func(*mem.CacheConfig)
	}{
		{"CPU", "cpu", []Arch{ArchRPU, ArchCPU}, nil},
		{"SMT-8", "cpu-smt8", []Arch{ArchSMT8, ArchRPU}, nil},
		{"length", "architectures", []Arch{ArchRPU}, nil},
		{"LineBytes", "LineBytes", []Arch{ArchRPU, ArchGPU}, func(l1 *mem.CacheConfig) { l1.LineBytes = 64 }},
		{"Banks", "Banks", []Arch{ArchRPU, ArchGPU}, func(l1 *mem.CacheConfig) { l1.Banks = 4 }},
	} {
		t.Run("arch "+c.name, func(t *testing.T) {
			if c.l1 != nil {
				memConfig = func(a Arch) mem.SysConfig {
					cfg := MemConfig(a)
					if a == ArchGPU {
						c.l1(&cfg.L1)
					}
					return cfg
				}
				defer func() { memConfig = MemConfig }()
			}
			res, err := runBatched(svc, reqs, c.arches, []Options{base, base}, nil, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, %v; want an error naming %s", res, err, c.want)
			}
		})
	}
}
