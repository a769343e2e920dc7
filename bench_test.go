// Benchmarks regenerating every table and figure of the paper's
// evaluation at reduced request counts (use the cmd/ tools for
// full-scale runs). Custom metrics report the headline quantity of
// each figure so `go test -bench .` doubles as a results summary:
//
//	Fig 4/11  SIMT efficiency per batching policy
//	Fig 5     thread scaling (analytic)
//	Fig 10    CPU frontend+OoO dynamic energy share
//	Fig 14    RPU/CPU L1 traffic ratio
//	Fig 15    L1 MPKI by batch size
//	Fig 19    requests/joule vs CPU
//	Fig 20    service latency vs CPU
//	Fig 21    memory-latency and issued-instruction ratios
//	Fig 22    end-to-end saturation throughput
//	Tab V     area/power model
package simr

import (
	"io"
	"math/rand"
	"testing"

	"simr/internal/core"
	"simr/internal/energy"
	"simr/internal/queuesim"
	"simr/internal/stats"
	"simr/internal/uservices"
)

// benchRequests keeps benchmark iterations tractable; the cmd tools
// default to the paper's 2400.
const benchRequests = 320

func benchSuite(b *testing.B) *uservices.Suite {
	b.Helper()
	return uservices.NewSuite()
}

func BenchmarkFig04NaiveSIMTEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := benchSuite(b)
		rows, err := core.EfficiencyStudyParallel(suite, benchRequests, 42, 1)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.Naive
		}
		b.ReportMetric(100*sum/float64(len(rows)), "naive-eff-%")
	}
}

func BenchmarkFig05ThreadScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.Fig5Scaling()
		b.ReportMetric(float64(rows[len(rows)-1].Threads), "threads@HBM")
	}
}

func BenchmarkFig11BatchingPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := benchSuite(b)
		rows, err := core.EfficiencyStudyParallel(suite, benchRequests, 42, 1)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.PerArg
		}
		b.ReportMetric(100*sum/float64(len(rows)), "optimized-eff-%")
	}
}

func chipRows(b *testing.B, withGPU bool) []core.ChipRow {
	b.Helper()
	suite := benchSuite(b)
	rows, err := core.ChipStudyParallel(suite, benchRequests, 42, withGPU, 1)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func BenchmarkFig10EnergyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := chipRows(b, false)
		sum := 0.0
		for _, r := range rows {
			sum += r.CPU.Energy.FrontendOoO / r.CPU.Energy.Dynamic()
		}
		b.ReportMetric(100*sum/float64(len(rows)), "fe+ooo-%")
	}
}

func BenchmarkFig14L1Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := chipRows(b, false)
		sum := 0.0
		for _, r := range rows {
			sum += r.RPU.L1AccessesPerRequest() / r.CPU.L1AccessesPerRequest()
		}
		b.ReportMetric(sum/float64(len(rows)), "rpu/cpu-L1x")
	}
}

func BenchmarkFig15MPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := benchSuite(b)
		rows, err := core.MPKIStudyParallel(suite, benchRequests, 42, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Report the data-intensive-leaf improvement from batch tuning.
		for _, r := range rows {
			if r.Service == "search-leaf" {
				b.ReportMetric(r.RPU[32]/r.RPU[8], "leafMPKI-b32/b8")
			}
		}
	}
}

func BenchmarkFig19EnergyEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := chipRows(b, false)
		var rp []float64
		for _, r := range rows {
			rp = append(rp, r.RPU.ReqPerJoule()/r.CPU.ReqPerJoule())
		}
		b.ReportMetric(stats.GeoMean(rp), "rpu-req/J-x")
	}
}

func BenchmarkFig20ServiceLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := chipRows(b, false)
		sum := 0.0
		for _, r := range rows {
			sum += r.RPU.AvgLatencySec() / r.CPU.AvgLatencySec()
		}
		b.ReportMetric(sum/float64(len(rows)), "rpu-latency-x")
	}
}

func BenchmarkFig21LatencyComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := chipRows(b, false)
		lat, instr := 0.0, 0.0
		for _, r := range rows {
			lat += stats.Ratio(r.RPU.Stats.AvgLoadLatency(), r.CPU.Stats.AvgLoadLatency())
			instr += stats.Ratio(float64(r.RPU.Stats.Uops), float64(r.CPU.Stats.Uops))
		}
		n := float64(len(rows))
		b.ReportMetric(lat/n, "memlat-x")
		b.ReportMetric(instr/n, "frontend-ops-x")
	}
}

func BenchmarkFig22EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		knee := func(rpu, split bool) float64 {
			last := 0.0
			for _, q := range []float64{10000, 15000, 20000, 30000, 40000, 50000, 60000} {
				cfg := queuesim.DefaultConfig()
				cfg.QPS = q
				cfg.Seconds = 2
				cfg.RPU, cfg.Split = rpu, split
				m, err := queuesim.RunTail(queuesim.TailConfig{Config: cfg, Scale: 1})
				if err != nil {
					b.Fatal(err)
				}
				if m.UserUtil > 0.99 {
					break
				}
				last = q
			}
			return last
		}
		cpu := knee(false, false)
		rpu := knee(true, true)
		b.ReportMetric(cpu/1000, "cpu-kQPS")
		b.ReportMetric(rpu/1000, "rpu-split-kQPS")
		b.ReportMetric(rpu/cpu, "throughput-x")
	}
}

func BenchmarkTab05AreaPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		energy.WriteTableV(io.Discard)
		ca, ra, cw, rw := energy.CoreTotals()
		b.ReportMetric(ra/ca, "rpu-core-area-x")
		b.ReportMetric(rw/cw, "rpu-core-power-x")
	}
}

// Sensitivity ablations (paper §V-A1), each on a representative subset.

func sensPair(b *testing.B, svcName string, mutate func(*core.Options)) (*core.Result, *core.Result) {
	b.Helper()
	suite := benchSuite(b)
	svc := suite.Get(svcName)
	reqs := svc.Generate(rand.New(rand.NewSource(42)), benchRequests)
	base, err := core.RunService(core.ArchRPU, svc, reqs, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	mutate(&opts)
	variant, err := core.RunService(core.ArchRPU, svc, reqs, opts)
	if err != nil {
		b.Fatal(err)
	}
	return base, variant
}

func BenchmarkSensitivitySubBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, wide := sensPair(b, "uniqueid", func(o *core.Options) { o.Lanes = 32 })
		b.ReportMetric(100*(base.Latency.Mean()/wide.Latency.Mean()-1), "loss-at-8-lanes-%")
	}
}

func BenchmarkSensitivityAtomicsAtL3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, l1 := sensPair(b, "urlshort", func(o *core.Options) { o.AtomicsAtL3 = false })
		b.ReportMetric(100*(base.Latency.Mean()/l1.Latency.Mean()-1), "slowdown-%")
	}
}

func BenchmarkSensitivityAllocator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, cpuAlloc := sensPair(b, "hdsearch-leaf", func(o *core.Options) { o.AllocPolicy = 0 })
		b.ReportMetric(stats.Ratio(float64(cpuAlloc.Stats.Mem.L1.BankConflicts),
			float64(base.Stats.Mem.L1.BankConflicts)), "conflicts-x")
	}
}

func BenchmarkSensitivityMajorityVote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, lane0 := sensPair(b, "memc", func(o *core.Options) { o.MajorityVote = false })
		b.ReportMetric(stats.Ratio(float64(lane0.Stats.Mispredicts+lane0.Stats.FlushedLanes),
			float64(base.Stats.Mispredicts+base.Stats.FlushedLanes)), "flushes-x")
	}
}

func BenchmarkSensitivityReconvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, ipdom := sensPair(b, "post-text", func(o *core.Options) { o.UseIPDOM = true })
		b.ReportMetric(100*base.SIMTEff, "minsppc-eff-%")
		b.ReportMetric(100*ipdom.SIMTEff, "ipdom-eff-%")
	}
}

// BenchmarkISPCComparison runs the §VI-A SPMD-on-SIMD alternative on a
// representative service.
func BenchmarkISPCComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := benchSuite(b)
		svc := suite.Get("mcrouter")
		reqs := svc.Generate(rand.New(rand.NewSource(42)), benchRequests)
		cpu, err := core.RunService(core.ArchCPU, svc, reqs, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		isp, err := core.RunISPC(svc, reqs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(isp.ReqPerJoule()/cpu.ReqPerJoule(), "ispc-req/J-x")
	}
}

// BenchmarkGPGPUOnRPU runs the §VI-D SPMD kernel study.
func BenchmarkGPGPUOnRPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := uservices.NewGPGPUSuite()
		svc := suite.Get("spmd-saxpy")
		reqs := svc.Generate(rand.New(rand.NewSource(3)), benchRequests)
		cpu, err := core.RunService(core.ArchCPU, svc, reqs, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rpu, err := core.RunService(core.ArchRPU, svc, reqs, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rpu.ReqPerJoule()/cpu.ReqPerJoule(), "rpu-req/J-x")
		b.ReportMetric(100*rpu.SIMTEff, "simt-eff-%")
	}
}
