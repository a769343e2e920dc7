package simr_test

import (
	"fmt"
	"math/rand"

	"simr"
)

// Run one batch of memcached GET requests through the RPU and compare
// it with the single-threaded CPU: the smallest end-to-end use of the
// library.
func ExampleRunService() {
	svc := simr.NewSuite().Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(7)), 256)

	opts := simr.DefaultOptions()
	cpu, err := simr.RunService(simr.ArchCPU, svc, reqs, opts)
	if err != nil {
		panic(err)
	}
	rpu, err := simr.RunService(simr.ArchRPU, svc, reqs, opts)
	if err != nil {
		panic(err)
	}

	fmt.Printf("service: %s (%d requests)\n", svc.Name, len(reqs))
	fmt.Printf("%-22s %12s %12s\n", "", "cpu", "rpu")
	fmt.Printf("%-22s %12.2f %12.2f\n", "avg latency (us)",
		cpu.AvgLatencySec()*1e6, rpu.AvgLatencySec()*1e6)
	fmt.Printf("%-22s %12.0f %12.0f\n", "requests/joule",
		cpu.ReqPerJoule(), rpu.ReqPerJoule())
	fmt.Printf("%-22s %12s %12.1f%%\n", "SIMT efficiency", "-", 100*rpu.SIMTEff)
	fmt.Printf("%-22s %12.0f %12.0f\n", "L1 accesses/request",
		cpu.L1AccessesPerRequest(), rpu.L1AccessesPerRequest())
	fmt.Printf("RPU: %.2fx requests/joule at %.2fx service latency\n",
		rpu.ReqPerJoule()/cpu.ReqPerJoule(),
		rpu.AvgLatencySec()/cpu.AvgLatencySec())
	// Output:
	// service: memc (256 requests)
	//                                 cpu          rpu
	// avg latency (us)               0.31         0.52
	// requests/joule              2870428      8922705
	// SIMT efficiency                   -         81.2%
	// L1 accesses/request              56           23
	// RPU: 3.11x requests/joule at 1.71x service latency
}

// Explore the §III-B3 batch-size tuning space of a data-intensive
// leaf: latency, energy efficiency, SIMT efficiency and L1 MPKI as the
// batch shrinks from 32 to 4, relative to the CPU. The L1 misses of
// large batches are why the paper throttles such leaves to batch 8.
func ExampleBatchSweep() {
	svc := simr.NewSuite().Get("search-leaf")
	reqs := svc.Generate(rand.New(rand.NewSource(42)), 128)

	cpu, rows, err := simr.BatchSweep(svc, reqs, []int{32, 16, 8, 4}, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("service %s: tuned batch size %d (data-intensive: %v)\n",
		svc.Name, svc.TunedBatch, svc.DataIntensive)
	fmt.Printf("%-10s %12s %12s %10s %10s\n", "batch", "latency", "req/J", "simt eff", "L1 MPKI")
	fmt.Printf("%-10s %11.2fx %11.2fx %10s %10.2f\n", "cpu", 1.0, 1.0, "-", cpu.L1MPKI())
	for _, row := range rows {
		rpu := row.Res
		fmt.Printf("rpu-%-6d %11.2fx %11.2fx %9.0f%% %10.2f\n", row.Size,
			rpu.AvgLatencySec()/cpu.AvgLatencySec(), rpu.ReqPerJoule()/cpu.ReqPerJoule(),
			100*rpu.SIMTEff, rpu.L1MPKI())
	}
	// Output:
	// service search-leaf: tuned batch size 8 (data-intensive: true)
	// batch           latency        req/J   simt eff    L1 MPKI
	// cpu               1.00x        1.00x          -      67.73
	// rpu-32            3.03x        1.82x        68%     158.35
	// rpu-16            2.03x        1.88x        74%     140.12
	// rpu-8             1.83x        1.90x        81%      94.70
	// rpu-4             1.94x        1.48x        88%      66.64
}

// A compact Figure 22 sweep: p99 and average end-to-end latency of the
// CPU system and of the RPU system without and with batch splitting,
// from the system-level queueing simulator. At 30 kQPS the CPU system
// saturates while both RPU systems hold their latency.
func ExampleRunSystem() {
	modes := []struct {
		name       string
		rpu, split bool
	}{{"cpu", false, false}, {"rpu w/o split", true, false}, {"rpu w/ split", true, true}}

	fmt.Printf("%-5s %-14s %8s %8s\n", "kQPS", "system", "p99(ms)", "avg(ms)")
	for _, qps := range []float64{10000, 30000} {
		for _, m := range modes {
			cfg := simr.DefaultSystemConfig()
			cfg.QPS, cfg.Seconds, cfg.Warmup = qps, 0.5, 0.125
			cfg.RPU, cfg.Split = m.rpu, m.split
			res := simr.RunSystem(cfg)
			saturated := ""
			if res.UserUtil > 0.995 {
				saturated = " (saturated)"
			}
			fmt.Printf("%-5.0f %-14s %8.1f %8.1f%s\n", qps/1000, m.name,
				res.Latency.Percentile(99), res.Latency.Mean(), saturated)
		}
	}
	// Output:
	// kQPS  system          p99(ms)  avg(ms)
	// 10    cpu                 4.2      3.0
	// 10    rpu w/o split       5.8      4.7
	// 10    rpu w/ split        5.5      4.1
	// 30    cpu               464.8    379.2 (saturated)
	// 30    rpu w/o split       5.8      4.9
	// 30    rpu w/ split        5.5      4.0
}
