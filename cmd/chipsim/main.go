// Command chipsim runs the chip-level CPU vs CPU-SMT8 vs RPU (vs GPU)
// comparison and prints the paper's evaluation artifacts:
//
//	-fig 10   CPU dynamic energy breakdown per pipeline stage
//	-fig 14   RPU L1 accesses normalized to the CPU
//	-fig 15   L1 MPKI, CPU vs RPU at batch sizes 32/16/8/4
//	-fig 19   energy efficiency (requests/joule) relative to the CPU
//	-fig 20   service latency relative to the CPU
//	-fig 21   latency-component metrics
//	-table 4  simulated configurations (Table IV)
//	-table 5  per-component area and peak power (Table V)
//	-table 6  GPU vs RPU terminology (Table VI)
//	-table 7  SIMR vs previous SIMT work (Table VII)
//	-sensitivity   §V-A1 ablations
//	-timing   RPU timing-knob sweep (lanes x vote x atomics placement)
//
// With no selector, all figures are printed. An unknown -fig or -table
// is an error, reported before anything runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"simr/internal/cli"
	"simr/internal/core"
	"simr/internal/energy"
	"simr/internal/uservices"
)

func main() {
	requests := flag.Int("requests", core.DefaultRequests, "requests per service (paper: 2400)")
	seed := flag.Int64("seed", 42, "workload random seed")
	fig := flag.Int("fig", 0, "print a single figure (10, 14, 15, 19, 20, 21)")
	table := flag.Int("table", 0, "print a table (4, 5, 6 or 7)")
	sensitivity := flag.Bool("sensitivity", false, "run the sensitivity ablations")
	ispc := flag.Bool("ispc", false, "run the §VI-A SPMD-on-SIMD (ISPC) comparison")
	multiproc := flag.Bool("multiprocess", false, "run the §VI-B multi-process divergence study")
	multibatch := flag.Bool("multibatch", false, "run the §III-A multi-batch interleaving study")
	timing := flag.Bool("timing", false, "run the RPU timing-knob sweep (lanes x vote x atomics placement)")
	sensServices := flag.String("services", "", "comma-separated service subset for -sensitivity")
	gpu := flag.Bool("gpu", true, "include the GPU design point")
	jsonOut := flag.Bool("json", false, "emit the chip study as JSON instead of tables")
	parallel := flag.Int("parallel", 0, "worker goroutines for the study sweeps (0 = one per CPU, 1 = sequential)")
	cf := cli.Register(flag.CommandLine, cli.Profile|cli.Metrics|cli.Cache|cli.Interrupt)
	flag.Parse()
	if err := checkSelectors(*fig, *table); err != nil {
		log.Fatal(err)
	}
	_, stop, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	suite := uservices.NewSuite()

	if *table == 4 {
		printTable4()
		return
	}
	if *table == 5 {
		fmt.Println("Table V: per-component area and peak power (7 nm, McPAT-derived)")
		energy.WriteTableV(os.Stdout)
		return
	}
	if *table == 6 {
		printTable6()
		return
	}
	if *table == 7 {
		printTable7()
		return
	}
	if *ispc {
		runISPC(suite, *requests, *seed)
		return
	}
	if *multiproc {
		res, err := core.MultiProcessStudy(32, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("§VI-B: multi-threaded vs multi-process SIMT efficiency (batch 32)")
		fmt.Printf("  shared address space (threads):   %5.1f%%\n", 100*res.SharedEff)
		fmt.Printf("  separate processes (ASLR bases):  %5.1f%%\n", 100*res.SeparateEff)
		fmt.Printf("  processes aligned to one base:    %5.1f%%\n", 100*res.AlignedEff)
		fmt.Println("(paper §VI-B: separate address spaces cause control-flow divergence;")
		fmt.Println(" user-orchestrated sharing and VM changes can mitigate it)")
		return
	}
	if *multibatch {
		fmt.Println("§III-A: coarse-grain multi-batch interleaving headroom (2 batches/core)")
		fmt.Printf("%-18s %12s %12s %10s\n", "service", "sequential", "interleaved", "speedup")
		rows, err := core.MultiBatchSweep(suite, *seed, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range rows {
			fmt.Printf("%-18s %12d %12d %9.2fx\n", row.Service,
				row.Res.SequentialCycles, row.Res.InterleavedCycles, row.Res.Speedup())
		}
		fmt.Println("(the paper defers multi-batch scheduling to future work; this bounds its benefit)")
		return
	}
	if *timing {
		fmt.Println("RPU timing-knob sweep: lanes {8,32} x majority vote x atomics placement")
		fmt.Println("(timing knobs share prepared batch streams; see EXPERIMENTS.md, batch-stream caching)")
		rows, err := core.TimingSweepParallel(suite, *requests, *seed, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		core.WriteTimingSweep(os.Stdout, rows)
		return
	}
	if *sensitivity {
		var subset []string
		if *sensServices != "" {
			subset = strings.Split(*sensServices, ",")
		}
		if err := core.SensitivityStudyParallel(os.Stdout, suite, subset, *requests, *seed, *parallel); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *fig == 15 {
		rows, err := core.MPKIStudyParallel(suite, *requests, *seed, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 15: L1 MPKI, CPU (64KB) vs RPU (256KB) by batch size")
		core.WriteFig15(os.Stdout, rows)
		return
	}

	rows, err := core.ChipStudyParallel(suite, *requests, *seed, *gpu, *parallel)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		if err := core.WriteJSON(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		return
	}
	show := func(n int) bool { return *fig == 0 || *fig == n }
	if show(10) {
		fmt.Println("Figure 10: CPU dynamic energy breakdown per pipeline stage")
		core.WriteFig10(os.Stdout, rows)
		fmt.Println()
	}
	if show(14) {
		fmt.Println("Figure 14: RPU L1 accesses normalized to CPU (640 threads each)")
		core.WriteFig14(os.Stdout, rows)
		fmt.Println()
	}
	if show(19) {
		fmt.Println("Figure 19: energy efficiency (requests/joule) relative to CPU")
		core.WriteFig19(os.Stdout, rows)
		fmt.Println()
	}
	if show(20) {
		fmt.Println("Figure 20: service latency relative to CPU")
		core.WriteFig20(os.Stdout, rows)
		fmt.Println()
	}
	if show(21) {
		fmt.Println("Figure 21: latency-component metrics (RPU relative to CPU)")
		core.WriteFig21(os.Stdout, rows)
	}
}

// checkSelectors rejects a -fig or -table value that names nothing
// chipsim prints (0 selects no single figure or table).
func checkSelectors(fig, table int) error {
	switch fig {
	case 0, 10, 14, 15, 19, 20, 21:
	default:
		return fmt.Errorf("unknown -fig %d (want 10, 14, 15, 19, 20 or 21)", fig)
	}
	switch table {
	case 0, 4, 5, 6, 7:
	default:
		return fmt.Errorf("unknown -table %d (want 4, 5, 6 or 7)", table)
	}
	return nil
}

// runISPC prints the §VI-A study: one request per AVX lane on the CPU
// vs the dedicated RPU, over the same requests.
func runISPC(suite *uservices.Suite, requests int, seed int64) {
	if requests < 1 {
		log.Fatalf("requests per service must be at least 1, got %d", requests)
	}
	fmt.Println("§VI-A: SPMD-on-SIMD (ISPC-style, 8 AVX lanes) vs RPU, relative to scalar CPU")
	fmt.Printf("%-18s %12s %12s %12s %12s %10s\n",
		"service", "ispc req/J", "ispc lat", "rpu req/J", "rpu lat", "ispc eff")
	for _, svc := range suite.Services {
		r := rand.New(rand.NewSource(seed))
		reqs := svc.Generate(r, requests)
		cpu, err := core.RunService(core.ArchCPU, svc, reqs, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		rpu, err := core.RunService(core.ArchRPU, svc, reqs, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		isp, err := core.RunISPC(svc, reqs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %11.2fx %11.2fx %11.2fx %11.2fx %9.0f%%\n",
			svc.Name,
			isp.ReqPerJoule()/cpu.ReqPerJoule(), isp.AvgLatencySec()/cpu.AvgLatencySec(),
			rpu.ReqPerJoule()/cpu.ReqPerJoule(), rpu.AvgLatencySec()/cpu.AvgLatencySec(),
			100*isp.SIMTEff)
	}
	fmt.Println("(paper §VI-A: SIMD-on-CPU loses to the RPU on gathers, scalar fallback and predication)")
}

// printTable6 reproduces the GPU vs RPU terminology mapping.
func printTable6() {
	fmt.Println("Table VI: GPU vs RPU terminology")
	rows := [][2]string{
		{"Grid/Thread Block (1/2/3-dim)", "SW Batch (1-dim)"},
		{"Warp", "HW Batch"},
		{"Thread", "Thread/Request"},
		{"Kernel", "Service"},
		{"GPU Core / Streaming MultiProcessor", "RPU Core / Streaming MultiRequest"},
		{"SIMT", "SIMR"},
		{"CUDA Core", "Execution Lane"},
	}
	fmt.Printf("%-38s %s\n", "GPU", "RPU")
	for _, r := range rows {
		fmt.Printf("%-38s %s\n", r[0], r[1])
	}
}

// printTable7 reproduces the conceptual comparison with prior SIMT work.
func printTable7() {
	fmt.Println("Table VII: SIMR vs previous SIMT work")
	type row struct{ name, ooo, cpuISA, grain, sw string }
	rows := []row{
		{"GPUs", "no", "no", "fine", "data-parallel"},
		{"Vector-Thread (VT)", "no", "no", "fine", "data-parallel"},
		{"GPU+OoO", "yes", "no", "fine", "data-parallel"},
		{"Simty", "no", "yes", "fine", "data-parallel"},
		{"Vortex", "no", "yes", "fine", "data-parallel"},
		{"DITVA", "no", "yes", "fine", "data-parallel"},
		{"MSPS", "yes", "yes", "n/a", "web server"},
		{"SIMT-X", "yes", "yes", "fine", "data-parallel"},
		{"SIMR (this work)", "yes", "yes", "coarse", "data- & request-parallel microservices"},
	}
	fmt.Printf("%-20s %-5s %-8s %-7s %s\n", "design", "OoO", "CPU ISA", "grain", "workloads")
	for _, r := range rows {
		fmt.Printf("%-20s %-5s %-8s %-7s %s\n", r.name, r.ooo, r.cpuISA, r.grain, r.sw)
	}
}

func printTable4() {
	fmt.Println("Table IV: CPU vs CPU-SMT8 vs RPU simulated configuration")
	type row struct{ metric, cpu, smt, rpu string }
	rows := []row{
		{"core", "8-wide OoO", "8-wide OoO", "8-wide OoO"},
		{"ROB", "256", "256 (32/thread)", "256"},
		{"freq", "2.5 GHz", "2.5 GHz", "2.5 GHz"},
		{"cores", "98", "80", "20"},
		{"threads/core", "1", "SMT-8", "SIMT-32 (1 batch)"},
		{"total threads", "98", "640", "640"},
		{"lanes", "1", "1", "8"},
		{"max IPC/core", "8", "8", "64 (issue x lanes)"},
		{"ALU/branch latency", "1 cycle", "1 cycle", "4 cycles"},
		{"redirect penalty", "12", "12", "16"},
		{"L1D", "64KB 8w 3cyc 1bank", "64KB 8w 3cyc 8bank", "256KB 8w 8cyc 8bank"},
		{"L1 TLB", "48-entry", "64-entry", "256-entry 8-bank"},
		{"L2", "512KB 12cyc", "512KB 12cyc", "2MB 20cyc 2-bank"},
		{"L3", "32MB shared", "32MB shared", "32MB shared"},
		{"interconnect", "9x9 mesh", "11x11 mesh", "20x20 crossbar"},
		{"atomics", "in L1 (idealistic)", "in L1", "at shared L3"},
	}
	fmt.Printf("%-20s %-20s %-20s %-22s\n", "metric", "cpu", "cpu-smt8", "rpu")
	for _, r := range rows {
		fmt.Printf("%-20s %-20s %-20s %-22s\n", r.metric, r.cpu, r.smt, r.rpu)
	}
}
