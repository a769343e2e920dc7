// Command chipsim runs the chip-level CPU vs CPU-SMT8 vs RPU (vs GPU)
// comparison and prints the paper's evaluation artifacts:
//
//	-fig 4    SIMT control efficiency of naive batching
//	-fig 5    off-chip DRAM bandwidth and thread scaling (analytic)
//	-fig 10   CPU dynamic energy breakdown per pipeline stage
//	-fig 11   SIMT control efficiency per batching policy
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
//	-ispc     §VI-A SPMD-on-SIMD (ISPC) comparison
//	-multiprocess  §VI-B multi-process divergence study
//	-multibatch    §III-A multi-batch interleaving study
//	-timing   RPU timing-knob sweep (lanes x vote x atomics placement)
//	-gpgpu    §VI-D data-parallel SPMD kernels on CPU vs RPU vs GPU
//
// With no selector, Figures 10, 14, 19, 20 and 21 are printed from one
// chip study. At most one selector may be given, and a selection that
// names nothing or would ignore one of its flags is an error, reported
// before anything runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"slices"
	"strings"

	"simr/internal/cli"
	"simr/internal/core"
	"simr/internal/energy"
	"simr/internal/uservices"
)

func main() {
	var s selectors
	flag.IntVar(&s.requests, "requests", core.DefaultRequests, "requests per service (paper: 2400)")
	seed := flag.Int64("seed", 42, "workload random seed")
	flag.IntVar(&s.fig, "fig", 0, "print a single figure (4, 5, 10, 11, 14, 15, 19, 20, 21)")
	flag.IntVar(&s.table, "table", 0, "print a table (4, 5, 6 or 7)")
	flag.BoolVar(&s.sensitivity, "sensitivity", false, "run the sensitivity ablations")
	flag.BoolVar(&s.ispc, "ispc", false, "run the §VI-A SPMD-on-SIMD (ISPC) comparison")
	flag.BoolVar(&s.multiprocess, "multiprocess", false, "run the §VI-B multi-process divergence study")
	flag.BoolVar(&s.multibatch, "multibatch", false, "run the §III-A multi-batch interleaving study")
	flag.BoolVar(&s.timing, "timing", false, "run the RPU timing-knob sweep (lanes x vote x atomics placement)")
	flag.BoolVar(&s.gpgpu, "gpgpu", false, "run the §VI-D SPMD-kernel study on CPU, RPU and GPU")
	flag.StringVar(&s.services, "services", "", "comma-separated service subset for -sensitivity")
	gpu := flag.Bool("gpu", true, "include the GPU design point")
	flag.BoolVar(&s.json, "json", false, "emit the chip study as JSON instead of tables")
	parallel := flag.Int("parallel", 0, "worker goroutines for the study sweeps (0 = one per CPU, 1 = sequential)")
	cf := cli.Register(flag.CommandLine)
	flag.Parse()
	if err := s.check(flag.CommandLine); err != nil {
		log.Fatal(err)
	}
	_, stop, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	suite := uservices.NewSuite()
	switch {
	case s.fig == 5:
		fmt.Println("Figure 5: off-chip DRAM bandwidth and thread scaling")
		core.WriteFig5(os.Stdout, core.Fig5Scaling())
		fmt.Println("\n(paper: up to 256 threads/socket with DDR5, 512 with DDR6/HBM)")
	case s.table == 4:
		printTable4()
	case s.table == 5:
		fmt.Println("Table V: per-component area and peak power (7 nm, McPAT-derived)")
		energy.WriteTableV(os.Stdout)
	case s.table == 6:
		printTable6()
	case s.table == 7:
		printTable7()
	case s.ispc:
		runISPC(suite, s.requests, *seed)
	case s.gpgpu:
		runGPGPU(s.requests, *seed)
	case s.multiprocess:
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
	case s.multibatch:
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
	case s.timing:
		fmt.Println("RPU timing-knob sweep: lanes {8,32} x majority vote x atomics placement")
		rows, err := core.TimingSweepParallel(suite, s.requests, *seed, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		core.WriteTimingSweep(os.Stdout, rows)
	case s.sensitivity:
		var subset []string
		if s.services != "" {
			subset = strings.Split(s.services, ",")
		}
		if err := core.SensitivityStudyParallel(os.Stdout, suite, subset, s.requests, *seed, *parallel); err != nil {
			log.Fatal(err)
		}
	case s.fig == 4 || s.fig == 11:
		rows, err := core.EfficiencyStudyParallel(suite, s.requests, *seed, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		if s.fig == 11 {
			fmt.Println("Figure 11: SIMT control efficiency per batching policy (batch size 32)")
			core.WriteEfficiency(os.Stdout, rows)
			fmt.Println("(paper: 92% ideal stack-based, 91% MinSP-PC with per-API + per-argument-size)")
			return
		}
		fmt.Println("Figure 4: SIMT control efficiency of naive batching (batch size 32)")
		fmt.Printf("%-18s %8s\n", "service", "naive")
		sum := 0.0
		for _, r := range rows {
			fmt.Printf("%-18s %7.1f%%\n", r.Service, 100*r.Naive)
			sum += r.Naive
		}
		fmt.Printf("%-18s %7.1f%%  (paper: ~68%% average)\n", "average", 100*sum/float64(len(rows)))
	case s.fig == 15:
		rows, err := core.MPKIStudyParallel(suite, s.requests, *seed, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 15: L1 MPKI, CPU (64KB) vs RPU (256KB) by batch size")
		core.WriteFig15(os.Stdout, rows)
	default:
		runChipStudy(suite, s, *seed, *gpu, *parallel)
	}
}

// runChipStudy runs the chip study once and prints Figures 10, 14, 19,
// 20 and 21 from it (only s.fig's when one is chosen), or the rows as
// JSON under -json.
func runChipStudy(suite *uservices.Suite, s selectors, seed int64, withGPU bool, workers int) {
	rows, err := core.ChipStudyParallel(suite, s.requests, seed, withGPU, workers)
	if err != nil {
		log.Fatal(err)
	}
	if s.json {
		if err := core.WriteJSON(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		return
	}
	show := func(n int) bool { return s.fig == 0 || s.fig == n }
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

// selectors holds the flags that choose what chipsim prints, and the
// request count the per-service studies check.
type selectors struct {
	fig, table int
	// The studies that have no figure or table number.
	sensitivity, ispc, multiprocess, multibatch, timing, gpgpu bool
	// The flags that only some selections read.
	json     bool
	services string
	requests int
}

// check rejects a selection before anything runs: a -fig or -table
// value that names nothing chipsim prints (0 selects none), more than
// one selector, -json with anything but the chip study, -services
// without -sensitivity, -ispc or -gpgpu under one request (a request
// stream cannot be sized below zero, and zero leaves every ratio NaN),
// and any flag set on the parsed command line fs that the selection
// does not read (see unread).
func (s selectors) check(fs *flag.FlagSet) error {
	switch s.fig {
	case 0, 4, 5, 10, 11, 14, 15, 19, 20, 21:
	default:
		return fmt.Errorf("unknown -fig %d (want 4, 5, 10, 11, 14, 15, 19, 20 or 21)", s.fig)
	}
	switch s.table {
	case 0, 4, 5, 6, 7:
	default:
		return fmt.Errorf("unknown -table %d (want 4, 5, 6 or 7)", s.table)
	}
	var chosen []string
	for name, on := range map[string]bool{
		"-fig": s.fig != 0, "-table": s.table != 0, "-sensitivity": s.sensitivity,
		"-ispc": s.ispc, "-multiprocess": s.multiprocess, "-multibatch": s.multibatch,
		"-timing": s.timing, "-gpgpu": s.gpgpu,
	} {
		if on {
			chosen = append(chosen, name)
		}
	}
	if len(chosen) > 1 {
		slices.Sort(chosen)
		return fmt.Errorf("%s: choose at most one selector", strings.Join(chosen, ", "))
	}
	switch {
	case s.json && len(chosen) == 1 && !slices.Contains([]int{10, 14, 19, 20, 21}, s.fig):
		return errors.New("-json prints only the chip study (no selector, or -fig 10, 14, 19, 20 or 21)")
	case s.services != "" && !s.sensitivity:
		return errors.New("-services applies only to -sensitivity")
	case (s.ispc || s.gpgpu) && s.requests < 1:
		return fmt.Errorf("requests per service must be at least 1, got %d", s.requests)
	}
	if name := cli.FirstSet(fs, s.unread()...); name != "" {
		what := "the chip study"
		switch {
		case s.fig != 0:
			what = fmt.Sprintf("-fig %d", s.fig)
		case s.table != 0:
			what = fmt.Sprintf("-table %d", s.table)
		case len(chosen) == 1:
			what = chosen[0]
		}
		return fmt.Errorf("-%s is not read by %s", name, what)
	}
	return nil
}

// unread lists the flags, among those only some selections read, that
// this selection ignores: -gpu is read only by the chip study; the
// analytic -fig 5 and the tables read no workload flag; -requests is
// not read by -multiprocess or -multibatch (fixed batch sizes), nor
// -parallel by -ispc, -gpgpu or -multiprocess (sequential loops).
func (s selectors) unread() []string {
	analytic := s.fig == 5 || s.table != 0
	chip := !analytic && s.fig != 4 && s.fig != 11 && s.fig != 15 &&
		!s.sensitivity && !s.ispc && !s.multiprocess && !s.multibatch && !s.timing && !s.gpgpu
	var out []string
	if !chip {
		out = append(out, "gpu")
	}
	if analytic || s.ispc || s.gpgpu || s.multiprocess {
		out = append(out, "parallel")
	}
	if analytic || s.multiprocess || s.multibatch {
		out = append(out, "requests")
	}
	if analytic {
		out = append(out, "seed")
	}
	return out
}

// mustRun runs reqs through svc on one core of arch with the default
// options, exiting on error.
func mustRun(arch core.Arch, svc *uservices.Service, reqs []uservices.Request) *core.Result {
	res, err := core.RunService(arch, svc, reqs, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// runISPC prints the §VI-A study: one request per AVX lane on the CPU
// vs the dedicated RPU, over the same requests.
func runISPC(suite *uservices.Suite, requests int, seed int64) {
	fmt.Println("§VI-A: SPMD-on-SIMD (ISPC-style, 8 AVX lanes) vs RPU, relative to scalar CPU")
	fmt.Printf("%-18s %12s %12s %12s %12s %10s\n",
		"service", "ispc req/J", "ispc lat", "rpu req/J", "rpu lat", "ispc eff")
	for _, svc := range suite.Services {
		reqs := svc.Generate(rand.New(rand.NewSource(seed)), requests)
		cpu, rpu := mustRun(core.ArchCPU, svc, reqs), mustRun(core.ArchRPU, svc, reqs)
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

// runGPGPU prints the §VI-D study: classic data-parallel SPMD kernels
// on the CPU, RPU and GPU, over the same work items. The paper argues
// the RPU runs them with GPU-class energy efficiency while keeping the
// CPU's programming model and latency.
func runGPGPU(requests int, seed int64) {
	suite := uservices.NewGPGPUSuite()
	fmt.Println("GPGPU/SPMD kernels on CPU vs RPU vs GPU (relative to CPU)")
	fmt.Printf("%-14s %12s %12s %12s %12s %8s\n",
		"kernel", "rpu req/J", "rpu lat", "gpu req/J", "gpu lat", "eff")
	for _, svc := range suite.Services {
		reqs := svc.Generate(rand.New(rand.NewSource(seed)), requests)
		cpu, rpu := mustRun(core.ArchCPU, svc, reqs), mustRun(core.ArchRPU, svc, reqs)
		gpu := mustRun(core.ArchGPU, svc, reqs)
		fmt.Printf("%-14s %11.2fx %11.2fx %11.2fx %11.1fx %7.0f%%\n",
			svc.Name,
			rpu.ReqPerJoule()/cpu.ReqPerJoule(), rpu.AvgLatencySec()/cpu.AvgLatencySec(),
			gpu.ReqPerJoule()/cpu.ReqPerJoule(), gpu.AvgLatencySec()/cpu.AvgLatencySec(),
			100*rpu.SIMTEff)
	}
	fmt.Println("\npaper §VI-D: the RPU narrows the GPU's efficiency lead on SPMD work")
	fmt.Println("while retaining system calls, the CPU ISA and OoO latency.")
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
