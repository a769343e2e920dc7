package core

import (
	"fmt"
	"io"
	"strings"

	"simr/internal/alloc"
	"simr/internal/uservices"
)

// sensPair is one ablation's (baseline, variant) measurement: the cell
// type of the grid SensitivityStudyParallel computes and
// writeSensitivity renders.
type sensPair struct {
	Base, Variant *Result
}

// SensitivityStudyParallel reproduces the §V-A1 sensitivity analyses
// on the named services (all of the suite's when services is empty) and
// writes the report. Each service is one cell of a worker pool (see
// sensCell), then the report sections are rendered in order from the
// precomputed grid, so the text is identical at any worker count. Each
// worker reuses its memory hierarchies from cell to cell.
//
// Cells are as large as a service's work, so from three workers up the
// largest service's cell bounds the study's wall clock.
func SensitivityStudyParallel(w io.Writer, suite *uservices.Suite, services []string, requests int, seed int64, workers int) error {
	if err := checkRequests(requests); err != nil {
		return err
	}
	svcs := suite.Services
	if len(services) == 0 {
		services = suite.Names()
	} else {
		svcs = make([]*uservices.Service, len(services))
		for i, name := range services {
			if svcs[i] = suite.Lookup(name); svcs[i] == nil {
				return fmt.Errorf("core: unknown service %q (have %s)", name, strings.Join(suite.Names(), ", "))
			}
		}
	}
	systems := make([]sysList, cellWorkers(len(svcs), workers))
	cells, err := runCells(len(svcs), workers, func(w, s int) ([]sensPair, error) {
		svc := svcs[s]
		return sensCell(svc, genRequests(svc, requests, seed), &workSet{}, &systems[w])
	})
	if err != nil {
		return err
	}
	return writeSensitivity(w, services, cells)
}

// sensCell runs one service's seven §V-A1 ablations on reqs and returns
// them in report order, each paired with its baseline. The RPU baseline
// and the three timing-only ablations (32 lanes, atomics in the L1,
// lane-0 branch outcome) time one preparation of each batch; the
// layout ablations (CPU heap allocator, IPDOM reconvergence, stack
// interleave off) each prepare their own, and the CPU runs with and
// without its prefetcher. Every run uses the cell's working set ws and
// the worker's memory hierarchies sys.
func sensCell(svc *uservices.Service, reqs []uservices.Request, ws *workSet, sys *sysList) ([]sensPair, error) {
	base := DefaultOptions()
	rpu := func(mutate ...func(*Options)) ([]*Result, error) {
		arches := make([]Arch, len(mutate))
		variants := make([]Options, len(mutate))
		for v, m := range mutate {
			arches[v], variants[v] = ArchRPU, base
			m(&variants[v])
		}
		return runBatched(svc, reqs, arches, variants, ws, sys)
	}
	timing, err := rpu(
		func(*Options) {},
		func(o *Options) { o.Lanes = 32 },
		func(o *Options) { o.AtomicsAtL3 = false },
		func(o *Options) { o.MajorityVote = false },
	)
	if err != nil {
		return nil, err
	}
	var layout [3]*Result
	for i, m := range []func(*Options){
		func(o *Options) { o.AllocPolicy = alloc.PolicyCPU },
		func(o *Options) { o.UseIPDOM = true },
		func(o *Options) { o.StackInterleave = false },
	} {
		res, err := rpu(m)
		if err != nil {
			return nil, err
		}
		layout[i] = res[0]
	}
	var cpu [2]*Result
	for i, prefetch := range []bool{false, true} {
		o := base
		o.CPUPrefetch = prefetch
		res, err := runScalar(svc, reqs, []Arch{ArchCPU}, o, ws, sys)
		if err != nil {
			return nil, err
		}
		cpu[i] = res[0]
	}
	b := timing[0]
	return []sensPair{
		{b, timing[1]}, // 32 lanes
		{b, timing[2]}, // atomics in the L1
		{b, layout[0]}, // CPU heap allocator
		{b, timing[3]}, // lane-0 branch outcome
		{b, layout[1]}, // IPDOM reconvergence
		{b, layout[2]}, // stack interleave off
		{cpu[0], cpu[1]},
	}, nil
}

// writeSensitivity renders the §V-A1 report from a precomputed grid
// indexed cells[s][section], section in sensCell's report order and
// services[s] naming service s.
func writeSensitivity(w io.Writer, services []string, cells [][]sensPair) error {
	pair := func(section, s int) sensPair { return cells[s][section] }

	// 1. Sub-batch interleaving: 8 SIMT lanes vs full 32-lane width.
	fmt.Fprintln(w, "-- sub-batch interleaving: 8 lanes vs full 32 lanes (paper: ~4% loss, up to 10% UniqueID)")
	fmt.Fprintf(w, "%-18s %14s\n", "service", "slowdown @8")
	var losses []float64
	for s, name := range services {
		p := pair(0, s)
		// base has 8 lanes (default), variant 32.
		loss := p.Base.Latency.Mean()/p.Variant.Latency.Mean() - 1
		losses = append(losses, loss)
		fmt.Fprintf(w, "%-18s %13.1f%%\n", name, 100*loss)
	}
	fmt.Fprintf(w, "%-18s %13.1f%%\n\n", "average", 100*mean(losses))

	// 2. Atomics at L3 vs in the private L1.
	fmt.Fprintln(w, "-- atomics at shared L3 vs private L1 (paper: no slowdown observed)")
	fmt.Fprintf(w, "%-18s %14s\n", "service", "slowdown @L3")
	var atom []float64
	for s, name := range services {
		p := pair(1, s)
		slow := p.Base.Latency.Mean()/p.Variant.Latency.Mean() - 1
		atom = append(atom, slow)
		fmt.Fprintf(w, "%-18s %13.1f%%\n", name, 100*slow)
	}
	fmt.Fprintf(w, "%-18s %13.1f%%\n\n", "average", 100*mean(atom))

	// 3. SIMR-aware heap allocation (Figure 16): bank-conflict-free
	// layout of private heap streams; the paper reports 1.8x higher L1
	// throughput on HDSearch.
	fmt.Fprintln(w, "-- SIMR-aware heap allocator vs CPU allocator (paper: 1.8x L1 throughput on HDSearch)")
	fmt.Fprintf(w, "%-18s %16s %14s\n", "service", "bank conflicts", "latency gain")
	for s, name := range services {
		p := pair(2, s)
		bc := ratioOr1(float64(p.Variant.Stats.Mem.L1.BankConflicts), float64(p.Base.Stats.Mem.L1.BankConflicts))
		lg := p.Variant.Latency.Mean() / p.Base.Latency.Mean()
		fmt.Fprintf(w, "%-18s %15.2fx %13.2fx\n", name, bc, lg)
	}
	fmt.Fprintln(w)

	// 4. Majority voting vs lane-0 prediction update.
	fmt.Fprintln(w, "-- majority voting vs lane-0 branch outcome (paper: energy win, little perf impact)")
	fmt.Fprintf(w, "%-18s %14s %14s\n", "service", "flushes saved", "perf delta")
	for s, name := range services {
		p := pair(3, s)
		fs := ratioOr1(float64(p.Variant.Stats.FlushedLanes+p.Variant.Stats.Mispredicts),
			float64(p.Base.Stats.FlushedLanes+p.Base.Stats.Mispredicts))
		pd := p.Variant.Latency.Mean()/p.Base.Latency.Mean() - 1
		fmt.Fprintf(w, "%-18s %13.2fx %13.1f%%\n", name, fs, 100*pd)
	}
	fmt.Fprintln(w)

	// 5. MinSP-PC heuristic vs ideal stack-based IPDOM.
	fmt.Fprintln(w, "-- MinSP-PC vs ideal IPDOM reconvergence (paper: 91% vs 92% efficiency)")
	fmt.Fprintf(w, "%-18s %10s %10s\n", "service", "minsp-pc", "ipdom")
	for s, name := range services {
		p := pair(4, s)
		fmt.Fprintf(w, "%-18s %9.1f%% %9.1f%%\n", name, 100*p.Base.SIMTEff, 100*p.Variant.SIMTEff)
	}
	fmt.Fprintln(w)

	// 6. Stack interleaving off (ablation beyond the paper's set).
	fmt.Fprintln(w, "-- stack physical interleaving on vs off (ablation; drives Figure 14 coalescing)")
	fmt.Fprintf(w, "%-18s %14s\n", "service", "L1 traffic x")
	for s, name := range services {
		p := pair(5, s)
		tr := ratioOr1(p.Variant.L1AccessesPerRequest(), p.Base.L1AccessesPerRequest())
		fmt.Fprintf(w, "%-18s %13.2fx\n", name, tr)
	}
	fmt.Fprintln(w)

	// 7. CPU next-line prefetcher (Table III: "data prefetchers are
	// ineffective" on microservice heaps).
	fmt.Fprintln(w, "-- CPU next-line prefetcher (paper Table III: ineffective on microservices)")
	fmt.Fprintf(w, "%-18s %10s %12s\n", "service", "speedup", "accuracy")
	for s, name := range services {
		p := pair(6, s)
		fmt.Fprintf(w, "%-18s %9.1f%% %11.1f%%\n", name,
			100*(p.Base.Latency.Mean()/p.Variant.Latency.Mean()-1),
			100*p.Variant.Stats.Mem.PF.Accuracy())
	}
	return nil
}

func ratioOr1(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return a
	}
	return a / b
}
