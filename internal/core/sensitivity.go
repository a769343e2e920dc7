package core

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"simr/internal/alloc"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// runVariant executes one mutated option set.
func runVariant(arch Arch, svc *uservices.Service, reqs []uservices.Request, mutate func(*Options), tc *trace.Cache, bc *trace.BatchCache) (*Result, error) {
	ov := DefaultOptions()
	ov.Traces = tc
	ov.BatchStreams = bc
	mutate(&ov)
	return RunService(arch, svc, reqs, ov)
}

// sensBase memoizes one service's baseline runs: every RPU ablation
// compares against the identical baseline RunService result (same
// service, same request stream, same default options), so computing it
// once per (service, architecture) and sharing the Result across cells
// is byte-identical and saves nearly half the study's simulation work.
// Results are only ever read after the owning cell's Once completes.
type sensBase struct {
	once [NumArchs]sync.Once
	res  [NumArchs]*Result
	err  [NumArchs]error
}

func (b *sensBase) get(arch Arch, svc *uservices.Service, reqs []uservices.Request, tc *trace.Cache, bc *trace.BatchCache) (*Result, error) {
	b.once[arch].Do(func() {
		ob := DefaultOptions()
		ob.Traces = tc
		ob.BatchStreams = bc
		b.res[arch], b.err[arch] = RunService(arch, svc, reqs, ob)
	})
	return b.res[arch], b.err[arch]
}

// sensPair is one ablation's (baseline, variant) measurement: the cell
// type of the grid SensitivityStudyParallel computes and
// writeSensitivity renders.
type sensPair struct {
	Base, Variant *Result
}

// sensMutations lists the §V-A1 ablations in report order; each becomes
// one row of worker-pool cells.
var sensMutations = []struct {
	arch   Arch
	mutate func(*Options)
}{
	{ArchRPU, func(o *Options) { o.Lanes = 32 }},
	{ArchRPU, func(o *Options) { o.AtomicsAtL3 = false }},
	{ArchRPU, func(o *Options) { o.AllocPolicy = alloc.PolicyCPU }},
	{ArchRPU, func(o *Options) { o.MajorityVote = false }},
	{ArchRPU, func(o *Options) { o.UseIPDOM = true }},
	{ArchRPU, func(o *Options) { o.StackInterleave = false }},
	{ArchCPU, func(o *Options) { o.CPUPrefetch = true }},
}

// SensitivityStudyParallel reproduces the §V-A1 sensitivity analyses
// on the named services (all of the suite's when services is empty) and
// writes the report. Every (ablation, service) pair is computed on a
// worker pool, then the report sections are rendered in order from the
// precomputed grid, so the text is identical at any worker count.
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
	ns := len(svcs)
	// Both caches are read: the timing-only ablations replay the
	// baseline's batch streams, and the layout ablations that rebuild
	// them (IPDOM, interleave off) and the CPU prefetcher replay its
	// scalar traces.
	sw := newSweepCaches(svcs, len(sensMutations), true, true)
	bases := make([]sensBase, ns)
	pairs, err := RunCells(len(sensMutations)*ns, workers, func(i int) (sensPair, error) {
		m := sensMutations[i/ns]
		s := i % ns
		defer sw.done(s)
		reqs := sw.requests(s, requests, seed)
		b, err := bases[s].get(m.arch, svcs[s], reqs, sw.cache(s), sw.batchCache(s))
		if err != nil {
			return sensPair{}, err
		}
		v, err := runVariant(m.arch, svcs[s], reqs, m.mutate, sw.cache(s), sw.batchCache(s))
		return sensPair{b, v}, err
	})
	if err != nil {
		sw.abort()
		return err
	}
	return writeSensitivity(w, services, pairs)
}

// writeSensitivity renders the §V-A1 report from a precomputed grid
// indexed pairs[section*len(services)+s], section in sensMutations
// order and services[s] naming column s.
func writeSensitivity(w io.Writer, services []string, pairs []sensPair) error {
	ns := len(services)
	pair := func(section, s int) sensPair { return pairs[section*ns+s] }

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
