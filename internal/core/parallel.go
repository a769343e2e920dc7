// Worker-pool sweep runner. Every paper study is a grid of independent
// cells — a (service, configuration) pair, or in the chip study and the
// timing sweep a whole service, whose runs share one preparation of
// each batch — and the sweeps fan out over a bounded pool of
// goroutines. The pool is the chip side's only parallelism: inside a
// cell, each run prepares a unit and then times it, one unit after
// another, as the paper's trace-then-time methodology does. A worker
// runs its cells one at a time, so the chip study and the timing sweep
// keep each worker's memory hierarchies (sysList) and Reset them for
// its next cell instead of building fresh ones; a chip cell also runs
// its architectures on one working set of prep scratch and cores
// (workSet) that it owns. Results are aggregated in input order
// regardless of completion order, which keeps every figure and CSV
// byte-identical to the sequential path.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"simr/internal/batch"
	"simr/internal/mem"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// DefaultWorkers is the worker count used when a study is given
// workers <= 0: one per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// interruptCtx is the process-wide cancellation context the drivers
// install via SetInterrupt (SIGINT/SIGTERM). RunCells polls it between
// cells, so a signal aborts a sweep at the next cell boundary instead
// of truncating output mid-row.
var interruptCtx atomic.Pointer[context.Context]

// SetInterrupt installs a cancellation context that every subsequent
// RunCells invocation honors: when ctx is done, sweeps abort with
// ctx.Err() at the next cell boundary. Drivers call it once with a
// signal.NotifyContext; a nil ctx clears it.
func SetInterrupt(ctx context.Context) {
	if ctx == nil {
		interruptCtx.Store(nil)
		return
	}
	interruptCtx.Store(&ctx)
}

// interrupted returns the installed context's error, or nil when no
// context is installed or it is still live.
func interrupted() error {
	if p := interruptCtx.Load(); p != nil {
		return (*p).Err()
	}
	return nil
}

// RunCells evaluates fn(0..n-1) on a pool of workers and returns the
// results in input order. workers <= 0 selects DefaultWorkers;
// workers == 1 runs inline with no goroutines (the sequential path).
// On error the lowest-index error among completed cells is returned
// and remaining cells are abandoned.
func RunCells[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return runCells(n, workers, func(_, i int) (T, error) { return fn(i) })
}

// cellWorkers is the number of workers runCells starts for n cells:
// workers, or DefaultWorkers when workers <= 0, capped at n.
func cellWorkers(n, workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return min(workers, n)
}

// runCells is RunCells that also hands fn the index w of the worker
// evaluating the cell, 0 <= w < cellWorkers(n, workers). A worker runs
// its cells one after another, so per-worker state indexed by w needs
// no locking.
func runCells[T any](n, workers int, fn func(w, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = cellWorkers(n, workers)
	po := cellsProbe(workers)
	start := po.clock()
	defer po.finish(start)
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := interrupted(); err != nil {
				return nil, err
			}
			t0 := po.clock()
			v, err := fn(0, i)
			if err != nil {
				return nil, err
			}
			po.cell(0, t0)
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64
		stop   atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				t0 := po.clock()
				var v T
				err := interrupted()
				if err == nil {
					v, err = fn(w, i)
				}
				if err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				po.cell(w, t0)
				out[i] = v
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}

// sysList is one sweep worker's idle memory hierarchies. A run takes a
// System per core it models with get and returns it with put when the
// run is over, so the worker's next cell reuses it: a Table IV RPU
// hierarchy is about 3.3 MB of cache lines and MSHR table, and a sweep
// would otherwise build one per cell. A nil *sysList builds a fresh
// System for every run and keeps none, which is what direct RunService
// calls get.
type sysList struct {
	idle []*mem.System
}

// get returns an idle System built for exactly cfg, Reset to the state
// mem.NewSystem(cfg) gives, or a new one when none is idle.
func (l *sysList) get(cfg mem.SysConfig) *mem.System {
	if l != nil {
		for i, s := range l.idle {
			if s.Config() == cfg {
				l.idle = append(l.idle[:i], l.idle[i+1:]...)
				s.Reset()
				return s
			}
		}
	}
	if systemBuilt != nil {
		systemBuilt()
	}
	return mem.NewSystem(cfg)
}

// put hands a System back for the worker's later runs.
func (l *sysList) put(s *mem.System) {
	if l != nil {
		l.idle = append(l.idle, s)
	}
}

// systemBuilt, when set, is called for every memory hierarchy a run
// builds instead of reusing; the reuse tests count the calls. It must
// be safe for concurrent use.
var systemBuilt func()

// checkRequests rejects a per-service request count below one before a
// study runs any cell: a negative count cannot size a request stream,
// and zero requests leave every ratio NaN.
func checkRequests(requests int) error {
	if requests < 1 {
		return fmt.Errorf("core: requests per service must be at least 1, got %d", requests)
	}
	return nil
}

// genRequests regenerates a service's request stream from the study
// seed. Regeneration from the same seed is deterministic, so a cell
// sees the exact stream the sequential loop produced whether it
// generates its own copy or shares one through sweepCaches.
func genRequests(svc *uservices.Service, requests int, seed int64) []uservices.Request {
	return svc.Generate(rand.New(rand.NewSource(seed)), requests)
}

// disableTraceCache turns off trace caching (and request-stream
// sharing) for the whole package; the determinism tests flip it to
// compare cached sweeps against fresh interpretation byte for byte.
var disableTraceCache bool

// disableBatchCache turns off batch-stream caching for the whole
// package; the determinism tests (and the drivers' -batchcache=false)
// flip it to compare memoized sweeps against fresh preparation byte
// for byte.
var disableBatchCache bool

// cacheBudgetBytes overrides the shared per-sweep cache byte budget
// (0 = trace.DefaultBudgetBytes). The scalar trace cache and the
// batch-stream cache draw on the same budget.
var cacheBudgetBytes int64

// SetTraceCaching enables or disables the sweep-wide scalar-trace
// cache (and request-stream sharing). Results are byte-identical
// either way; only wall clock changes. Not safe to flip concurrently
// with a running study.
func SetTraceCaching(on bool) { disableTraceCache = !on }

// SetBatchCaching enables or disables the sweep-wide batch-stream
// cache (the drivers' -batchcache flag). Results are byte-identical
// either way; only wall clock changes. Not safe to flip concurrently
// with a running study.
func SetBatchCaching(on bool) { disableBatchCache = !on }

// SetCacheBudget pins the byte budget the per-sweep caches (scalar
// traces + batch streams together) may retain; <= 0 restores
// trace.DefaultBudgetBytes. Over-budget entries are served but not
// retained, so results are byte-identical at any budget.
func SetCacheBudget(bytes int64) { cacheBudgetBytes = bytes }

// sweepCaches owns one shared request stream per service of a sweep
// and, where the driver asks for them, one trace.Cache and one
// trace.BatchCache per service, all drawing on a single byte budget.
// Cells of the same service share the caches and the stream (all
// read-only); a per-service countdown drops both caches — returning
// their bytes to the budget — as soon as the service's last cell
// finishes, so long sweeps never hold every service's traces and
// streams at once.
type sweepCaches struct {
	svcs    []*uservices.Service
	budget  *trace.Budget
	caches  []*trace.Cache
	bcaches []*trace.BatchCache
	reqs    [][]uservices.Request
	once    []sync.Once
	left    []atomic.Int32
}

// newSweepCaches builds the per-service caches for a sweep in which
// every service is evaluated by cellsPer cells. scalar and batch say
// whether the sweep hands its cells a scalar-trace cache and a
// batch-stream cache: a driver asks only for a product that another
// cell of the same sweep reads (TestSweepCachesAreRead holds every
// driver to that), since a cache nobody reads only copies and retains.
// SetTraceCaching and SetBatchCaching can still turn either off.
func newSweepCaches(svcs []*uservices.Service, cellsPer int, scalar, batch bool) *sweepCaches {
	sw := &sweepCaches{
		svcs:    svcs,
		budget:  trace.NewBudget(cacheBudgetBytes),
		caches:  make([]*trace.Cache, len(svcs)),
		bcaches: make([]*trace.BatchCache, len(svcs)),
		reqs:    make([][]uservices.Request, len(svcs)),
		once:    make([]sync.Once, len(svcs)),
		left:    make([]atomic.Int32, len(svcs)),
	}
	for i, svc := range svcs {
		if scalar && !disableTraceCache {
			sw.caches[i] = trace.NewCache(svc, sw.budget)
		}
		if batch && !disableBatchCache {
			sw.bcaches[i] = trace.NewBatchCache(sw.budget)
		}
		sw.left[i].Store(int32(cellsPer))
	}
	if sweepBuilt != nil {
		sweepBuilt(sw)
	}
	return sw
}

// sweepBuilt, when set, is handed every sweep's caches as they are
// built; the cache-use tests read their counters after the sweep.
var sweepBuilt func(*sweepCaches)

// cache returns service s's trace cache (nil when the sweep does not
// cache scalar traces, which makes every consumer interpret fresh).
func (sw *sweepCaches) cache(s int) *trace.Cache { return sw.caches[s] }

// batchCache returns service s's batch-stream cache (nil when the
// sweep does not cache batch streams, which makes every consumer
// prepare fresh).
func (sw *sweepCaches) batchCache(s int) *trace.BatchCache { return sw.bcaches[s] }

// requests returns service s's shared request stream, generating it on
// first use. The stream is read-only for all cells.
func (sw *sweepCaches) requests(s, n int, seed int64) []uservices.Request {
	if disableTraceCache {
		return genRequests(sw.svcs[s], n, seed)
	}
	sw.once[s].Do(func() { sw.reqs[s] = genRequests(sw.svcs[s], n, seed) })
	return sw.reqs[s]
}

// done marks one of service s's cells finished and drops the service's
// caches when the last one completes.
func (sw *sweepCaches) done(s int) {
	if sw.left[s].Add(-1) == 0 {
		sw.caches[s].Drop()
		sw.bcaches[s].Drop()
	}
}

// abort drops every service's cache. Drivers call it on the sweep's
// error path: cells abandoned by RunCells never call done, so without
// the drain a failed sweep would strand each undropped cache's bytes
// against the shared trace.Budget for as long as the sweep's results
// stay reachable. Drop is idempotent, so racing a straggler cell's own
// done is harmless.
func (sw *sweepCaches) abort() {
	for _, c := range sw.caches {
		c.Drop()
	}
	for _, c := range sw.bcaches {
		c.Drop()
	}
}

// ChipStudyParallel runs the chip-level comparison behind Figures 10,
// 14, 19, 20 and 21 for every service of the suite on a worker pool:
// one cell per service, which generates the service's requests once and
// runs the CPU and the SMT-8 CPU together on one interpretation of each
// request, then the RPU, on one working set of prep scratch and cores.
// withGPU adds the Ampere-like GPU model
// (§V-A3), whose column times the RPU's prepared batches: the two
// architectures share the L1 geometry a preparation depends on. As in
// every study, workers <= 0 uses one worker per CPU and workers == 1
// runs the cells in order on the caller. Each worker reuses its memory
// hierarchies from cell to cell. No cell reads another's products, so
// the study caches nothing.
//
// Cells are as large as a service's work, so from three workers up the
// largest service's cell bounds the study's wall clock.
func ChipStudyParallel(suite *uservices.Suite, requests int, seed int64, withGPU bool, workers int) ([]ChipRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	svcs := suite.Services
	opts := DefaultOptions()
	scalarArches := []Arch{ArchCPU, ArchSMT8}
	arches, variants := []Arch{ArchRPU}, []Options{opts}
	if withGPU {
		arches, variants = append(arches, ArchGPU), append(variants, opts)
	}
	systems := make([]sysList, cellWorkers(len(svcs), workers))
	return runCells(len(svcs), workers, func(w, s int) (ChipRow, error) {
		svc := svcs[s]
		reqs := genRequests(svc, requests, seed)
		ws, sys := &workSet{}, &systems[w]
		row := ChipRow{Service: svc.Name}
		scalar, err := runScalar(svc, reqs, scalarArches, opts, ws, sys)
		if err != nil {
			return row, err
		}
		row.CPU, row.SMT = scalar[0], scalar[1]
		batched, err := runBatched(svc, reqs, arches, variants, ws, sys)
		if err != nil {
			return row, err
		}
		row.RPU = batched[0]
		if withGPU {
			row.GPU = batched[1]
		}
		return row, nil
	})
}

// EfficiencyStudyParallel reproduces Figures 4 and 11 on a worker pool:
// SIMT control efficiency per service under naive, per-API and
// per-API+argument-size batching (MinSP-PC), plus the ideal stack-based
// IPDOM reference, at batch 32. One cell per (service, policy variant).
//
// The policy variants share scalar traces wherever they place a request
// at the same batch position, so scalar traces are cached; the merged
// streams differ by policy and reconvergence scheme, so they are not.
func EfficiencyStudyParallel(suite *uservices.Suite, requests int, seed int64, workers int) ([]EffRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	svcs := suite.Services
	variants := []struct {
		policy batch.Policy
		ipdom  bool
	}{
		{batch.Naive, false},
		{batch.PerAPI, false},
		{batch.PerAPIArgSize, false},
		{batch.PerAPIArgSize, true},
	}
	nv := len(variants)
	sw := newSweepCaches(svcs, nv, true, false)
	cells, err := RunCells(len(svcs)*nv, workers, func(i int) (float64, error) {
		s := i / nv
		defer sw.done(s)
		v := variants[i%nv]
		return efficiencyOf(svcs[s], sw.requests(s, requests, seed), 32, v.policy, v.ipdom, sw.cache(s))
	})
	if err != nil {
		sw.abort()
		return nil, err
	}
	rows := make([]EffRow, len(svcs))
	for s, svc := range svcs {
		rows[s] = EffRow{
			Service:     svc.Name,
			Naive:       cells[s*nv],
			PerAPI:      cells[s*nv+1],
			PerArg:      cells[s*nv+2],
			PerArgIPDOM: cells[s*nv+3],
		}
	}
	return rows, nil
}

// MPKIStudyParallel reproduces Figure 15 on a worker pool: L1 MPKI of
// the single-threaded CPU (64 KB L1) vs the RPU (256 KB L1) at batch
// sizes 32/16/8/4. One cell per (service, configuration).
//
// The batch sizes place many requests at the same lane, so scalar
// traces are cached; no two cells form the same batch, so batch streams
// are not.
func MPKIStudyParallel(suite *uservices.Suite, requests int, seed int64, workers int) ([]MPKIRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	svcs := suite.Services
	sizes := []int{32, 16, 8, 4}
	nc := 1 + len(sizes) // CPU + one per batch size
	sw := newSweepCaches(svcs, nc, true, false)
	cells, err := RunCells(len(svcs)*nc, workers, func(i int) (*Result, error) {
		s := i / nc
		defer sw.done(s)
		svc := svcs[s]
		reqs := sw.requests(s, requests, seed)
		opts := DefaultOptions()
		opts.Traces = sw.cache(s)
		if i%nc == 0 {
			return RunService(ArchCPU, svc, reqs, opts)
		}
		opts.BatchSize = sizes[i%nc-1]
		return RunService(ArchRPU, svc, reqs, opts)
	})
	if err != nil {
		sw.abort()
		return nil, err
	}
	rows := make([]MPKIRow, len(svcs))
	for s, svc := range svcs {
		row := MPKIRow{Service: svc.Name, CPU: cells[s*nc].L1MPKI(), RPU: map[int]float64{}}
		for k, size := range sizes {
			row.RPU[size] = cells[s*nc+1+k].L1MPKI()
		}
		rows[s] = row
	}
	return rows, nil
}

// BatchSweepRow is one RPU batch-size point of a batch-tuning sweep.
type BatchSweepRow struct {
	Size int
	Res  *Result
}

// BatchSweep runs the CPU baseline plus an RPU run per batch size over
// the same requests on a worker pool (the §III-B3 tuning space). As in
// MPKIStudyParallel, the sizes share scalar traces but no batch stream, so
// only scalar traces are cached.
func BatchSweep(svc *uservices.Service, reqs []uservices.Request, sizes []int, workers int) (*Result, []BatchSweepRow, error) {
	sw := newSweepCaches([]*uservices.Service{svc}, 1+len(sizes), true, false)
	cells, err := RunCells(1+len(sizes), workers, func(i int) (*Result, error) {
		defer sw.done(0)
		opts := DefaultOptions()
		opts.Traces = sw.cache(0)
		if i == 0 {
			return RunService(ArchCPU, svc, reqs, opts)
		}
		opts.BatchSize = sizes[i-1]
		return RunService(ArchRPU, svc, reqs, opts)
	})
	if err != nil {
		sw.abort()
		return nil, nil, err
	}
	rows := make([]BatchSweepRow, len(sizes))
	for k, size := range sizes {
		rows[k] = BatchSweepRow{Size: size, Res: cells[1+k]}
	}
	return cells[0], rows, nil
}

// MultiBatchRow is one service's §III-A multi-batch interleaving
// measurement.
type MultiBatchRow struct {
	Service string
	Res     *MultiBatchResult
}

// MultiBatchSweep runs MultiBatchStudy for every service in the suite
// on a worker pool (two tuned-size batches per service). Each service
// is one cell, so nothing is cached or shared.
func MultiBatchSweep(suite *uservices.Suite, seed int64, workers int) ([]MultiBatchRow, error) {
	svcs := suite.Services
	cells, err := RunCells(len(svcs), workers, func(i int) (*MultiBatchResult, error) {
		svc := svcs[i]
		return MultiBatchStudy(svc, genRequests(svc, 2*svc.TunedBatch, seed), DefaultOptions())
	})
	if err != nil {
		return nil, err
	}
	rows := make([]MultiBatchRow, len(svcs))
	for i, svc := range svcs {
		rows[i] = MultiBatchRow{Service: svc.Name, Res: cells[i]}
	}
	return rows, nil
}
