// Worker-pool sweep runner. Every paper study is a grid of independent
// (service, architecture, Options) cells — each cell builds its own
// mem.System, pipeline.Core and request stream — so the sweeps fan out
// over a bounded pool of goroutines. Results are aggregated in input
// order regardless of completion order, which keeps every figure and
// CSV byte-identical to the sequential path.
package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"simr/internal/batch"
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
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
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
			v, err := fn(i)
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
					v, err = fn(i)
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

// ChipStudyParallel is ChipStudy on a worker pool: one cell per
// (service, architecture).
func ChipStudyParallel(suite *uservices.Suite, requests int, seed int64, withGPU bool, workers int) ([]ChipRow, error) {
	return ChipStudyOn(suite.Services, requests, seed, withGPU, workers)
}

// ChipStudyOn is ChipStudyParallel restricted to an explicit service
// subset: per-service rows are independent, so a subset's rows are
// byte-identical to the same services' rows in a full-suite run.
//
// Scalar traces are not cached: of a service's cells only the CPU and
// SMT-8 ones interpret alone, and they share no more than SMT-8's
// thread-0 traces. Batch streams are cached only with the GPU column,
// whose cells prepare exactly the RPU cells' streams.
func ChipStudyOn(svcs []*uservices.Service, requests int, seed int64, withGPU bool, workers int) ([]ChipRow, error) {
	arches := []Arch{ArchCPU, ArchSMT8, ArchRPU}
	if withGPU {
		arches = append(arches, ArchGPU)
	}
	na := len(arches)
	sw := newSweepCaches(svcs, na, false, withGPU)
	la := prepBudget(len(svcs)*na, workers)
	cells, err := RunCells(len(svcs)*na, workers, func(i int) (*Result, error) {
		s := i / na
		defer sw.done(s)
		opts := DefaultOptions()
		opts.Traces = sw.cache(s)
		opts.BatchStreams = sw.batchCache(s)
		opts.PrepLookahead = la
		return RunService(arches[i%na], svcs[s], sw.requests(s, requests, seed), opts)
	})
	if err != nil {
		sw.abort()
		return nil, err
	}
	rows := make([]ChipRow, len(svcs))
	for s, svc := range svcs {
		row := ChipRow{Service: svc.Name, CPU: cells[s*na], SMT: cells[s*na+1], RPU: cells[s*na+2]}
		if withGPU {
			row.GPU = cells[s*na+3]
		}
		rows[s] = row
	}
	return rows, nil
}

// EfficiencyStudyParallel is EfficiencyStudy on a worker pool: one
// cell per (service, policy variant).
func EfficiencyStudyParallel(suite *uservices.Suite, requests int, seed int64, workers int) ([]EffRow, error) {
	return EfficiencyStudyOn(suite.Services, requests, seed, workers)
}

// EfficiencyStudyOn is EfficiencyStudyParallel restricted to an
// explicit service subset (see ChipStudyOn). The policy variants share
// scalar traces wherever they place a request at the same batch
// position, so scalar traces are cached; the merged streams differ by
// policy and reconvergence scheme, so they are not.
func EfficiencyStudyOn(svcs []*uservices.Service, requests int, seed int64, workers int) ([]EffRow, error) {
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

// MPKIStudyParallel is MPKIStudy on a worker pool: one cell per
// (service, configuration) where configuration is the CPU or an RPU
// batch size.
func MPKIStudyParallel(suite *uservices.Suite, requests int, seed int64, workers int) ([]MPKIRow, error) {
	return MPKIStudyOn(suite.Services, requests, seed, workers)
}

// MPKIStudyOn is MPKIStudyParallel restricted to an explicit service
// subset (see ChipStudyOn). The batch sizes place many requests at the
// same lane, so scalar traces are cached; no two cells form the same
// batch, so batch streams are not.
func MPKIStudyOn(svcs []*uservices.Service, requests int, seed int64, workers int) ([]MPKIRow, error) {
	sizes := []int{32, 16, 8, 4}
	nc := 1 + len(sizes) // CPU + one per batch size
	sw := newSweepCaches(svcs, nc, true, false)
	la := prepBudget(len(svcs)*nc, workers)
	cells, err := RunCells(len(svcs)*nc, workers, func(i int) (*Result, error) {
		s := i / nc
		defer sw.done(s)
		svc := svcs[s]
		reqs := sw.requests(s, requests, seed)
		opts := DefaultOptions()
		opts.Traces = sw.cache(s)
		opts.PrepLookahead = la
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
// MPKIStudyOn, the sizes share scalar traces but no batch stream, so
// only scalar traces are cached.
func BatchSweep(svc *uservices.Service, reqs []uservices.Request, sizes []int, workers int) (*Result, []BatchSweepRow, error) {
	sw := newSweepCaches([]*uservices.Service{svc}, 1+len(sizes), true, false)
	la := prepBudget(1+len(sizes), workers)
	cells, err := RunCells(1+len(sizes), workers, func(i int) (*Result, error) {
		defer sw.done(0)
		opts := DefaultOptions()
		opts.Traces = sw.cache(0)
		opts.PrepLookahead = la
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
// on a worker pool (two tuned-size batches per service).
func MultiBatchSweep(suite *uservices.Suite, seed int64, workers int) ([]MultiBatchRow, error) {
	return MultiBatchSweepOn(suite.Services, seed, workers)
}

// MultiBatchSweepOn is MultiBatchSweep restricted to an explicit
// service subset (see ChipStudyOn). Each service is one cell, so
// nothing is cached or shared.
func MultiBatchSweepOn(svcs []*uservices.Service, seed int64, workers int) ([]MultiBatchRow, error) {
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
