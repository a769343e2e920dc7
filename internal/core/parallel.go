// Worker-pool sweep runner. Every paper study is a grid of independent
// cells — a (service, configuration) pair, or in the chip study, the
// sensitivity grid and the timing sweep a whole service, whose runs
// share one preparation of each batch where their options allow — and
// the sweeps fan out over a bounded pool of goroutines. No cell reads
// another's products: each generates its service's requests and
// prepares them itself. The pool is the chip side's only parallelism:
// inside a cell, each run prepares a unit and then times it, one unit
// after another, as the paper's trace-then-time methodology does. A
// worker runs its cells one at a time, so the whole-service studies
// keep each worker's memory hierarchies (sysList) and Reset them for
// its next cell instead of building fresh ones; a chip or sensitivity
// cell also runs its architectures on one working set of prep scratch
// and cores (workSet) that it owns. Results are aggregated in input
// order regardless of completion order, which keeps every figure and
// CSV byte-identical to the sequential path.
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
	"simr/internal/uservices"
)

// defaultWorkers is the worker count used when a study is given
// workers <= 0: one per available CPU.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

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
// results in input order. workers <= 0 selects defaultWorkers;
// workers == 1 runs inline with no goroutines (the sequential path).
// On error the lowest-index error among completed cells is returned
// and remaining cells are abandoned. A cell that panics fails with an
// error naming its index and the panic value.
func RunCells[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return runCells(n, workers, func(_, i int) (T, error) { return fn(i) })
}

// cellWorkers is the number of workers runCells starts for n cells:
// workers, or defaultWorkers when workers <= 0, capped at n.
func cellWorkers(n, workers int) int {
	if workers <= 0 {
		workers = defaultWorkers()
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
			v, err := runCell(fn, 0, i)
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
					v, err = runCell(fn, w, i)
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

// runCell evaluates one cell, turning a panic into the cell's error so
// that it fails the sweep instead of the process.
func runCell[T any](fn func(w, i int) (T, error), w, i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: sweep cell %d panicked: %v", i, r)
		}
	}()
	return fn(w, i)
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
// seed. Regeneration from the same seed is deterministic, so every
// cell of a study that generates its own copy sees the exact stream
// the sequential loop produced.
func genRequests(svc *uservices.Service, requests int, seed int64) []uservices.Request {
	return svc.Generate(rand.New(rand.NewSource(seed)), requests)
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
// hierarchies from cell to cell.
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
// IPDOM reference, at batch 32. One cell per (service, policy variant);
// each cell generates its service's requests and traces them itself.
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
	cells, err := RunCells(len(svcs)*nv, workers, func(i int) (float64, error) {
		svc, v := svcs[i/nv], variants[i%nv]
		return efficiencyOf(svc, genRequests(svc, requests, seed), 32, v.policy, v.ipdom)
	})
	if err != nil {
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
// sizes 32/16/8/4. One cell per (service, configuration); each cell
// generates its service's requests and traces them itself.
func MPKIStudyParallel(suite *uservices.Suite, requests int, seed int64, workers int) ([]MPKIRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	svcs := suite.Services
	sizes := []int{32, 16, 8, 4}
	nc := 1 + len(sizes) // CPU + one per batch size
	cells, err := RunCells(len(svcs)*nc, workers, func(i int) (*Result, error) {
		svc := svcs[i/nc]
		reqs := genRequests(svc, requests, seed)
		opts := DefaultOptions()
		if i%nc == 0 {
			return RunService(ArchCPU, svc, reqs, opts)
		}
		opts.BatchSize = sizes[i%nc-1]
		return RunService(ArchRPU, svc, reqs, opts)
	})
	if err != nil {
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
// the same requests on a worker pool (the §III-B3 tuning space). Each
// cell traces the requests itself.
func BatchSweep(svc *uservices.Service, reqs []uservices.Request, sizes []int, workers int) (*Result, []BatchSweepRow, error) {
	cells, err := RunCells(1+len(sizes), workers, func(i int) (*Result, error) {
		opts := DefaultOptions()
		if i == 0 {
			return RunService(ArchCPU, svc, reqs, opts)
		}
		opts.BatchSize = sizes[i-1]
		return RunService(ArchRPU, svc, reqs, opts)
	})
	if err != nil {
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
// on a worker pool (two tuned-size batches per service), one cell per
// service.
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
