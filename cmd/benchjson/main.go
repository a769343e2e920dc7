// Command benchjson times the intra-run prep pipeline against the
// sequential oracle on the studies the pipeline targets and appends a
// machine-readable entry to a bench-trajectory JSON file (default
// BENCH_pipeline.json). Each measured pair also cross-checks that the
// two modes render byte-identical output, so the trajectory can only
// ever record speedups of equivalent computations.
//
// Usage:
//
//	benchjson [-requests 240] [-seed 42] [-workers 8] [-out BENCH_pipeline.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"simr/internal/cli"
	"simr/internal/core"
	"simr/internal/obs"
	"simr/internal/queuesim"
	"simr/internal/sample"
	"simr/internal/uservices"
)

// BenchResult is one seq-vs-pipelined wall-clock pair.
type BenchResult struct {
	Name       string  `json:"name"`
	SeqSec     float64 `json:"seq_s"`
	PipeSec    float64 `json:"pipelined_s"`
	Speedup    float64 `json:"speedup"`
	Identical  bool    `json:"outputs_identical"`
	WhatDiffer string  `json:"pipelined_config"`
}

// BenchEntry is one appended trajectory point. GoMaxProcs, Seed and
// Sample make every row self-describing and comparable across hosts.
type BenchEntry struct {
	Timestamp  string        `json:"timestamp"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Requests   int           `json:"requests"`
	Seed       int64         `json:"seed"`
	Sample     string        `json:"sample"`
	Results    []BenchResult `json:"results"`
}

// StudyEntry is one per-study trajectory point: the timing result of
// a single bench study plus the obs-registry snapshot its two runs
// populated (trace-cache effectiveness, prep-pipeline occupancy,
// worker utilization), written to BENCH_<study>.json.
type StudyEntry struct {
	Timestamp  string       `json:"timestamp"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Requests   int          `json:"requests"`
	Seed       int64        `json:"seed"`
	Sample     string       `json:"sample"`
	Result     BenchResult  `json:"result"`
	Metrics    obs.Snapshot `json:"metrics"`
}

// SamplingMetric is one headline metric's sampled-vs-full error over
// the chip-study cells.
type SamplingMetric struct {
	Name string `json:"name"`
	// GeoMeanErr is exp(mean(ln(1+|err|)))-1 over the cells.
	GeoMeanErr float64 `json:"geomean_err"`
	MaxErr     float64 `json:"max_err"`
	// MeanRelCI averages the estimate's own reported 95% CI, so the
	// trajectory records predicted next to realised error.
	MeanRelCI float64 `json:"mean_rel_ci95"`
}

// SamplingEntry is one sampled-vs-full trajectory point, written to
// BENCH_sampling.json.
type SamplingEntry struct {
	Timestamp  string           `json:"timestamp"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Workers    int              `json:"workers"`
	Requests   int              `json:"requests"`
	Seed       int64            `json:"seed"`
	Sample     string           `json:"sample"`
	FullSec    float64          `json:"full_s"`
	SampledSec float64          `json:"sampled_s"`
	Speedup    float64          `json:"speedup"`
	TimedUnits int              `json:"timed_units"`
	TotalUnits int              `json:"total_units"`
	Metrics    []SamplingMetric `json:"metrics"`
}

// BatchCacheEntry is one batch-stream-cache trajectory point, written
// to BENCH_batchcache.json: the RPU timing-knob sweep (eight variants
// per service sharing identical batch streams) timed with no caches,
// with the scalar trace cache only, and with the batch-stream cache,
// plus a sampled run with the batch-stream cache. The sweep caches
// scalar traces only while batch caching is off, so the batch leg runs
// the batch-stream cache alone. The three unsampled runs are
// byte-compared, so the trajectory only ever records speedups of
// equivalent computations.
type BatchCacheEntry struct {
	Timestamp  string `json:"timestamp"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Requests   int    `json:"requests"`
	Seed       int64  `json:"seed"`
	// Sample is the config of the sampled run (the unsampled runs
	// record their own trajectory fields).
	Sample string `json:"sample"`
	// NoCacheSec runs with scalar trace caching and batch-stream
	// caching both off: every cell interprets, merges and builds every
	// batch, into its slots' own buffers.
	NoCacheSec float64 `json:"nocache_s"`
	// ScalarCacheSec runs with batch-stream caching off, so the sweep
	// caches scalar traces: each request is interpreted once per lane
	// position and every cell still merges and builds every batch.
	ScalarCacheSec float64 `json:"scalarcache_s"`
	// BatchCacheSec runs the default configuration: the batch-stream
	// cache alone (the first cell of a service prepares each batch
	// once; the other seven replay it).
	BatchCacheSec float64 `json:"batchcache_s"`
	// SampledSec runs the default configuration plus sampled timing
	// (Sample).
	SampledSec float64 `json:"batchcache_sampled_s"`
	// SpeedupVsScalar is ScalarCacheSec / BatchCacheSec.
	SpeedupVsScalar float64 `json:"speedup_vs_scalarcache"`
	// SpeedupVsNoCache is NoCacheSec / BatchCacheSec.
	SpeedupVsNoCache float64 `json:"speedup_vs_nocache"`
	// SpeedupSampled is NoCacheSec / SampledSec (caches + sampling
	// stacked against the uncached full-timing baseline).
	SpeedupSampled float64 `json:"speedup_sampled_vs_nocache"`
	// Identical reports whether the three unsampled runs rendered
	// byte-identical sweeps.
	Identical bool `json:"outputs_identical"`
	// Metrics snapshots the batch-cache run's obs registry
	// (trace.batchcache hits/misses/bypassed/bytes_hwm and the
	// prep-pipeline scopes; that run makes no trace.cache lookups)
	// when -studymetrics is set.
	Metrics obs.Snapshot `json:"metrics"`
}

// QueuesimPoint is one (mode, offered load) cell of the tail-at-scale
// study: completion accounting, the latency tail, and the arena
// engine's event throughput.
type QueuesimPoint struct {
	Mode        string  `json:"mode"`
	QPS         float64 `json:"qps"`
	Arrived     int     `json:"arrived"`
	Completed   int     `json:"completed"`
	Failed      int     `json:"failed"`
	TimedOut    int     `json:"timed_out"`
	Rejected    int     `json:"rejected"`
	P50         float64 `json:"p50_ms"`
	P99         float64 `json:"p99_ms"`
	P999        float64 `json:"p999_ms"`
	InFlightHWM int     `json:"inflight_hwm"`
	Events      uint64  `json:"events"`
	// CancelledTimers counts timers descheduled before they fired.
	CancelledTimers uint64  `json:"cancelled_timers"`
	WallSec         float64 `json:"wall_s"`
	EventsPerSec    float64 `json:"events_per_sec"`
}

// QueuesimEntry is one tail-at-scale trajectory point, written to
// BENCH_queuesim.json: the Figure 22 analog at 100x the paper's load.
type QueuesimEntry struct {
	Timestamp  string  `json:"timestamp"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	// Scheduler names the pending-event container: "calendar" (calendar
	// queue + timer wheel). Older entries also hold "heap" points from
	// the retired binary-heap scheduler, or omit the field.
	Scheduler string          `json:"scheduler,omitempty"`
	Points    []QueuesimPoint `json:"points"`
}

// GraphPoint is one bundled service graph's CPU-vs-RPU saturation
// comparison: the highest grid load each system sustains (tail
// blow-up heuristic, see TailMetrics.Saturated) plus the unloaded p99
// baselines the heuristic compared against.
type GraphPoint struct {
	Graph string `json:"graph"`
	// CPUSatQPS / RPUSatQPS are the highest grid loads the CPU and RPU
	// systems sustain without saturating.
	CPUSatQPS float64 `json:"cpu_sat_qps"`
	RPUSatQPS float64 `json:"rpu_sat_qps"`
	// Speedup is RPUSatQPS / CPUSatQPS — the paper's headline
	// "requests sustained per machine" ratio for this graph.
	Speedup float64 `json:"speedup"`
	// CPUBaseP99 / RPUBaseP99 are the p99 latencies (ms) at the lowest
	// grid load, the baselines for the saturation heuristic.
	CPUBaseP99 float64 `json:"cpu_base_p99_ms"`
	RPUBaseP99 float64 `json:"rpu_base_p99_ms"`
}

// GraphsEntry is one service-graph trajectory point, written to
// BENCH_graphs.json: per bundled GraphSpec, where the CPU and RPU
// systems saturate on the shared load grid.
type GraphsEntry struct {
	Timestamp  string       `json:"timestamp"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Points     []GraphPoint `json:"points"`
}

// studyMetrics gates the per-study registry snapshots; set from
// -studymetrics before the studies run.
var studyMetrics bool

func main() {
	requests := flag.Int("requests", 240, "requests per service for the chip-study measurements")
	seed := flag.Int64("seed", 42, "workload seed")
	workers := flag.Int("workers", 8, "sweep worker goroutines for the parallel/pipelined runs")
	seconds := flag.Float64("seconds", 1, "simulated seconds per syssim load point")
	out := flag.String("out", "BENCH_pipeline.json", "bench trajectory file to append to")
	perStudy := flag.Bool("studymetrics", true, "append per-study entries with metrics snapshots to BENCH_<study>.json")
	cacheSample := flag.String("cachesample", "4:3", "sample config for the batch-cache study's stacked run (PERIOD[:WARMUP])")
	only := flag.String("only", "", "run a single study and skip the rest (supported: queuesim)")
	cf := cli.Register(flag.CommandLine, cli.Profile|cli.Sample|cli.Interrupt)
	flag.Parse()
	if *only != "" && *only != "queuesim" {
		log.Fatalf("-only %q: unsupported study (supported: queuesim)", *only)
	}
	studyMetrics = *perStudy
	_, stop, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	scfg := sample.Default()
	// The seq-vs-pipelined pairs always run unsampled — they measure
	// the prep pipeline, and their entries record sample="off"
	// accordingly. The -sample flag chooses the config the dedicated
	// sampled-vs-full study measures (default 4:1).
	sample.SetDefault(sample.Config{})
	if !scfg.Sampling() {
		scfg = sample.Config{Period: 4, Warmup: 1}
	}

	suite := uservices.NewSuite()
	stamp := time.Now().UTC().Format(time.RFC3339)
	entry := BenchEntry{
		Timestamp:  stamp,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		Requests:   *requests,
		Seed:       *seed,
		Sample:     sample.Config{}.String(),
	}

	if *only == "" {
		studies := []StudyEntry{
			benchChipStudy(suite, *requests, *seed, *workers),
			benchBatchSweep(suite, *requests, *seed, *workers),
			benchSyssim(*seconds, *seed, *workers),
		}

		for _, s := range studies {
			entry.Results = append(entry.Results, s.Result)
			r := s.Result
			fmt.Printf("%-22s seq %7.3fs  pipelined %7.3fs  speedup %.2fx  identical=%v\n",
				r.Name, r.SeqSec, r.PipeSec, r.Speedup, r.Identical)
			if !r.Identical {
				log.Fatalf("%s: outputs differ between sequential and pipelined runs", r.Name)
			}
		}
		if err := appendJSON(*out, entry); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("appended to %s\n", *out)
		if studyMetrics {
			for _, s := range studies {
				s.Timestamp = stamp
				s.GoMaxProcs = entry.GoMaxProcs
				s.Workers = *workers
				s.Requests = *requests
				s.Seed = *seed
				s.Sample = entry.Sample
				path := "BENCH_" + s.Result.Name + ".json"
				if err := appendJSON(path, s); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("appended to %s\n", path)
			}
		}
	}

	qe := benchQueuesim(*seconds, *seed, *workers)
	for _, p := range qe.Points {
		fmt.Printf("%-22s qps %9.0f  done %8d  p99 %8.2fms  hwm %8d  %5.2f Mev/s\n",
			"queuesim-"+p.Mode, p.QPS, p.Completed, p.P99, p.InFlightHWM, p.EventsPerSec/1e6)
	}
	qe.Timestamp = stamp
	qe.GoMaxProcs = entry.GoMaxProcs
	if err := appendJSON("BENCH_queuesim.json", qe); err != nil {
		log.Fatal(err)
	}
	fmt.Println("appended to BENCH_queuesim.json")
	if *only == "queuesim" {
		return
	}

	ge := benchGraphs(*seconds, *seed, *workers)
	ge.Timestamp = stamp
	ge.GoMaxProcs = entry.GoMaxProcs
	for _, p := range ge.Points {
		fmt.Printf("%-22s cpu sat %7.0f qps  rpu sat %7.0f qps  speedup %.2fx\n",
			"graph-"+p.Graph, p.CPUSatQPS, p.RPUSatQPS, p.Speedup)
	}
	if err := appendJSON("BENCH_graphs.json", ge); err != nil {
		log.Fatal(err)
	}
	fmt.Println("appended to BENCH_graphs.json")

	ccfg, err := sample.Parse(*cacheSample)
	if err != nil || !ccfg.Sampling() {
		log.Fatalf("-cachesample %q: need PERIOD[:WARMUP] with PERIOD > 1", *cacheSample)
	}
	be := benchBatchCache(suite, *requests, *seed, *workers, ccfg)
	be.Timestamp = stamp
	be.GoMaxProcs = entry.GoMaxProcs
	fmt.Printf("%-22s nocache %7.3fs  scalar %7.3fs  batch %7.3fs  sampled %7.3fs\n",
		"batchcache-timing", be.NoCacheSec, be.ScalarCacheSec, be.BatchCacheSec, be.SampledSec)
	fmt.Printf("%-22s vs scalar %.2fx  vs nocache %.2fx  sampled vs nocache %.2fx  identical=%v\n",
		"", be.SpeedupVsScalar, be.SpeedupVsNoCache, be.SpeedupSampled, be.Identical)
	if !be.Identical {
		log.Fatal("batchcache-timing: outputs differ across cache configurations")
	}
	if err := appendJSON("BENCH_batchcache.json", be); err != nil {
		log.Fatal(err)
	}
	fmt.Println("appended to BENCH_batchcache.json")

	se := benchSampling(suite, *requests, *seed, *workers, scfg)
	se.Timestamp = stamp
	se.GoMaxProcs = entry.GoMaxProcs
	se.Workers = *workers
	se.Requests = *requests
	se.Seed = *seed
	fmt.Printf("%-22s full %7.3fs  sampled %7.3fs  speedup %.2fx  timed %d/%d\n",
		"sampling-"+se.Sample, se.FullSec, se.SampledSec, se.Speedup, se.TimedUnits, se.TotalUnits)
	for _, m := range se.Metrics {
		fmt.Printf("  %-20s geomean err %6.2f%%  max err %6.2f%%  reported CI %6.2f%%\n",
			m.Name, 100*m.GeoMeanErr, 100*m.MaxErr, 100*m.MeanRelCI)
	}
	if err := appendJSON("BENCH_sampling.json", se); err != nil {
		log.Fatal(err)
	}
	fmt.Println("appended to BENCH_sampling.json")
}

// benchSampling times the Figure 19 chip study fully simulated and
// under the given sampling config, then compares the two on the
// headline metrics (requests/joule and mean latency) cell by cell.
// Both runs use the same worker pool and seed; the sampled run's own
// CI estimates ride along so the trajectory records predicted next to
// realised error.
func benchSampling(suite *uservices.Suite, requests int, seed int64, workers int, scfg sample.Config) SamplingEntry {
	run := func() []core.ChipRow {
		rows, err := core.ChipStudyParallel(suite, requests, seed, false, workers)
		if err != nil {
			log.Fatal(err)
		}
		return rows
	}
	sample.SetDefault(sample.Config{})
	t0 := time.Now()
	full := run()
	fullSec := time.Since(t0).Seconds()

	sample.SetDefault(scfg)
	t1 := time.Now()
	sampled := run()
	sampledSec := time.Since(t1).Seconds()
	sample.SetDefault(sample.Config{})

	entry := SamplingEntry{
		Sample:     scfg.String(),
		FullSec:    fullSec,
		SampledSec: sampledSec,
		Speedup:    fullSec / sampledSec,
	}

	type accum struct {
		logSum float64
		maxErr float64
		ciSum  float64
		n      int
	}
	metrics := []struct {
		name string
		val  func(r *core.Result) float64
		ci   func(e *sample.Estimate) float64
	}{
		{"req_per_joule", (*core.Result).ReqPerJoule,
			func(e *sample.Estimate) float64 { return e.MaxRelCI() }},
		{"mean_latency", (*core.Result).AvgLatencySec,
			func(e *sample.Estimate) float64 { return e.Metric("cycles").RelCI95 }},
	}
	accums := make([]accum, len(metrics))
	for i := range full {
		pairs := [][2]*core.Result{
			{full[i].CPU, sampled[i].CPU},
			{full[i].SMT, sampled[i].SMT},
			{full[i].RPU, sampled[i].RPU},
			{full[i].GPU, sampled[i].GPU},
		}
		for _, p := range pairs {
			if p[0] == nil || p[1] == nil {
				continue
			}
			if est := p[1].Sampled; est != nil {
				entry.TimedUnits += est.Timed
				entry.TotalUnits += est.Units
			}
			for k, m := range metrics {
				ref := m.val(p[0])
				if ref == 0 {
					continue
				}
				err := math.Abs(m.val(p[1])-ref) / ref
				a := &accums[k]
				a.logSum += math.Log1p(err)
				if err > a.maxErr {
					a.maxErr = err
				}
				if est := p[1].Sampled; est != nil {
					a.ciSum += m.ci(est)
				}
				a.n++
			}
		}
	}
	for k, m := range metrics {
		a := accums[k]
		sm := SamplingMetric{Name: m.name}
		if a.n > 0 {
			sm.GeoMeanErr = math.Expm1(a.logSum / float64(a.n))
			sm.MaxErr = a.maxErr
			sm.MeanRelCI = a.ciSum / float64(a.n)
		}
		entry.Metrics = append(entry.Metrics, sm)
	}
	return entry
}

// benchBatchCache times the RPU timing-knob sweep — the workload the
// batch-stream cache targets: eight timing variants per service whose
// preparation (trace fetch, lock-step merge, uop build) is identical —
// under three cache configurations plus a sampled run, byte-comparing
// the unsampled outputs: no caches, the scalar-trace cache (which the
// sweep uses only with batch caching off), and the batch-stream cache
// (the default, with which the sweep skips the scalar-trace cache).
// Lookahead is pinned so all runs prep-pipeline identically and only
// the caching varies.
func benchBatchCache(suite *uservices.Suite, requests int, seed int64, workers int, scfg sample.Config) BatchCacheEntry {
	run := func() (float64, []byte) {
		t0 := time.Now()
		rows, err := core.TimingSweepParallel(suite, requests, seed, workers)
		if err != nil {
			log.Fatal(err)
		}
		sec := time.Since(t0).Seconds()
		var buf bytes.Buffer
		core.WriteTimingSweep(&buf, rows)
		return sec, buf.Bytes()
	}
	core.SetPrepLookahead(2)
	defer core.SetPrepLookahead(-1)

	core.SetTraceCaching(false)
	core.SetBatchCaching(false)
	noSec, noOut := run()

	core.SetTraceCaching(true)
	scalarSec, scalarOut := run()

	var reg *obs.Registry
	if studyMetrics {
		reg = obs.NewRegistry()
		obs.Enable(reg, nil)
	}
	core.SetBatchCaching(true)
	batchSec, batchOut := run()
	entry := BatchCacheEntry{
		Workers:          workers,
		Requests:         requests,
		Seed:             seed,
		NoCacheSec:       noSec,
		ScalarCacheSec:   scalarSec,
		BatchCacheSec:    batchSec,
		SpeedupVsScalar:  scalarSec / batchSec,
		SpeedupVsNoCache: noSec / batchSec,
		Identical:        bytes.Equal(noOut, scalarOut) && bytes.Equal(scalarOut, batchOut),
	}
	if reg != nil {
		entry.Metrics = reg.Snapshot()
		obs.Disable()
	}

	// Sampled timing stacks multiplicatively on the cache: warm units
	// replay cached streams through the functional path and skipped
	// units cost nothing, so the combination is the repo's fastest
	// full-sweep configuration. Its output legitimately differs (it is
	// an estimate), so it is timed but not byte-compared.
	sample.SetDefault(scfg)
	sampledSec, _ := run()
	sample.SetDefault(sample.Config{})
	entry.Sample = scfg.String()
	entry.SampledSec = sampledSec
	entry.SpeedupSampled = noSec / sampledSec
	return entry
}

// timed runs f and returns its wall-clock seconds alongside its output.
func timed(f func() []byte) (float64, []byte) {
	t0 := time.Now()
	b := f()
	return time.Since(t0).Seconds(), b
}

// pair runs the sequential oracle (prep lookahead pinned to 0, one
// sweep worker where the sequential baseline is a 1-worker sweep) and
// the pipelined configuration at a fixed lookahead — pinned rather
// than auto-derived so the pipeline engages regardless of how many
// CPUs the sweep pool already claims — restoring automatic lookahead
// afterward. With -studymetrics a fresh obs registry is installed for
// the study's duration and its snapshot rides along in the entry; both
// runs execute under the same instrumentation, so the speedup
// comparison stays fair.
func pair(name, config string, seq, pipe func() []byte) StudyEntry {
	var reg *obs.Registry
	if studyMetrics {
		reg = obs.NewRegistry()
		obs.Enable(reg, nil)
		defer obs.Disable()
	}
	core.SetPrepLookahead(0)
	seqSec, seqOut := timed(seq)
	core.SetPrepLookahead(2)
	pipeSec, pipeOut := timed(pipe)
	core.SetPrepLookahead(-1)
	e := StudyEntry{Result: BenchResult{
		Name:       name,
		SeqSec:     seqSec,
		PipeSec:    pipeSec,
		Speedup:    seqSec / pipeSec,
		Identical:  bytes.Equal(seqOut, pipeOut),
		WhatDiffer: config,
	}}
	if reg != nil {
		e.Metrics = reg.Snapshot()
	}
	return e
}

// benchChipStudy is the Figure 19 grid (the full chip study) with and
// without the prep pipeline, both on the same worker pool.
func benchChipStudy(suite *uservices.Suite, requests int, seed int64, workers int) StudyEntry {
	run := func(w int) []byte {
		rows, err := core.ChipStudyParallel(suite, requests, seed, false, w)
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		core.WriteFig19(&buf, rows)
		return buf.Bytes()
	}
	return pair("chipstudy-fig19", "lookahead=2", func() []byte { return run(workers) }, func() []byte { return run(workers) })
}

// benchBatchSweep is the §III-B3 single-service tuning sweep: few
// cells, long runs — the shape the intra-run pipeline targets.
func benchBatchSweep(suite *uservices.Suite, requests int, seed int64, workers int) StudyEntry {
	svc := suite.Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(seed)), requests)
	run := func() []byte {
		cpu, rows, err := core.BatchSweep(svc, reqs, []int{4, 8, 16, 32, 64}, workers)
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "cpu %d\n", cpu.Stats.Cycles)
		for _, r := range rows {
			fmt.Fprintf(&buf, "%d %d %.6f\n", r.Size, r.Res.Stats.Cycles, r.Res.Latency.Mean())
		}
		return buf.Bytes()
	}
	return pair("batchsweep-memc", "lookahead=2", run, run)
}

// benchSyssim is the 12-point Figure 22 grid: sequential loop vs the
// fanned-out sweep (the prep pipeline does not apply to queuesim; this
// measures the sweep parallelization).
func benchSyssim(seconds float64, seed int64, workers int) StudyEntry {
	modes := []struct{ rpu, split bool }{{false, false}, {true, false}, {true, true}}
	const points = 12
	run := func(w int) []byte {
		rows, err := core.RunCells(len(modes)*points, w, func(i int) (string, error) {
			cfg := queuesim.DefaultConfig()
			cfg.QPS = 70000 * float64(i%points+1) / points
			cfg.Seconds = seconds
			cfg.Warmup = seconds / 4
			cfg.Seed = seed
			cfg.RPU = modes[i/points].rpu
			cfg.Split = modes[i/points].split
			m := queuesim.Run(cfg)
			return fmt.Sprintf("%.0f %.2f %.2f\n", cfg.QPS, m.Latency.Percentile(99), m.Latency.Mean()), nil
		})
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range rows {
			buf.WriteString(r)
		}
		return buf.Bytes()
	}
	return pair("syssim-12pt", "parallel sweep", func() []byte { return run(1) }, func() []byte { return run(workers) })
}

// benchQueuesim sweeps the tail-at-scale engine over the 100x
// Figure 22 load grid (the paper's 70 kQPS ceiling times 100 machines)
// and records p99/p999 plus events/sec per cell. Three system modes:
// the CPU baseline, RPU with batch splitting, and the CPU system under
// an overload policy (timeout + one retry + bounded queues) — the
// regime where the drain/arrival-window accounting matters most.
func benchQueuesim(seconds float64, seed int64, workers int) QueuesimEntry {
	const scale = 100
	modes := []struct {
		name       string
		rpu, split bool
		policy     queuesim.PolicyConfig
	}{
		{"cpu", false, false, queuesim.PolicyConfig{}},
		{"rpu-split", true, true, queuesim.PolicyConfig{}},
		{"cpu-policy", false, false, queuesim.PolicyConfig{
			TimeoutMs: 150, MaxRetries: 1, BackoffMs: 5, QueueCap: 100000}},
	}
	loads := []float64{0.25, 0.5, 1.0}
	entry := QueuesimEntry{Workers: workers, Seed: seed, Scale: scale, Seconds: seconds,
		Scheduler: "calendar"}
	points, err := core.RunCells(len(modes)*len(loads), workers, func(i int) (QueuesimPoint, error) {
		mode := modes[i/len(loads)]
		cfg := queuesim.TailConfig{Config: queuesim.DefaultConfig(), Scale: scale,
			Policy: mode.policy}
		cfg.QPS = 70000 * scale * loads[i%len(loads)]
		cfg.Seconds = seconds
		cfg.Warmup = seconds / 4
		cfg.Drain = 2
		cfg.Seed = seed
		cfg.RPU = mode.rpu
		cfg.Split = mode.split
		t0 := time.Now()
		m, err := queuesim.RunTail(cfg)
		if err != nil {
			return QueuesimPoint{}, err
		}
		wall := time.Since(t0).Seconds()
		return QueuesimPoint{
			Mode: mode.name, QPS: cfg.QPS,
			Arrived: m.Arrived, Completed: m.Completed, Failed: m.Failed,
			TimedOut: m.TimedOut, Rejected: m.Rejected,
			P50: m.Latency.Percentile(50), P99: m.Latency.Percentile(99),
			P999:        m.Latency.Percentile(99.9),
			InFlightHWM: m.InFlightHWM, Events: m.Events,
			CancelledTimers: m.CancelledTimers, WallSec: wall,
			EventsPerSec: float64(m.Events) / wall,
		}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	entry.Points = points
	return entry
}

// graphLoads is the shared QPS grid for the service-graph saturation
// study: roughly geometric so it brackets both the CPU knees (15–35
// kQPS at scale 1) and the RPU knees (60–200 kQPS).
var graphLoads = []float64{2000, 4000, 8000, 12000, 16000, 24000, 32000,
	48000, 64000, 96000, 128000, 192000}

// benchGraphs sweeps every bundled GraphSpec over the shared load grid
// in CPU and RPU (split) mode at scale 1 and records where each system
// saturates. All cells run through the deterministic parallel sweep;
// the saturation scan itself is a cheap post-pass over the grid.
func benchGraphs(seconds float64, seed int64, workers int) GraphsEntry {
	names := queuesim.GraphNames()
	modes := []bool{false, true} // rpu?
	cells := len(names) * len(modes) * len(graphLoads)
	perMode := len(graphLoads)
	points, err := core.RunCells(cells, workers, func(i int) (*queuesim.TailMetrics, error) {
		name := names[i/(len(modes)*perMode)]
		rpu := modes[i/perMode%len(modes)]
		spec, err := queuesim.GraphByName(name, queuesim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		cfg := queuesim.TailConfig{Config: queuesim.DefaultConfig(), Scale: 1, Graph: spec}
		cfg.QPS = graphLoads[i%perMode]
		cfg.Seconds = seconds
		cfg.Warmup = seconds / 4
		cfg.Drain = 5
		cfg.Seed = seed
		cfg.RPU = rpu
		cfg.Split = rpu
		return queuesim.RunTail(cfg)
	})
	if err != nil {
		log.Fatal(err)
	}
	entry := GraphsEntry{Workers: workers, Seed: seed, Seconds: seconds}
	// satQPS scans one mode's grid slice ascending: the knee is the
	// highest load before the first saturated point.
	satQPS := func(ms []*queuesim.TailMetrics) (float64, float64) {
		base := ms[0].Latency.Percentile(99)
		sat := graphLoads[0]
		for j, m := range ms {
			if m.Saturated(base) {
				break
			}
			sat = graphLoads[j]
		}
		return sat, base
	}
	for gi, name := range names {
		cpu := points[gi*2*perMode : gi*2*perMode+perMode]
		rpu := points[gi*2*perMode+perMode : (gi+1)*2*perMode]
		cpuSat, cpuBase := satQPS(cpu)
		rpuSat, rpuBase := satQPS(rpu)
		entry.Points = append(entry.Points, GraphPoint{
			Graph: name, CPUSatQPS: cpuSat, RPUSatQPS: rpuSat,
			Speedup: rpuSat / cpuSat, CPUBaseP99: cpuBase, RPUBaseP99: rpuBase,
		})
	}
	return entry
}

// appendJSON appends entry to the JSON array in path, creating the
// file when absent. Existing entries are kept verbatim, so trajectory
// files written by older schema versions keep accumulating.
func appendJSON(path string, entry any) error {
	var entries []json.RawMessage
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &entries); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	entries = append(entries, raw)
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
