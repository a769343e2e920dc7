// Command benchjson runs the trajectory studies and appends one
// machine-readable entry per study to its BENCH_<study>.json file: the
// tail-at-scale sweep (BENCH_queuesim.json), the service-graph
// saturation sweep (BENCH_graphs.json) and the batch-stream cache
// study (BENCH_batchcache.json). The cache study byte-compares the
// outputs of the configurations it times against each other, so its
// trajectory only ever records speedups of equivalent computations.
//
// Usage:
//
//	benchjson [-requests 240] [-seed 42] [-workers 8] [-seconds 1] [-only queuesim]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"simr/internal/cli"
	"simr/internal/core"
	"simr/internal/obs"
	"simr/internal/queuesim"
	"simr/internal/uservices"
)

// BatchCacheEntry is one batch-stream-cache trajectory point, written
// to BENCH_batchcache.json: the §V-A1 sensitivity study, whose
// timing-only ablations (32 lanes, atomics at L1, no majority voting)
// replay the baseline's batch streams and whose layout ablations and
// CPU prefetcher run replay its scalar traces, timed with no caches,
// with the scalar trace cache only, and with both caches (the
// default). The three runs are byte-compared, so the trajectory only
// ever records speedups of equivalent computations. Entries written
// before the timing sweep stopped caching (it now prepares each batch
// once for all eight of a service's variants) timed that sweep
// instead; entries written before sampled timing simulation was
// deleted also carry a sampled run (sample, batchcache_sampled_s,
// speedup_sampled_vs_nocache).
type BatchCacheEntry struct {
	Timestamp  string `json:"timestamp"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Requests   int    `json:"requests"`
	Seed       int64  `json:"seed"`
	// NoCacheSec runs with scalar trace caching and batch-stream
	// caching both off: every cell interprets, merges and builds every
	// batch, into its slots' own buffers.
	NoCacheSec float64 `json:"nocache_s"`
	// ScalarCacheSec runs with batch-stream caching off, so the sweep
	// caches scalar traces: each request is interpreted once per lane
	// position and every cell still merges and builds every batch.
	ScalarCacheSec float64 `json:"scalarcache_s"`
	// BatchCacheSec runs the default configuration: the batch-stream
	// cache on top of the scalar trace cache (the ablations that only
	// retime the baseline replay its prepared batches).
	BatchCacheSec float64 `json:"batchcache_s"`
	// SpeedupVsScalar is ScalarCacheSec / BatchCacheSec.
	SpeedupVsScalar float64 `json:"speedup_vs_scalarcache"`
	// SpeedupVsNoCache is NoCacheSec / BatchCacheSec.
	SpeedupVsNoCache float64 `json:"speedup_vs_nocache"`
	// Identical reports whether the three runs rendered byte-identical
	// sweeps.
	Identical bool `json:"outputs_identical"`
	// Metrics snapshots the both-caches run's obs registry
	// (trace.cache and trace.batchcache hits/misses/bypassed/bytes_hwm
	// and the core.prep and core.runcells scopes).
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

func main() {
	requests := flag.Int("requests", 240, "requests per service for the chip-study measurements")
	seed := flag.Int64("seed", 42, "workload seed")
	workers := flag.Int("workers", 8, "sweep worker goroutines")
	seconds := flag.Float64("seconds", 1, "simulated seconds per syssim load point")
	only := flag.String("only", "", "run a single study and skip the rest (supported: queuesim)")
	cf := cli.Register(flag.CommandLine, cli.Profile|cli.Interrupt)
	flag.Parse()
	if *only != "" && *only != "queuesim" {
		log.Fatalf("-only %q: unsupported study (supported: queuesim)", *only)
	}
	_, stop, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	suite := uservices.NewSuite()
	stamp := time.Now().UTC().Format(time.RFC3339)
	gomaxprocs := runtime.GOMAXPROCS(0)

	qe := benchQueuesim(*seconds, *seed, *workers)
	for _, p := range qe.Points {
		fmt.Printf("%-22s qps %9.0f  done %8d  p99 %8.2fms  hwm %8d  %5.2f Mev/s\n",
			"queuesim-"+p.Mode, p.QPS, p.Completed, p.P99, p.InFlightHWM, p.EventsPerSec/1e6)
	}
	qe.Timestamp = stamp
	qe.GoMaxProcs = gomaxprocs
	if err := appendJSON("BENCH_queuesim.json", qe); err != nil {
		log.Fatal(err)
	}
	fmt.Println("appended to BENCH_queuesim.json")
	if *only == "queuesim" {
		return
	}

	ge := benchGraphs(*seconds, *seed, *workers)
	ge.Timestamp = stamp
	ge.GoMaxProcs = gomaxprocs
	for _, p := range ge.Points {
		fmt.Printf("%-22s cpu sat %7.0f qps  rpu sat %7.0f qps  speedup %.2fx\n",
			"graph-"+p.Graph, p.CPUSatQPS, p.RPUSatQPS, p.Speedup)
	}
	if err := appendJSON("BENCH_graphs.json", ge); err != nil {
		log.Fatal(err)
	}
	fmt.Println("appended to BENCH_graphs.json")

	be := benchBatchCache(suite, *requests, *seed, *workers)
	be.Timestamp = stamp
	be.GoMaxProcs = gomaxprocs
	fmt.Printf("%-22s nocache %7.3fs  scalar %7.3fs  batch %7.3fs\n",
		"batchcache-sensitivity", be.NoCacheSec, be.ScalarCacheSec, be.BatchCacheSec)
	fmt.Printf("%-22s vs scalar %.2fx  vs nocache %.2fx  identical=%v\n",
		"", be.SpeedupVsScalar, be.SpeedupVsNoCache, be.Identical)
	if !be.Identical {
		log.Fatal("batchcache-sensitivity: outputs differ across cache configurations")
	}
	if err := appendJSON("BENCH_batchcache.json", be); err != nil {
		log.Fatal(err)
	}
	fmt.Println("appended to BENCH_batchcache.json")
}

// benchBatchCache times the §V-A1 sensitivity study — the sweep whose
// cells replay batch streams: its timing-only ablations retime the
// baseline's prepared batches — under three cache configurations,
// byte-comparing their outputs: no caches, the scalar-trace cache
// alone, and both caches (the default).
func benchBatchCache(suite *uservices.Suite, requests int, seed int64, workers int) BatchCacheEntry {
	run := func() (float64, []byte) {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := core.SensitivityStudyParallel(&buf, suite, nil, requests, seed, workers); err != nil {
			log.Fatal(err)
		}
		return time.Since(t0).Seconds(), buf.Bytes()
	}
	core.SetTraceCaching(false)
	core.SetBatchCaching(false)
	noSec, noOut := run()

	core.SetTraceCaching(true)
	scalarSec, scalarOut := run()

	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
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
		Metrics:          reg.Snapshot(),
	}
	obs.Disable()
	return entry
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
