// Command obscheck validates the machine-readable observability
// artifacts the study drivers emit: a -metrics registry snapshot
// (scopes present, every name non-empty, every counter non-negative)
// and/or a -trace Chrome-trace timeline (a JSON array of events, each
// carrying ph, ts and name — the shape chrome://tracing and Perfetto
// load). CI runs it against the bench-smoke outputs; exit status 0
// means the files are well-formed.
//
// It also validates BENCH_queuesim.json trajectories (-queuesim):
// every tail-at-scale entry must carry well-formed sweep points with
// positive loads and wall clocks, ordered latency percentiles, and
// completion accounting that never exceeds arrivals.
//
// And BENCH_batchcache.json trajectories (-batchcache): every entry
// must be self-describing, carry positive wall clocks for all three
// cache configurations (and for the sampled run that entries written
// before sampled simulation was deleted also carry), internally
// consistent speedup ratios, and byte-identical outputs.
//
// And BENCH_graphs.json trajectories (-graphs): every service-graph
// entry must carry uniquely named graphs with positive saturation
// loads and a speedup that equals the recorded RPU/CPU ratio.
//
// Usage:
//
//	obscheck [-metrics out.json] [-trace out.trace.json] [-queuesim BENCH_queuesim.json] [-graphs BENCH_graphs.json] [-batchcache BENCH_batchcache.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
)

func main() {
	metrics := flag.String("metrics", "", "metrics snapshot JSON to validate")
	trace := flag.String("trace", "", "Chrome-trace JSON to validate")
	qsim := flag.String("queuesim", "", "BENCH_queuesim.json trajectory to validate")
	graphs := flag.String("graphs", "", "BENCH_graphs.json trajectory to validate")
	bcache := flag.String("batchcache", "", "BENCH_batchcache.json trajectory to validate")
	flag.Parse()
	if *metrics == "" && *trace == "" && *qsim == "" && *graphs == "" && *bcache == "" {
		log.Fatal("obscheck: give -metrics, -trace, -queuesim, -graphs and/or -batchcache")
	}
	if *metrics != "" {
		if err := checkMetrics(*metrics); err != nil {
			log.Fatalf("obscheck: %s: %v", *metrics, err)
		}
		fmt.Printf("%s: metrics snapshot ok\n", *metrics)
	}
	if *trace != "" {
		if err := checkTrace(*trace); err != nil {
			log.Fatalf("obscheck: %s: %v", *trace, err)
		}
		fmt.Printf("%s: trace ok\n", *trace)
	}
	if *qsim != "" {
		if err := checkQueuesim(*qsim); err != nil {
			log.Fatalf("obscheck: %s: %v", *qsim, err)
		}
		fmt.Printf("%s: queuesim trajectory ok\n", *qsim)
	}
	if *graphs != "" {
		if err := checkGraphs(*graphs); err != nil {
			log.Fatalf("obscheck: %s: %v", *graphs, err)
		}
		fmt.Printf("%s: graphs trajectory ok\n", *graphs)
	}
	if *bcache != "" {
		if err := checkBatchCache(*bcache); err != nil {
			log.Fatalf("obscheck: %s: %v", *bcache, err)
		}
		fmt.Printf("%s: batchcache trajectory ok\n", *bcache)
	}
}

// checkBatchCache enforces the BENCH_batchcache.json schema benchjson
// writes: an array of cache-configuration timing entries whose speedup
// ratios match their wall clocks and whose runs rendered
// byte-identically. An entry that names a sampled run (sample, from
// before sampled simulation was deleted) must time it consistently
// too; one that does not must carry no sampled timings.
func checkBatchCache(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []struct {
		Timestamp        string  `json:"timestamp"`
		GoMaxProcs       int     `json:"gomaxprocs"`
		Workers          int     `json:"workers"`
		Requests         int     `json:"requests"`
		Sample           string  `json:"sample"`
		NoCacheSec       float64 `json:"nocache_s"`
		ScalarCacheSec   float64 `json:"scalarcache_s"`
		BatchCacheSec    float64 `json:"batchcache_s"`
		SampledSec       float64 `json:"batchcache_sampled_s"`
		SpeedupVsScalar  float64 `json:"speedup_vs_scalarcache"`
		SpeedupVsNoCache float64 `json:"speedup_vs_nocache"`
		SpeedupSampled   float64 `json:"speedup_sampled_vs_nocache"`
		Identical        bool    `json:"outputs_identical"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		return fmt.Errorf("not a batchcache trajectory: %w", err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("no entries recorded")
	}
	for i, e := range entries {
		if e.Timestamp == "" {
			return fmt.Errorf("entry %d: missing timestamp", i)
		}
		if e.GoMaxProcs < 1 {
			return fmt.Errorf("entry %d: gomaxprocs %d", i, e.GoMaxProcs)
		}
		if e.Requests < 1 {
			return fmt.Errorf("entry %d: requests %d", i, e.Requests)
		}
		type ratio struct {
			name      string
			num, den  float64
			announced float64
		}
		walls := []float64{e.NoCacheSec, e.ScalarCacheSec, e.BatchCacheSec}
		checks := []ratio{
			{"speedup_vs_scalarcache", e.ScalarCacheSec, e.BatchCacheSec, e.SpeedupVsScalar},
			{"speedup_vs_nocache", e.NoCacheSec, e.BatchCacheSec, e.SpeedupVsNoCache},
		}
		switch {
		case e.Sample == "off":
			return fmt.Errorf("entry %d: sampled run config %q", i, e.Sample)
		case e.Sample != "":
			walls = append(walls, e.SampledSec)
			checks = append(checks, ratio{"speedup_sampled_vs_nocache", e.NoCacheSec, e.SampledSec, e.SpeedupSampled})
		case e.SampledSec != 0 || e.SpeedupSampled != 0:
			return fmt.Errorf("entry %d: sampled timings without a sampled run config", i)
		}
		for _, v := range walls {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("entry %d: non-positive wall clock %v", i, v)
			}
		}
		for _, c := range checks {
			want := c.num / c.den
			if math.Abs(c.announced-want) > 1e-9*want {
				return fmt.Errorf("entry %d: %s says %v, wall clocks say %v", i, c.name, c.announced, want)
			}
		}
		if !e.Identical {
			return fmt.Errorf("entry %d: outputs were not byte-identical", i)
		}
	}
	return nil
}

// checkQueuesim enforces the BENCH_queuesim.json schema benchjson
// writes: an array of tail-at-scale sweep entries, each with ordered
// percentiles and consistent completion accounting per point.
func checkQueuesim(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []struct {
		Timestamp  string  `json:"timestamp"`
		GoMaxProcs int     `json:"gomaxprocs"`
		Scale      float64 `json:"scale"`
		Seconds    float64 `json:"seconds"`
		// Scheduler is optional: entries predate the calendar-queue
		// switch; present values must name a real scheduler.
		Scheduler string `json:"scheduler"`
		Points    []struct {
			Mode            string  `json:"mode"`
			QPS             float64 `json:"qps"`
			Arrived         int     `json:"arrived"`
			Completed       int     `json:"completed"`
			Failed          int     `json:"failed"`
			TimedOut        int     `json:"timed_out"`
			Rejected        int     `json:"rejected"`
			P50             float64 `json:"p50_ms"`
			P99             float64 `json:"p99_ms"`
			P999            float64 `json:"p999_ms"`
			InFlightHWM     int     `json:"inflight_hwm"`
			Events          uint64  `json:"events"`
			CancelledTimers uint64  `json:"cancelled_timers"`
			WallSec         float64 `json:"wall_s"`
			EventsPerSec    float64 `json:"events_per_sec"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		return fmt.Errorf("not a queuesim trajectory: %w", err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("no entries recorded")
	}
	for i, e := range entries {
		if e.Timestamp == "" {
			return fmt.Errorf("entry %d: missing timestamp", i)
		}
		if e.GoMaxProcs < 1 {
			return fmt.Errorf("entry %d: gomaxprocs %d", i, e.GoMaxProcs)
		}
		if e.Scale < 1 {
			return fmt.Errorf("entry %d: scale %v", i, e.Scale)
		}
		if e.Seconds <= 0 {
			return fmt.Errorf("entry %d: seconds %v", i, e.Seconds)
		}
		if e.Scheduler != "" && e.Scheduler != "heap" && e.Scheduler != "calendar" {
			return fmt.Errorf("entry %d: unknown scheduler %q", i, e.Scheduler)
		}
		if len(e.Points) == 0 {
			return fmt.Errorf("entry %d: no sweep points", i)
		}
		for j, p := range e.Points {
			if p.Mode == "" {
				return fmt.Errorf("entry %d point %d: empty mode", i, j)
			}
			if p.QPS <= 0 {
				return fmt.Errorf("entry %d point %d: qps %v", i, j, p.QPS)
			}
			if p.Arrived < 1 {
				return fmt.Errorf("entry %d point %d: arrived %d", i, j, p.Arrived)
			}
			if p.Completed < 0 || p.Failed < 0 || p.Completed+p.Failed > p.Arrived {
				return fmt.Errorf("entry %d point %d: completed %d + failed %d vs arrived %d",
					i, j, p.Completed, p.Failed, p.Arrived)
			}
			if p.TimedOut < 0 || p.Rejected < 0 || p.InFlightHWM < 1 {
				return fmt.Errorf("entry %d point %d: negative policy counters or hwm %d",
					i, j, p.InFlightHWM)
			}
			for _, v := range []float64{p.P50, p.P99, p.P999} {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("entry %d point %d: bad percentile %v", i, j, v)
				}
			}
			if p.Completed > 0 && !(p.P50 <= p.P99 && p.P99 <= p.P999) {
				return fmt.Errorf("entry %d point %d: percentiles out of order %v/%v/%v",
					i, j, p.P50, p.P99, p.P999)
			}
			if p.Events < 1 || p.WallSec <= 0 || p.EventsPerSec <= 0 {
				return fmt.Errorf("entry %d point %d: events %d wall %v eps %v",
					i, j, p.Events, p.WallSec, p.EventsPerSec)
			}
		}
	}
	return nil
}

// checkGraphs enforces the BENCH_graphs.json schema benchjson writes:
// an array of service-graph saturation entries, each carrying uniquely
// named graphs whose saturation loads are positive, whose speedup is
// exactly the recorded RPU/CPU ratio, and whose baseline percentiles
// are finite and non-negative.
func checkGraphs(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []struct {
		Timestamp  string  `json:"timestamp"`
		GoMaxProcs int     `json:"gomaxprocs"`
		Workers    int     `json:"workers"`
		Seconds    float64 `json:"seconds"`
		Points     []struct {
			Graph      string  `json:"graph"`
			CPUSatQPS  float64 `json:"cpu_sat_qps"`
			RPUSatQPS  float64 `json:"rpu_sat_qps"`
			Speedup    float64 `json:"speedup"`
			CPUBaseP99 float64 `json:"cpu_base_p99_ms"`
			RPUBaseP99 float64 `json:"rpu_base_p99_ms"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		return fmt.Errorf("not a graphs trajectory: %w", err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("no entries recorded")
	}
	for i, e := range entries {
		if e.Timestamp == "" {
			return fmt.Errorf("entry %d: missing timestamp", i)
		}
		if e.GoMaxProcs < 1 {
			return fmt.Errorf("entry %d: gomaxprocs %d", i, e.GoMaxProcs)
		}
		if e.Seconds <= 0 {
			return fmt.Errorf("entry %d: seconds %v", i, e.Seconds)
		}
		if len(e.Points) == 0 {
			return fmt.Errorf("entry %d: no graph points", i)
		}
		seen := map[string]bool{}
		for j, p := range e.Points {
			if p.Graph == "" {
				return fmt.Errorf("entry %d point %d: empty graph name", i, j)
			}
			if seen[p.Graph] {
				return fmt.Errorf("entry %d: duplicate graph %q", i, p.Graph)
			}
			seen[p.Graph] = true
			if p.CPUSatQPS <= 0 || p.RPUSatQPS <= 0 {
				return fmt.Errorf("entry %d graph %q: saturation loads %v/%v",
					i, p.Graph, p.CPUSatQPS, p.RPUSatQPS)
			}
			want := p.RPUSatQPS / p.CPUSatQPS
			if math.Abs(p.Speedup-want) > 1e-9*math.Abs(want) {
				return fmt.Errorf("entry %d graph %q: speedup %v != rpu/cpu %v",
					i, p.Graph, p.Speedup, want)
			}
			for _, v := range []float64{p.CPUBaseP99, p.RPUBaseP99} {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("entry %d graph %q: bad baseline p99 %v", i, p.Graph, v)
				}
			}
		}
	}
	return nil
}

// checkMetrics enforces the snapshot schema: a top-level scopes array,
// non-empty scope and instrument names, non-negative counters and
// histogram counts consistent with their bucket sums.
func checkMetrics(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap struct {
		Scopes []struct {
			Name       string           `json:"name"`
			Counters   map[string]int64 `json:"counters"`
			Gauges     map[string]int64 `json:"gauges"`
			Histograms map[string]struct {
				Bounds []float64 `json:"bounds"`
				Counts []int64   `json:"counts"`
				Count  int64     `json:"count"`
			} `json:"histograms"`
		} `json:"scopes"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("not a snapshot: %w", err)
	}
	if len(snap.Scopes) == 0 {
		return fmt.Errorf("no scopes recorded")
	}
	for _, sc := range snap.Scopes {
		if sc.Name == "" {
			return fmt.Errorf("scope with empty name")
		}
		for name, v := range sc.Counters {
			if name == "" {
				return fmt.Errorf("scope %s: counter with empty name", sc.Name)
			}
			if v < 0 {
				return fmt.Errorf("scope %s: counter %s is negative (%d)", sc.Name, name, v)
			}
		}
		for name, h := range sc.Histograms {
			if len(h.Counts) != len(h.Bounds)+1 {
				return fmt.Errorf("scope %s: histogram %s has %d counts for %d bounds",
					sc.Name, name, len(h.Counts), len(h.Bounds))
			}
			total := int64(0)
			for i, c := range h.Counts {
				if c < 0 {
					return fmt.Errorf("scope %s: histogram %s bucket %d negative", sc.Name, name, i)
				}
				total += c
			}
			if total != h.Count {
				return fmt.Errorf("scope %s: histogram %s buckets sum to %d, count says %d",
					sc.Name, name, total, h.Count)
			}
		}
		// The prep-cache scopes have a fixed instrument contract: a
		// snapshot that carries one must carry all of its counters and
		// the retained-bytes high-water gauge.
		if sc.Name == "trace.cache" || sc.Name == "trace.batchcache" {
			for _, want := range []string{"hits", "misses", "bypassed", "drops", "dropped_bytes"} {
				if _, ok := sc.Counters[want]; !ok {
					return fmt.Errorf("scope %s: missing counter %s", sc.Name, want)
				}
			}
			if _, ok := sc.Gauges["bytes_hwm"]; !ok {
				return fmt.Errorf("scope %s: missing gauge bytes_hwm", sc.Name)
			}
		}
	}
	return nil
}

// checkTrace enforces the Trace Event Format array shape.
func checkTrace(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var evs []map[string]any
	if err := json.Unmarshal(raw, &evs); err != nil {
		return fmt.Errorf("not a JSON array of events: %w", err)
	}
	for i, e := range evs {
		if _, ok := e["name"].(string); !ok {
			return fmt.Errorf("event %d: missing name", i)
		}
		ph, ok := e["ph"].(string)
		if !ok || ph == "" {
			return fmt.Errorf("event %d: missing ph", i)
		}
		if _, ok := e["ts"].(float64); !ok {
			return fmt.Errorf("event %d: missing ts", i)
		}
	}
	return nil
}
