package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"simr/internal/obs"
)

// repRecord is what a child process reports about its one rep, as the
// last line of its standard output.
type repRecord struct {
	Wall      float64            `json:"wall_s"`
	AllocMB   float64            `json:"alloc_mb"`
	SimReqs   float64            `json:"sim_reqs"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	GCCycles  float64            `json:"gc_cycles"`
	GCCPU     float64            `json:"gc_cpu_s"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"ops_failed"`
	Digest    string             `json:"digest"`
	Sim       map[string]float64 `json:"sim,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// readyLine is printed by a child just before its measured call; the
// parent's set-up time for the rep ends when it reads the line.
const readyLine = "ready"

// childMain runs one rep of one workload in this fresh process. An
// untraced rep measures the call with nothing attached; a traced rep
// runs it under an obs registry and queuesim Monitors (Phase A). With
// -probes the child runs the layer probes (Phase B) instead.
func childMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", 42, "")
	quickSize := fs.Bool("quick", false, "")
	traced := fs.Bool("traced", false, "")
	probes := fs.Bool("probes", false, "")
	failOp := fs.Bool("fail-op", false, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz := full
	if *quickSize {
		sz = quick
	}
	if *probes {
		fmt.Fprintln(stdout, readyLine)
		return json.NewEncoder(stdout).Encode(probeRep(sz, *seed))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	call := w.prepare(sz, *seed)
	fmt.Fprintln(stdout, readyLine)

	var (
		rec repRecord
		out outcome
		err error
	)
	if *traced {
		out, err = tracedRep(w, call, &rec)
	} else {
		out, err = untracedRep(call, &rec)
	}
	if err != nil {
		rec.Error = err.Error()
		rec.Ops, rec.Failed = 1, 1
	} else {
		if *failOp && out.failed < out.ops {
			out.failed++
		}
		rec.Ops, rec.Failed = out.ops, out.failed
		rec.SimReqs = out.simReqs
		rec.Digest = out.digest()
		rec.Sim = out.sim
	}
	return json.NewEncoder(stdout).Encode(rec)
}

// probeRep runs the Phase B probes as one op.
func probeRep(sz sizing, seed int64) repRecord {
	tr := newTracer()
	rec := repRecord{Ops: 1, Layers: map[string]float64{}}
	t0 := time.Now()
	if err := phaseB(sz, seed, tr, rec.Layers); err != nil {
		rec.Failed, rec.Error = 1, err.Error()
	}
	rec.Wall = time.Since(t0).Seconds()
	rec.Spans = tr.finish()
	return rec
}

func untracedRep(call measured, rec *repRecord) (outcome, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	t0 := time.Now()
	out, err := call(nil)
	rec.Wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	rec.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	rec.GCCycles = float64(m1.NumGC - m0.NumGC)
	rec.GCCPU = gcCPUSeconds() - gc0
	rec.PeakRSSMB = peakRSSMB()
	return out, err
}

// tracedRep is Phase A: it repeats the measured call with an obs
// registry and queuesim Monitors attached and reads the counters the
// program keeps.
func tracedRep(w workload, call measured, rec *repRecord) (outcome, error) {
	tr := newTracer()
	reg := obs.NewRegistry()
	root := tr.begin("phaseA", w.name, -1)
	obs.Enable(reg, nil)
	id := tr.begin("measured", w.name, root)
	out, err := call(&phaseA{reg: reg, spans: tr, parent: id})
	wall := tr.end(id)
	obs.Disable()
	tr.end(root)
	if err != nil {
		return out, err
	}
	rec.Wall = float64(wall) / 1e9
	rec.Layers = map[string]float64{}
	phaseALayers(reg.Snapshot(), rec.Layers)
	for k, v := range out.sim {
		rec.Layers[k] = v
	}
	var cells []float64
	for _, s := range tr.finish() {
		if s.Name == "queuesim.cell" {
			cells = append(cells, float64(s.End-s.Start))
		}
	}
	if len(cells) > 0 {
		sort.Float64s(cells)
		rec.Layers["queuesim.fig22.cell_skew"] = cells[len(cells)-1] / median(cells)
	}
	rec.Spans = tr.finish()
	return out, nil
}

// phaseALayers reads the per-layer counters of the workload's traced rep
// from its registry snapshot.
func phaseALayers(snap obs.Snapshot, layers map[string]float64) {
	scopes := map[string]obs.ScopeSnapshot{}
	for _, s := range snap.Scopes {
		scopes[s.Name] = s
	}
	val := func(scope, name string) float64 {
		s := scopes[scope]
		if v, ok := s.Counters[name]; ok {
			return float64(v)
		}
		return float64(s.Gauges[name])
	}
	for _, c := range []string{"trace.cache", "trace.batchcache"} {
		for _, n := range []string{"hits", "misses", "bypassed", "bytes_hwm"} {
			layers[c+"."+n] = val(c, n)
		}
	}
	hits, misses := val("trace.batchcache", "hits"), val("trace.batchcache", "misses")
	if hits+misses > 0 {
		layers["trace.batchcache.hit_ratio"] = hits / (hits + misses)
	}
	prep, consume := val("core.prep", "prep_ns"), val("core.prep", "consume_ns")
	if prep+consume > 0 {
		layers["core.prep.prep_share"] = prep / (prep + consume)
	}
	if wall := val("core.runcells", "wall_ns"); wall > 0 {
		layers["core.runcells.utilization"] = val("core.runcells", "busy_ns") / (wall * val("core.runcells", "workers_hwm"))
		layers["core.runcells.slowest_cell_share"] = val("core.runcells", "slowest_cell_ns_hwm") / wall
	}
	for _, c := range schedCounters {
		layers["queuesim.sched."+c] = val("queuesim.sched", c)
	}
	// A tail workload's stations report under queuesim.<station>; each
	// Figure 22 cell's under queuesim.<cell label>.<station>, which are
	// merged here: high-water marks by maximum, sojourns by overall mean
	// (summed in the snapshot's name order, so the mean is reproducible).
	for _, st := range socialStations {
		var qHWM, busyHWM, sum, n float64
		for _, s := range snap.Scopes {
			if !strings.HasPrefix(s.Name, "queuesim.") || !strings.HasSuffix(s.Name, "."+st) {
				continue
			}
			qHWM = max(qHWM, float64(s.Gauges["queue_hwm"]))
			busyHWM = max(busyHWM, float64(s.Gauges["busy_hwm"]))
			h := s.Histograms["sojourn_ms"]
			sum += h.Sum
			n += float64(h.Count)
		}
		layers["queuesim."+st+".queue_hwm"] = qHWM
		layers["queuesim."+st+".busy_hwm"] = busyHWM
		if n > 0 {
			layers["queuesim."+st+".sojourn_ms_mean"] = sum / n
		}
	}
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
