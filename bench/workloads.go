package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"simr"
	"simr/internal/core"
	"simr/internal/obs"
	"simr/internal/queuesim"
	"simr/internal/stats"
	"simr/internal/uservices"
)

// sizing fixes every workload's input size. full is the benchmark; quick
// keeps the package's own tests fast, and warms the host before a run.
type sizing struct {
	services       int // suite services the chip workloads run
	fig19Requests  int // chip-fig19 requests per service
	timingRequests int // chip-timing requests per service

	overloadScale float64 // machine sets behind every tail-overload station
	policyScale   float64 // the same for tail-policy
	overloadSec   float64 // tail-overload arrival window, simulated seconds
	policySec     float64 // tail-policy arrival window, simulated seconds
	fig22Loads    int     // fig22-sweep load points per mode
	fig22Sec      float64 // fig22-sweep simulated seconds per cell

	// Phase B probe sizes (see phaseb.go).
	probeRequests int     // requests per service of the prep probe
	probeScale    float64 // machine sets of the RunTail probe
	probeSec      float64 // RunTail probe arrival window
	holdSmall     int     // hold-model populations
	holdLarge     int
	holdOps       int // events per hold or timer probe
}

// The full sizing keeps chip-fig19 and tail-overload at the paper's and
// the repository's own sizes: 2400 requests per service, whose prepared
// traces overflow the 512 MiB trace-cache budget, and the social graph at
// 100 machine sets. chip-timing stays below the budget, so one chip
// workload sits on each side of it. tail-policy and fig22-sweep are
// scaled down (25 sets; 1-s cells instead of 8-s ones) because a run of
// 3 reps of every workload at full size would not fit the run budget
// (see README.md).
var (
	full = sizing{services: 15, fig19Requests: 2400, timingRequests: 240,
		overloadScale: 100, policyScale: 25, overloadSec: 0.5, policySec: 1,
		fig22Loads: 12, fig22Sec: 1, probeRequests: 96, probeScale: 4, probeSec: 1,
		holdSmall: 1e4, holdLarge: 1e6, holdOps: 2e6}
	quick = sizing{services: 3, fig19Requests: 16, timingRequests: 16,
		overloadScale: 1, policyScale: 1, overloadSec: 0.2, policySec: 0.2,
		fig22Loads: 3, fig22Sec: 0.2, probeRequests: 16, probeScale: 1, probeSec: 0.2,
		holdSmall: 1e3, holdLarge: 1e4, holdOps: 1e5}
)

// Offered loads per machine set of the social graph, whose CPU user tier
// serves about 16.7 kQPS per set (40 cores at 2.4 ms per request): the
// Figure 22 grid's 70 kQPS ceiling (about 4.2x capacity) and half of it
// (about 2.1x).
const (
	overloadQPSPerSet = 70000
	policyQPSPerSet   = 35000
)

// workload is one named benchmark input. Each is one batch job; the next
// rep starts only after the previous one ended (a closed loop with one
// client).
type workload struct {
	name string
	// prepare builds the workload's inputs from the seed — set-up, timed
	// as part of setup_s — and returns the measured call.
	prepare func(sz sizing, seed int64) measured
}

// measured performs a workload's measured call. tr is nil in untraced
// reps; in the traced rep it carries the registry queuesim Monitors
// report to and the span the call's own spans nest under.
type measured func(tr *phaseA) (outcome, error)

// phaseA is the traced rep's instrumentation.
type phaseA struct {
	reg    *obs.Registry
	spans  *tracer
	parent int
}

// outcome is one measured call's result, reduced to what the benchmark
// reports.
type outcome struct {
	ops, failed int
	simReqs     float64            // simulated requests, for sim_req_per_ref
	render      []byte             // rendered simulated output; the digest hashes it
	sim         map[string]float64 // per-layer values fixed by the seed
}

func (o *outcome) digest() string {
	sum := sha256.Sum256(o.render)
	return hex.EncodeToString(sum[:])
}

var workloads = []workload{
	{name: "chip-fig19", prepare: prepareChipFig19},
	{name: "chip-timing", prepare: prepareChipTiming},
	{name: "tail-overload", prepare: func(sz sizing, seed int64) measured {
		return runTail(tailConfig(sz.overloadScale, seed, overloadQPSPerSet, sz.overloadSec))
	}},
	{name: "tail-policy", prepare: func(sz sizing, seed int64) measured {
		cfg := tailConfig(sz.policyScale, seed, policyQPSPerSet, sz.policySec)
		cfg.Policy = queuesim.PolicyConfig{TimeoutMs: 150, MaxRetries: 1, BackoffMs: 5,
			HedgeMs: 50, QueueCap: int(1000 * sz.policyScale)}
		return runTail(cfg)
	}},
	{name: "fig22-sweep", prepare: prepareFig22},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// chipArches are the chip study's architectures, in ChipRow order.
var chipArches = []struct {
	name string
	arch core.Arch
	of   func(*core.ChipRow) *core.Result
}{
	{"cpu", core.ArchCPU, func(r *core.ChipRow) *core.Result { return r.CPU }},
	{"smt8", core.ArchSMT8, func(r *core.ChipRow) *core.Result { return r.SMT }},
	{"rpu", core.ArchRPU, func(r *core.ChipRow) *core.Result { return r.RPU }},
}

// chipSuite is the suite the chip workloads run: its first sz.services
// services.
func chipSuite(sz sizing) *uservices.Suite {
	s := uservices.NewSuite()
	s.Services = s.Services[:sz.services]
	return s
}

// cellOK is the check every chip cell must pass.
func cellOK(r *core.Result, requests int) bool {
	return r != nil && r.Requests == requests && r.Stats.Cycles > 0 &&
		r.Energy.Total() > 0 && r.SIMTEff > 0 && r.SIMTEff <= 1
}

func prepareChipFig19(sz sizing, seed int64) measured {
	suite := chipSuite(sz)
	return func(*phaseA) (outcome, error) {
		rows, err := core.ChipStudyParallel(suite, sz.fig19Requests, seed, false, 0)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{sim: map[string]float64{}}
		for i := range rows {
			for _, a := range chipArches {
				out.ops++
				if !cellOK(a.of(&rows[i]), sz.fig19Requests) {
					out.failed++
				}
			}
		}
		out.simReqs = float64(out.ops * sz.fig19Requests)
		accuracy(rows, "accuracy.", out.sim)
		chipComponents(rows, out.sim)
		var buf bytes.Buffer
		if err := core.WriteJSON(&buf, rows); err != nil {
			return outcome{}, err
		}
		out.render = buf.Bytes()
		return out, nil
	}
}

// The paper's headline chip ratios (Figures 19 and 20): RPU over CPU
// requests per joule (geomean over services) and service latency (mean).
const (
	paperReqPerJouleX = 5.7
	paperLatencyX     = 1.44
)

// paperRatios returns the study's RPU/CPU requests-per-joule geomean and
// mean latency ratio, as WriteFig19 and WriteFig20 report them.
func paperRatios(rows []core.ChipRow) (reqj, latency float64) {
	var rj []float64
	for _, r := range rows {
		rj = append(rj, r.RPU.ReqPerJoule()/r.CPU.ReqPerJoule())
		latency += r.RPU.AvgLatencySec() / r.CPU.AvgLatencySec()
	}
	return stats.GeoMean(rj), latency / float64(len(rows))
}

// accuracy sets the study's ratios, prefix+"reqj_x" and
// prefix+"latency_x", and their distances from the paper's,
// prefix+"reqj_x_err" and prefix+"latency_x_err".
func accuracy(rows []core.ChipRow, prefix string, m map[string]float64) {
	reqj, lat := paperRatios(rows)
	m[prefix+"reqj_x"] = reqj
	m[prefix+"latency_x"] = lat
	m[prefix+"reqj_x_err"] = math.Abs(reqj/paperReqPerJouleX - 1)
	m[prefix+"latency_x_err"] = math.Abs(lat/paperLatencyX - 1)
}

// chipComponents sums the simulated pipeline, memory and energy counts
// per architecture over the study's services.
func chipComponents(rows []core.ChipRow, layers map[string]float64) {
	avgLoad := map[string]float64{}
	for _, a := range chipArches {
		var cycles, uops, mispredicts, l1a, l1m, conflicts, loads, loadLat, dyn float64
		for i := range rows {
			r := a.of(&rows[i])
			st := &r.Stats
			cycles += float64(st.Cycles)
			uops += float64(st.Uops)
			mispredicts += float64(st.Mispredicts)
			l1a += float64(st.Mem.L1.Accesses)
			l1m += float64(st.Mem.L1.Misses)
			conflicts += float64(st.Mem.L1.BankConflicts)
			loads += float64(st.LoadCount)
			loadLat += float64(st.LoadLatSum)
			dyn += r.Energy.Dynamic()
		}
		p := "." + a.name + "."
		layers["pipeline"+p+"cycles"] = cycles
		layers["pipeline"+p+"uops"] = uops
		layers["pipeline"+p+"mispredicts"] = mispredicts
		layers["mem"+p+"l1_accesses"] = l1a
		layers["mem"+p+"l1_misses"] = l1m
		layers["mem"+p+"bank_conflicts"] = conflicts
		avgLoad[a.name] = stats.Ratio(loadLat, loads)
		layers["mem"+p+"avg_load_latency"] = avgLoad[a.name]
		layers["energy"+p+"dynamic_j"] = dyn
	}
	eff := 0.0
	for _, r := range rows {
		eff += r.RPU.SIMTEff
	}
	layers["simt.rpu.efficiency"] = eff / float64(len(rows))
	layers["pipeline.uops_x"] = stats.Ratio(layers["pipeline.rpu.uops"], layers["pipeline.cpu.uops"])
	layers["mem.load_latency_x"] = stats.Ratio(avgLoad["rpu"], avgLoad["cpu"])
}

func prepareChipTiming(sz sizing, seed int64) measured {
	suite := chipSuite(sz)
	return func(*phaseA) (outcome, error) {
		rows, err := core.TimingSweepParallel(suite, sz.timingRequests, seed, 0)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, row := range rows {
			for v, res := range row.Res {
				out.ops++
				if !cellOK(res, sz.timingRequests) {
					out.failed++
					continue
				}
				fmt.Fprintf(&buf, "%s %s ", row.Service, row.Variants[v])
				if err := enc.Encode(res.Summary()); err != nil {
					return outcome{}, err
				}
			}
		}
		core.WriteTimingSweep(&buf, rows)
		out.simReqs = float64(out.ops * sz.timingRequests)
		out.render = buf.Bytes()
		return out, nil
	}
}

// tailConfig is a tail workload's load point on the social graph at
// scale machine sets: qpsPerSet per set, the latency tail measured after
// a warm-up of a quarter of the arrival window, and a 2 s drain.
func tailConfig(scale float64, seed int64, qpsPerSet, seconds float64) queuesim.TailConfig {
	cfg := queuesim.TailConfig{Config: queuesim.DefaultConfig(), Scale: scale}
	cfg.QPS = qpsPerSet * scale
	cfg.Seconds = seconds
	cfg.Warmup = seconds / 4
	cfg.Drain = 2
	cfg.Seed = seed
	return cfg
}

func runTail(cfg queuesim.TailConfig) measured {
	return func(tr *phaseA) (outcome, error) {
		c := cfg
		if tr != nil {
			c.Monitor = &queuesim.Monitor{Reg: tr.reg}
		}
		m, err := queuesim.RunTail(c)
		if err != nil {
			return outcome{}, err
		}
		ps := make([]float64, len(tailPercentiles))
		for i, p := range tailPercentiles {
			ps[i] = m.Latency.Percentile(p.p)
		}
		out := outcome{ops: 1, simReqs: float64(m.Arrived)}
		if m.Arrived != m.Completed+m.Failed || ps[0] > ps[1] || ps[1] > ps[2] {
			out.failed = 1
		}
		out.sim = map[string]float64{
			"queuesim.sim.arrived":      float64(m.Arrived),
			"queuesim.sim.completed":    float64(m.Completed),
			"queuesim.sim.failed":       float64(m.Failed),
			"queuesim.sim.timed_out":    float64(m.TimedOut),
			"queuesim.sim.retried":      float64(m.Retried),
			"queuesim.sim.hedged":       float64(m.Hedged),
			"queuesim.sim.rejected":     float64(m.Rejected),
			"queuesim.sim.inflight_hwm": float64(m.InFlightHWM),
			"queuesim.sim.events":       float64(m.Events),
		}
		for i, p := range tailPercentiles {
			out.sim["queuesim.sim."+p.name] = ps[i]
		}
		out.render = fmt.Appendf(nil, "arrived %d completed %d failed %d timed_out %d retried %d "+
			"hedged %d hedge_wins %d rejected %d inflight_hwm %d events %d cancelled %d "+
			"batches %d fill %v split %d util %v mean %v p50 %v p99 %v p999 %v max %v\n",
			m.Arrived, m.Completed, m.Failed, m.TimedOut, m.Retried, m.Hedged, m.HedgeWins,
			m.Rejected, m.InFlightHWM, m.Events, m.CancelledTimers, m.Batches, m.AvgBatchFill,
			m.SplitBatches, m.UserUtil, m.Latency.Mean(), ps[0], ps[1], ps[2], m.Latency.Max())
		return out, nil
	}
}

// fig22Modes are the Figure 22 systems, in sweep order.
var fig22Modes = []struct {
	name       string
	rpu, split bool
}{{"cpu", false, false}, {"rpu-nosplit", true, false}, {"rpu-split", true, true}}

// fig22MaxQPS is the top of the Figure 22 load grid.
const fig22MaxQPS = 70000

func prepareFig22(sz sizing, seed int64) measured {
	cfgs := make([]simr.SystemConfig, 0, len(fig22Modes)*sz.fig22Loads)
	for _, mode := range fig22Modes {
		for j := 0; j < sz.fig22Loads; j++ {
			cfg := simr.DefaultSystemConfig()
			cfg.QPS = fig22MaxQPS * float64(j+1) / float64(sz.fig22Loads)
			cfg.Seconds = sz.fig22Sec
			cfg.Warmup = sz.fig22Sec / 4
			cfg.Seed = seed
			cfg.RPU, cfg.Split = mode.rpu, mode.split
			cfgs = append(cfgs, cfg)
		}
	}
	return func(tr *phaseA) (outcome, error) {
		ms, err := core.RunCells(len(cfgs), 0, func(i int) (*simr.SystemMetrics, error) {
			cfg := cfgs[i]
			if tr != nil {
				label := queuesim.CellLabel(fig22Modes[i/sz.fig22Loads].name, cfg.QPS)
				cfg.Monitor = &queuesim.Monitor{Reg: tr.reg, Label: label}
				id := tr.spans.begin("queuesim.cell", label, tr.parent)
				defer tr.spans.end(id)
			}
			return simr.RunSystem(cfg), nil
		})
		if err != nil {
			return outcome{}, err
		}
		out := outcome{ops: len(ms)}
		var buf bytes.Buffer
		for i, m := range ms {
			cfg := cfgs[i]
			if float64(m.Completed) > 1.1*cfg.QPS*cfg.Seconds {
				out.failed++
			}
			out.simReqs += float64(m.Completed)
			fmt.Fprintf(&buf, "%s %v completed %d mean %v p50 %v p99 %v util %v batches %d fill %v split %d\n",
				fig22Modes[i/sz.fig22Loads].name, cfg.QPS, m.Completed, m.Latency.Mean(),
				m.Latency.Percentile(50), m.Latency.Percentile(99), m.UserUtil, m.Batches,
				m.AvgBatchFill, m.SplitBatches)
		}
		cpu := kneeQPS(ms[:sz.fig22Loads], cfgs[:sz.fig22Loads])
		split := kneeQPS(ms[2*sz.fig22Loads:], cfgs[2*sz.fig22Loads:])
		out.sim = map[string]float64{
			"queuesim.fig22.knee_cpu_qps":       cpu,
			"queuesim.fig22.knee_rpu_split_qps": split,
			"queuesim.fig22.knee_x":             split / cpu,
		}
		out.render = buf.Bytes()
		return out, nil
	}
}

// kneeQPS is the highest load of one mode's ascending grid before the
// first saturated point, against the lowest load's p99.
func kneeQPS(ms []*simr.SystemMetrics, cfgs []simr.SystemConfig) float64 {
	base := ms[0].Latency.Percentile(99)
	knee := cfgs[0].QPS
	for j, m := range ms {
		if m.Saturated(base) {
			break
		}
		knee = cfgs[j].QPS
	}
	return knee
}
