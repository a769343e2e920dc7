// Sampled timing simulation (SMARTS-style) for the three chip-level
// run loops: a runSampler maps each run's prep-then-time loop onto the
// active (timed + warmup) units only, routes non-timed units through
// the functional-warmup fast path, and extrapolates the aggregate
// Result from the timed subpopulation with per-metric confidence
// intervals. A nil runSampler (sampling off) degenerates to the exact
// unsampled code path, which keeps default output byte-identical.
package core

import (
	"fmt"
	"io"

	"simr/internal/mem"
	"simr/internal/pipeline"
	"simr/internal/sample"
)

// sampleMetricNames are the per-unit quantities the meter tracks for
// CI reporting: the cycle count driving latency and energy, the work
// counters driving the energy model, and the headline memory events.
var sampleMetricNames = []string{
	"cycles", "uops", "scalar_ops", "l1_accesses", "l1_misses", "dram_accesses",
}

// sampleConfig resolves the run's sampling config: an explicit
// Options.Sample wins, otherwise the process-wide default (the
// drivers' -sample flag) applies.
func (o *Options) sampleConfig() sample.Config {
	if o.Sample.Period != 0 {
		return o.Sample
	}
	return sample.Default()
}

// runSampler drives one run's sampling: which units are prepared,
// which of those are timed, and the accumulation/extrapolation of the
// estimate. All methods are nil-safe and a nil sampler reproduces the
// unsampled loop exactly.
type runSampler struct {
	cfg sample.Config
	// forceTimed promotes one unit to the timed role when the sampling
	// grid (last unit of each Period window) lands on no unit at all —
	// a population smaller than one window; -1 otherwise.
	forceTimed int
	meter      *sample.Meter
	latSum     float64 // request-weighted cycles over the timed units
	po         *sampleObs
}

// newRunSampler plans a run of units covering requests requests; it
// returns nil when sampling is off.
func newRunSampler(cfg sample.Config, units, requests int) *runSampler {
	if !cfg.Active() || units <= 0 {
		return nil
	}
	sp := &runSampler{
		cfg:        cfg,
		forceTimed: -1,
		meter:      sample.NewMeter(cfg, units, requests, sampleMetricNames),
	}
	if units < cfg.Period {
		sp.forceTimed = units - 1
	}
	skipped := 0
	for i := 0; i < units; i++ {
		if !sp.active(i) {
			skipped++
		}
	}
	sp.po = sampleProbe(cfg, skipped)
	return sp
}

// active reports whether the run prepares original unit i: every unit
// when sampling is off, only the timed and warmup ones when on —
// skipped units are never prepared at all.
func (sp *runSampler) active(i int) bool {
	return sp == nil || i == sp.forceTimed || sp.cfg.Role(i) != sample.RoleSkip
}

// timed reports whether original unit i takes the full timing path.
func (sp *runSampler) timed(i int) bool {
	return sp == nil || i == sp.forceTimed || sp.cfg.Role(i) == sample.RoleTimed
}

// observe records one timed unit's stats for the estimate.
func (sp *runSampler) observe(st *pipeline.Stats, reqs int) {
	if sp == nil {
		return
	}
	sp.latSum += float64(st.Cycles) * float64(reqs)
	sp.meter.Observe(reqs,
		float64(st.Cycles), float64(st.Uops), float64(st.ScalarOps),
		float64(st.Mem.L1.Accesses), float64(st.Mem.L1.Misses),
		float64(st.Mem.DRAMAccesses))
	sp.po.timedUnit()
}

// warm runs one unit through the functional-warmup fast path.
func (sp *runSampler) warm(c *pipeline.Core, ms *mem.System, uops []pipeline.Uop) {
	t0 := sp.po.clock()
	c.Warm(ms, uops)
	sp.meter.Warmed()
	sp.po.warmUnit(t0)
}

// finish extrapolates the result from the timed subpopulation and
// attaches the estimate. With Period 1 every unit was timed, nothing
// needs extrapolating and the result stays bit-identical to the
// unsampled run (Sampled stays nil).
func (sp *runSampler) finish(res *Result) {
	if sp == nil || !sp.cfg.Sampling() {
		return
	}
	est := sp.meter.Estimate()
	if rest := res.Requests - est.TimedRequests; rest > 0 && est.TimedRequests > 0 {
		// Ratio estimator on request count: project the timed
		// aggregate onto the unmeasured requests, so tail units with
		// short batches carry proportionally less weight.
		measured := res.Stats
		res.Stats.AddScaled(&measured, float64(rest)/float64(est.TimedRequests))
		meanLat := sp.latSum / float64(est.TimedRequests)
		for k := 0; k < rest; k++ {
			res.Latency.Add(meanLat)
		}
	}
	res.Sampled = est
}

// WriteSampling renders the sampling estimates of a sampled chip
// study: the timed/total unit split and per-metric 95% relative CIs.
// A run that timed one unit of several has no interval estimate, and
// its CIs read n/a; one that timed its only unit measured it exactly.
// It prints nothing when no result carries an estimate, so unsampled
// study output is unchanged.
func WriteSampling(w io.Writer, rows []ChipRow) {
	header := false
	for _, row := range rows {
		for _, res := range []*Result{row.CPU, row.SMT, row.RPU, row.GPU} {
			if res == nil || res.Sampled == nil {
				continue
			}
			e := res.Sampled
			if !header {
				fmt.Fprintf(w, "Sampled simulation estimates (period %d, warmup %d; 95%% CI):\n",
					e.Period, e.Warmup)
				fmt.Fprintf(w, "%-18s %-8s %12s %10s %10s %10s %10s\n",
					"service", "arch", "timed/units", "cycles", "uops", "l1acc", "dram")
				header = true
			}
			ci := func(name string) string {
				if e.Timed < 2 && e.Timed < e.Units {
					return "n/a"
				}
				return fmt.Sprintf("±%.2f%%", 100*e.Metric(name).RelCI95)
			}
			fmt.Fprintf(w, "%-18s %-8s %6d/%-5d %10s %10s %10s %10s\n",
				res.Service, res.Arch, e.Timed, e.Units,
				ci("cycles"), ci("uops"), ci("l1_accesses"), ci("dram_accesses"))
		}
	}
}
