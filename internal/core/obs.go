// Observability probes for the two hot orchestration layers: the
// RunCells sweep worker pool (per-cell wall clock, worker utilization)
// and the intra-run prep pipeline (producer/consumer occupancy and
// stall time). Probes resolve to nil when no obs hub is installed, and
// every hook is a no-op on a nil probe, so the disabled hot path costs
// one pointer test and zero allocations.
package core

import (
	"sync/atomic"
	"time"

	"simr/internal/obs"
	"simr/internal/sample"
)

// cellsObs instruments one RunCells invocation.
type cellsObs struct {
	sink    *obs.TraceSink
	calls   *obs.Counter // RunCells invocations
	cells   *obs.Counter // cells evaluated
	busyNS  *obs.Counter // summed wall clock inside cell fns
	wallNS  *obs.Counter // summed RunCells wall clock
	workers *obs.Gauge   // workers of the widest sweep seen
	cellMax *obs.Gauge   // slowest single cell (ns), high-water
}

// cellsProbe resolves the RunCells instruments, or nil when
// observability is disabled.
func cellsProbe(workers int) *cellsObs {
	if !obs.Enabled() {
		return nil
	}
	sc := obs.Default().Scope("core.runcells")
	p := &cellsObs{
		sink:    obs.Trace(),
		calls:   sc.Counter("calls"),
		cells:   sc.Counter("cells"),
		busyNS:  sc.Counter("busy_ns"),
		wallNS:  sc.Counter("wall_ns"),
		cellMax: sc.Gauge("slowest_cell_ns_hwm"),
		workers: sc.Gauge("workers_hwm"),
	}
	p.calls.Inc()
	p.workers.SetMax(int64(workers))
	return p
}

// clock returns time.Now on a live probe and the zero time on a nil
// one, so call sites take timestamps unconditionally without branching.
func (p *cellsObs) clock() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// cell records one evaluated cell: busy time, and a trace span on the
// worker's thread track (pid 1 = sweep pool).
func (p *cellsObs) cell(worker int, start time.Time) {
	if p == nil {
		return
	}
	d := time.Since(start)
	p.cells.Inc()
	p.busyNS.Add(d.Nanoseconds())
	p.cellMax.SetMax(d.Nanoseconds())
	p.sink.Complete("cell", "runcells", 1, worker, p.sink.TS(start), float64(d)/float64(time.Microsecond))
}

// finish records the whole invocation's wall clock.
func (p *cellsObs) finish(start time.Time) {
	if p == nil {
		return
	}
	p.wallNS.Add(time.Since(start).Nanoseconds())
}

// sampleObs instruments one sampled run (scope "core.sample").
type sampleObs struct {
	runs    *obs.Counter // sampled runs started
	timed   *obs.Counter // fully timed units
	warmed  *obs.Counter // functionally warmed units
	skipped *obs.Counter // units never prepared
	warmNS  *obs.Counter // time inside the warmup fast path
	period  *obs.Gauge   // widest sampling period seen
}

// sampleProbe resolves the sampling instruments, or nil when
// observability is disabled or the config times every unit; skipped
// is known at planning time.
func sampleProbe(cfg sample.Config, skipped int) *sampleObs {
	if !obs.Enabled() || !cfg.Sampling() {
		return nil
	}
	sc := obs.Default().Scope("core.sample")
	p := &sampleObs{
		runs:    sc.Counter("runs"),
		timed:   sc.Counter("timed_units"),
		warmed:  sc.Counter("warmed_units"),
		skipped: sc.Counter("skipped_units"),
		warmNS:  sc.Counter("warm_ns"),
		period:  sc.Gauge("period_hwm"),
	}
	p.runs.Inc()
	p.skipped.Add(int64(skipped))
	p.period.SetMax(int64(cfg.Period))
	return p
}

// clock returns time.Now on a live probe and the zero time on a nil
// one.
func (p *sampleObs) clock() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// timedUnit counts one fully timed unit.
func (p *sampleObs) timedUnit() {
	if p == nil {
		return
	}
	p.timed.Inc()
}

// warmUnit counts one functionally warmed unit and its wall clock.
func (p *sampleObs) warmUnit(start time.Time) {
	if p == nil {
		return
	}
	p.warmed.Inc()
	p.warmNS.Add(time.Since(start).Nanoseconds())
}

// prepRunSeq distinguishes concurrent pipelined runs' trace thread
// tracks (each run owns tids base..base+slots on pid 2).
var prepRunSeq atomic.Int64

// prepObs instruments one pipelined invocation.
type prepObs struct {
	sink         *obs.TraceSink
	units        *obs.Counter // units pushed through the pipeline
	inlineUnits  *obs.Counter // units run on the inline (lookahead<=0) path
	prepNS       *obs.Counter // producer time spent preparing
	consumeNS    *obs.Counter // consumer time spent applying results
	prepStallNS  *obs.Counter // producers blocked waiting for a free slot
	consumeStall *obs.Counter // consumer blocked waiting for a prepared unit
	runs         *obs.Counter
	lookaheadHWM *obs.Gauge
	tidBase      int
	start        time.Time
	wallNS       *obs.Counter
}

// prepProbe resolves the prep-pipeline instruments, or nil when
// observability is disabled.
func prepProbe(lookahead int) *prepObs {
	if !obs.Enabled() {
		return nil
	}
	sc := obs.Default().Scope("core.prep")
	p := &prepObs{
		sink:         obs.Trace(),
		units:        sc.Counter("units"),
		inlineUnits:  sc.Counter("inline_units"),
		prepNS:       sc.Counter("prep_ns"),
		consumeNS:    sc.Counter("consume_ns"),
		prepStallNS:  sc.Counter("prep_stall_ns"),
		consumeStall: sc.Counter("consume_stall_ns"),
		runs:         sc.Counter("runs"),
		wallNS:       sc.Counter("wall_ns"),
		lookaheadHWM: sc.Gauge("lookahead_hwm"),
		tidBase:      int(prepRunSeq.Add(1)) * 16,
		start:        time.Now(),
	}
	p.runs.Inc()
	p.lookaheadHWM.SetMax(int64(lookahead))
	return p
}

// clock returns time.Now on a live probe and the zero time on a nil
// one.
func (p *prepObs) clock() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// prep records one prepared unit on the producing slot's trace track.
func (p *prepObs) prep(slot int, start time.Time) {
	if p == nil {
		return
	}
	d := time.Since(start)
	p.units.Inc()
	p.prepNS.Add(d.Nanoseconds())
	p.sink.Complete("prep", "preppipe", 2, p.tidBase+1+slot, p.sink.TS(start), float64(d)/float64(time.Microsecond))
}

// stall records producer time blocked on a free slot token.
func (p *prepObs) stall(start time.Time) {
	if p == nil {
		return
	}
	p.prepStallNS.Add(time.Since(start).Nanoseconds())
}

// consume records consumer apply time; waited is the time the consumer
// spent blocked on the unit becoming ready.
func (p *prepObs) consume(start time.Time, waited time.Duration) {
	if p == nil {
		return
	}
	d := time.Since(start)
	p.consumeNS.Add(d.Nanoseconds())
	p.consumeStall.Add(waited.Nanoseconds())
	p.sink.Complete("consume", "preppipe", 2, p.tidBase, p.sink.TS(start), float64(d)/float64(time.Microsecond))
}

// inline records one unit of the sequential (lookahead<=0) path.
func (p *prepObs) inline(prepStart, consumeStart time.Time) {
	if p == nil {
		return
	}
	p.units.Inc()
	p.inlineUnits.Inc()
	p.prepNS.Add(consumeStart.Sub(prepStart).Nanoseconds())
	p.consumeNS.Add(time.Since(consumeStart).Nanoseconds())
}

// finish records the pipeline's wall clock.
func (p *prepObs) finish() {
	if p == nil {
		return
	}
	p.wallNS.Add(time.Since(p.start).Nanoseconds())
}
