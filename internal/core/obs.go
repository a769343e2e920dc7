// Observability probes for the hot orchestration layers: the RunCells
// sweep worker pool (per-cell wall clock, worker utilization) and each
// run's prep-then-time loop (time spent preparing units against time
// spent timing them). Probes resolve to nil when no obs hub is
// installed, and every hook is a no-op on a nil probe, so the disabled
// hot path costs one pointer test and zero allocations.
package core

import (
	"time"

	"simr/internal/obs"
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

// prepObs instruments one run's prep-then-time loop (scope
// "core.prep").
type prepObs struct {
	units     *obs.Counter // units prepared and then timed
	prepNS    *obs.Counter // time spent preparing units
	consumeNS *obs.Counter // time spent timing prepared units
}

// prepProbe resolves the prep-loop instruments and counts one run, or
// returns nil when observability is disabled.
func prepProbe() *prepObs {
	if !obs.Enabled() {
		return nil
	}
	sc := obs.Default().Scope("core.prep")
	sc.Counter("runs").Inc()
	return &prepObs{
		units:     sc.Counter("units"),
		prepNS:    sc.Counter("prep_ns"),
		consumeNS: sc.Counter("consume_ns"),
	}
}

// clock returns time.Now on a live probe and the zero time on a nil
// one.
func (p *prepObs) clock() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// unit records one unit prepared from prepStart and timed from
// consumeStart until now.
func (p *prepObs) unit(prepStart, consumeStart time.Time) {
	if p == nil {
		return
	}
	p.units.Inc()
	p.prepNS.Add(consumeStart.Sub(prepStart).Nanoseconds())
	p.consumeNS.Add(time.Since(consumeStart).Nanoseconds())
}
