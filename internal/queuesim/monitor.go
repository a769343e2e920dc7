// Observability for the discrete-event simulator: an optional Monitor
// records per-station queue-length/busy-server time series as
// Chrome-trace counter events stamped on the *simulated* clock
// (millisecond sim time → microsecond trace timestamps), per-hop
// sojourn-latency histograms and queue/busy high-water marks in an
// obs.Registry. Monitoring is pure observation — it never schedules
// events or perturbs the random streams, so metrics are identical with
// it on or off.
package queuesim

import (
	"math"
	"strconv"

	"simr/internal/obs"
)

// SojournBounds are the fixed histogram bucket upper bounds (ms) for
// per-hop sojourn (queue wait + service) latencies.
var SojournBounds = []float64{0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500}

// Monitor attaches observability to one simulation run. Either field
// may be nil to record only the other. The zero MinDT samples every
// state change; a positive value thins the counter time series to at
// most one sample per station per MinDT simulated milliseconds (the
// histograms and high-water marks always see every event).
type Monitor struct {
	// Reg receives per-station scopes named
	// "queuesim.<Label>.<station>" ("queuesim.<station>" when Label is
	// empty): a sojourn_ms histogram and queue_hwm/busy_hwm gauges.
	Reg *obs.Registry
	// Sink receives the trace events; PID tags them so concurrent runs
	// (sweep cells) land on separate process tracks.
	Sink *obs.TraceSink
	// Label names this run in scope names and the trace process track.
	Label string
	// PID is the trace process id for this run's events.
	PID int
	// MinDT is the minimum simulated-ms spacing between counter
	// samples per station.
	MinDT float64
	// Spans additionally emits one trace span per completed hop. Off
	// by default: at data-center loads that is one event per station
	// visit, which dwarfs the thinned counter tracks.
	Spans bool

	nstations int
	metaDone  bool
}

// stationProbe is one station's monitoring state. All methods are
// no-ops on a nil receiver, keeping the unmonitored path free of
// allocations and observable work. The probe holds no reference to the
// station: the engine passes the instantaneous state in.
type stationProbe struct {
	mon     *Monitor
	name    string
	tid     int
	sojourn *obs.Histogram
	qHWM    *obs.Gauge
	busyHWM *obs.Gauge
	lastTS  float64
	lastQ   int
	lastB   int
}

// station registers a new station with the monitor, returning nil on a
// nil monitor. Called from engine setup, which runs before the event
// loop starts, so it needs no locking.
func (m *Monitor) station(name string, servers int) *stationProbe {
	if m == nil {
		return nil
	}
	if !m.metaDone {
		m.metaDone = true
		label := m.Label
		if label == "" {
			label = "queuesim"
		}
		m.Sink.Meta("process_name", m.PID, label)
	}
	p := &stationProbe{mon: m, name: name, tid: m.nstations, lastTS: math.Inf(-1), lastQ: -1, lastB: -1}
	m.nstations++
	if m.Reg != nil {
		sc := m.Reg.Scope(ScopeName(m.Label, name))
		p.sojourn = sc.Histogram("sojourn_ms", SojournBounds)
		p.qHWM = sc.Gauge("queue_hwm")
		p.busyHWM = sc.Gauge("busy_hwm")
		sc.Gauge("servers").Set(int64(servers))
	}
	return p
}

// runScope returns the registry scope for run-level series (in-flight
// population, policy counters) under "queuesim.<Label>.run", or nil
// when unmonitored.
func (m *Monitor) runScope() *obs.Scope {
	if m == nil || m.Reg == nil {
		return nil
	}
	return m.Reg.Scope(ScopeName(m.Label, "run"))
}

// sample records the station's instantaneous queue length and busy
// server count at simulated time now: high-water marks always, and a
// trace counter event when the state changed and at least MinDT
// simulated ms passed since the previous sample.
func (p *stationProbe) sample(now float64, q, b int) {
	if p == nil {
		return
	}
	p.qHWM.SetMax(int64(q))
	p.busyHWM.SetMax(int64(b))
	if p.mon.Sink == nil || (q == p.lastQ && b == p.lastB) {
		return
	}
	if now-p.lastTS < p.mon.MinDT {
		return
	}
	// Simulated milliseconds → trace microseconds: 1 ms of simulated
	// time renders as 1 ms in the viewer.
	p.mon.Sink.CounterPair(p.name, p.mon.PID, now*1000, "busy", float64(b), "queue", float64(q))
	p.lastTS, p.lastQ, p.lastB = now, q, b
}

// observe records one hop's sojourn time (ms) completing at simulated
// time now, and emits it as a span on the station's trace thread so
// individual hops are visible in the timeline.
func (p *stationProbe) observe(now, sojournMs float64) {
	if p == nil {
		return
	}
	p.sojourn.Observe(sojournMs)
	if p.mon.Spans && p.mon.Sink != nil {
		p.mon.Sink.Complete(p.name, "hop", p.mon.PID, p.tid, (now-sojournMs)*1000, sojournMs*1000)
	}
}

// ScopeName returns the registry scope a monitored run's station
// reports under — the naming contract drivers and tests rely on.
func ScopeName(label, station string) string {
	if label == "" {
		return "queuesim." + station
	}
	return "queuesim." + label + "." + station
}

// CellLabel builds the conventional per-cell monitor label
// "<mode>-qps<n>" used by the sweep drivers.
func CellLabel(mode string, qps float64) string {
	return mode + "-qps" + strconv.FormatFloat(qps, 'f', -1, 64)
}
