// Arrival processes for the tail-at-scale engine: beyond the pure
// Poisson stream of the Figure 22 study, the engine offers a 2-state
// Markov-modulated Poisson process (bursts), a diurnal load shape
// (sinusoidal rate modulation via thinning) and a closed-loop user
// population (each user thinks, issues, waits). Burstiness and closed
// loops are what make p99/p999 under overload meaningful: an open
// Poisson stream at the mean rate understates tail pressure, and a
// closed loop self-throttles instead of collapsing.
package queuesim

import (
	"fmt"
	"math"
)

// ArrivalProcess selects the request arrival model.
type ArrivalProcess int

const (
	// ArrPoisson is the open-loop homogeneous Poisson stream at
	// Config.QPS (the Figure 22 model).
	ArrPoisson ArrivalProcess = iota
	// ArrMMPP is an open-loop 2-state Markov-modulated Poisson
	// process: a calm state and a burst state whose rates are derived
	// so the long-run mean stays Config.QPS.
	ArrMMPP
	// ArrDiurnal is an open-loop non-homogeneous Poisson stream whose
	// rate follows a sinusoidal day shape around Config.QPS,
	// implemented by thinning against the peak rate.
	ArrDiurnal
	// ArrClosed is a closed-loop population of Users clients: each
	// thinks for ~ThinkMs, issues one request, and only thinks again
	// once that request completes or fails. Config.QPS is ignored;
	// offered load emerges from the population.
	ArrClosed
)

// String names the process for reports and JSON artifacts.
func (p ArrivalProcess) String() string {
	switch p {
	case ArrMMPP:
		return "mmpp"
	case ArrDiurnal:
		return "diurnal"
	case ArrClosed:
		return "closed"
	default:
		return "poisson"
	}
}

// ParseArrivalProcess maps a flag string (an ArrivalProcess.String
// name) to an ArrivalProcess; an unknown name is an error.
func ParseArrivalProcess(s string) (ArrivalProcess, error) {
	for p := ArrPoisson; p <= ArrClosed; p++ {
		if s == p.String() {
			return p, nil
		}
	}
	return ArrPoisson, fmt.Errorf("queuesim: unknown arrival process %q (want poisson, mmpp, diurnal or closed)", s)
}

// Defaults applied by withDefaults to unset (zero-valued) shape
// parameters.
const (
	DefaultBurstMul    = 4.0
	DefaultBurstFrac   = 0.1
	DefaultMeanBurstMs = 200.0
	DefaultDiurnalAmp  = 0.5
	DefaultThinkMs     = 100.0
)

// FlatDiurnal requests a zero-amplitude (flat) diurnal shape. The
// zero value of DiurnalAmp means "unset" and defaults to
// DefaultDiurnalAmp, so an explicit flat shape needs this sentinel
// (any negative amplitude behaves the same).
const FlatDiurnal = -1.0

// ArrivalConfig shapes the arrival process. The zero value is the
// plain Poisson stream.
type ArrivalConfig struct {
	Process ArrivalProcess
	// MMPP: BurstMul multiplies the calm rate while in the burst state
	// (unset → DefaultBurstMul; an explicit 1 keeps the degenerate
	// constant-rate MMPP); BurstFrac is the long-run fraction of time
	// spent bursting (default 0.1); MeanBurstMs is the mean
	// burst-state dwell time (default 200 ms). Calm/burst rates are
	// solved so the long-run mean rate equals Config.QPS.
	BurstMul    float64
	BurstFrac   float64
	MeanBurstMs float64
	// Diurnal: rate(t) = QPS * (1 + Amp*sin(2π t/PeriodMs)), Amp in
	// [0,1]. Unset (0) → DefaultDiurnalAmp; use FlatDiurnal (or any
	// negative value) for an explicitly flat shape. PeriodMs defaults
	// to the arrival horizon so one "day" spans the run.
	DiurnalAmp      float64
	DiurnalPeriodMs float64
	// Closed loop: Users clients with mean think time ThinkMs
	// (exponential; default 100 ms).
	Users   int
	ThinkMs float64
}

// withDefaults fills unset shape parameters; horizonMs is the arrival
// window, the default diurnal period. Explicit degenerate values are
// preserved: BurstMul 0<x≤1 (including exactly 1) stays as given, and
// a negative DiurnalAmp means an explicitly flat shape (see
// FlatDiurnal); only true zero values are treated as unset.
func (a ArrivalConfig) withDefaults(horizonMs float64) ArrivalConfig {
	if a.BurstMul <= 0 {
		a.BurstMul = DefaultBurstMul
	}
	if a.BurstFrac <= 0 || a.BurstFrac >= 1 {
		a.BurstFrac = DefaultBurstFrac
	}
	if a.MeanBurstMs <= 0 {
		a.MeanBurstMs = DefaultMeanBurstMs
	}
	switch {
	case a.DiurnalAmp < 0:
		a.DiurnalAmp = 0
	case a.DiurnalAmp == 0:
		a.DiurnalAmp = DefaultDiurnalAmp
	case a.DiurnalAmp > 1:
		a.DiurnalAmp = 1
	}
	if a.DiurnalPeriodMs <= 0 {
		a.DiurnalPeriodMs = horizonMs
	}
	if a.ThinkMs <= 0 {
		a.ThinkMs = DefaultThinkMs
	}
	return a
}

// validate rejects an arrival shape the engine cannot run faithfully:
// an unknown Process, a NaN or infinite shape parameter (they hang the
// run or silently issue nothing; the negative FlatDiurnal sentinel
// stays valid), or an MMPP whose expected state flips, or whose
// arrivals at the burst rate, over a window of seconds exceed
// maxArrivals — the same bound QPS × Seconds meets. A burst dwell
// too short to advance the clock would otherwise flip forever.
func (a ArrivalConfig) validate(qps, seconds float64) error {
	if a.Process < ArrPoisson || a.Process > ArrClosed {
		return fmt.Errorf("queuesim: unknown arrival process %d", int(a.Process))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"BurstMul", a.BurstMul}, {"BurstFrac", a.BurstFrac}, {"MeanBurstMs", a.MeanBurstMs},
		{"DiurnalAmp", a.DiurnalAmp}, {"DiurnalPeriodMs", a.DiurnalPeriodMs}, {"ThinkMs", a.ThinkMs}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("queuesim: arrival %s must be finite (got %v)", f.name, f.v)
		}
	}
	if a.Process != ArrMMPP {
		return nil
	}
	d := a.withDefaults(seconds * 1000)
	// A calm dwell plus a burst dwell lasts MeanBurstMs/BurstFrac on
	// average, two flips per cycle.
	if n := 2 * seconds * 1000 * d.BurstFrac / d.MeanBurstMs; !(n <= maxArrivals) {
		return fmt.Errorf("queuesim: MMPP MeanBurstMs %v over %v s expects %.3g state flips, more than %d",
			d.MeanBurstMs, seconds, n, maxArrivals)
	}
	// startArrivals' BurstMul × calm rate, arranged not to overflow.
	burst := qps / ((1-d.BurstFrac)/d.BurstMul + d.BurstFrac)
	if n := burst * seconds; !(n <= maxArrivals) {
		return fmt.Errorf("queuesim: MMPP burst rate %.3g/s over %v s expects %.3g arrivals, more than %d",
			burst, seconds, n, maxArrivals)
	}
	return nil
}

// startArrivals seeds the engine's arrival machinery. Open-loop
// processes schedule a self-perpetuating ekArrival chain; the closed
// loop staggers each user's first think uniformly over one think time
// to avoid a synthetic thundering herd at t=0.
func (e *engine) startArrivals() {
	a := e.arr
	switch a.Process {
	case ArrClosed:
		for u := 0; u < a.Users; u++ {
			e.sim.AtEvent(e.sim.Rng.Float64()*a.ThinkMs, ekThink, int32(u), 0)
		}
	case ArrMMPP:
		if e.cfg.QPS <= 0 {
			return
		}
		// Solve mean = frac*burst + (1-frac)*calm with burst = mul*calm.
		calm := e.cfg.QPS / (1 - a.BurstFrac + a.BurstFrac*a.BurstMul)
		e.rateCalm = calm
		e.rateBurst = a.BurstMul * calm
		e.rate = e.rateCalm
		e.meanCalmMs = a.MeanBurstMs * (1 - a.BurstFrac) / a.BurstFrac
		e.sim.atLane(laneArrival, e.sim.Exp(1000/e.rate), ekArrival, e.arrGen, 0)
		e.sim.AtEvent(e.sim.Exp(e.meanCalmMs), ekFlip, 0, 0)
	case ArrDiurnal:
		if e.cfg.QPS <= 0 {
			return
		}
		e.rateMax = e.cfg.QPS * (1 + a.DiurnalAmp)
		e.rate = e.rateMax
		e.sim.atLane(laneArrival, e.sim.Exp(1000/e.rateMax), ekArrival, e.arrGen, 0)
	default:
		if e.cfg.QPS <= 0 {
			return
		}
		e.rate = e.cfg.QPS
		e.sim.atLane(laneArrival, e.sim.Exp(1000/e.rate), ekArrival, e.arrGen, 0)
	}
}

// onArrival handles one ekArrival: issue (or thin away) a request and
// schedule the next. gen guards against arrivals resampled across an
// MMPP state flip.
func (e *engine) onArrival(gen int32) {
	if gen != e.arrGen || e.sim.now >= e.endMs {
		return
	}
	switch e.arr.Process {
	case ArrDiurnal:
		// Thinning: draw at the peak rate, accept with rate(t)/peak.
		phase := 2 * math.Pi * e.sim.now / e.arr.DiurnalPeriodMs
		accept := e.cfg.QPS * (1 + e.arr.DiurnalAmp*math.Sin(phase)) / e.rateMax
		if e.sim.Rng.Float64() < accept {
			e.issue(-1)
		}
	default:
		e.issue(-1)
	}
	e.sim.atLane(laneArrival, e.sim.Exp(1000/e.rate), ekArrival, e.arrGen, 0)
}

// onFlip toggles the MMPP state. The pending arrival was drawn at the
// old rate; by memorylessness its residual wait can simply be
// resampled at the new rate, which the generation bump implements.
func (e *engine) onFlip() {
	e.mmppBurst = !e.mmppBurst
	var dwell float64
	if e.mmppBurst {
		e.rate = e.rateBurst
		dwell = e.arr.MeanBurstMs
	} else {
		e.rate = e.rateCalm
		dwell = e.meanCalmMs
	}
	e.arrGen++
	if e.sim.now < e.endMs {
		e.sim.atLane(laneArrival, e.sim.Exp(1000/e.rate), ekArrival, e.arrGen, 0)
		e.sim.AtEvent(e.sim.Exp(dwell), ekFlip, 0, 0)
	}
}

// onThink issues a closed-loop user's next request once its think time
// expires; past the arrival horizon the user goes idle.
func (e *engine) onThink(user int32) {
	if e.sim.now >= e.endMs {
		return
	}
	e.issue(user)
}

// think schedules a closed-loop user's next think period after its
// previous request resolved.
func (e *engine) think(user int32) {
	if e.sim.now >= e.endMs {
		return
	}
	e.sim.AtEvent(e.sim.Exp(e.arr.ThinkMs), ekThink, user, 0)
}
