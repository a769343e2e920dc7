// Package sample implements SMARTS-style systematic sampling for the
// chip-level timing simulation: every Period-th unit (batch, SMT
// group, or scalar request) is fully timed on the cycle-level core,
// the Warmup units immediately preceding each timed unit run a cheap
// functional-warmup pass that keeps cache/TLB/predictor state warm,
// and the rest are skipped entirely. Aggregate statistics are
// extrapolated from the timed population with per-metric mean and
// relative-confidence-interval estimates, so study output carries its
// own error bounds.
package sample

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Config selects the sampling regime for one run. The zero value (and
// any Period < 1) disables the sampler entirely; Period == 1 engages
// the sampler machinery but times every unit, which must reproduce the
// unsampled run exactly.
type Config struct {
	// Period is the systematic sampling interval: the last unit of
	// every Period-unit window is timed (i % Period == Period-1), so
	// the warmup window always precedes the measurement — timing the
	// first unit instead would measure the one unit guaranteed to see
	// cold microarchitectural state and extrapolate that bias over the
	// whole population. 0 disables sampling; 1 times everything.
	Period int
	// Warmup is how many units immediately before each timed unit run
	// the functional-warmup pass (cache/TLB/predictor state updates
	// without timing). Units outside the warmup window are skipped —
	// not even prepared. Warmup >= Period-1 warms every skipped unit.
	Warmup int
}

// Active reports whether the sampler machinery runs at all.
func (c Config) Active() bool { return c.Period > 0 }

// Sampling reports whether any unit is actually skipped or warmed
// (Period 1 times everything and leaves results bit-identical).
func (c Config) Sampling() bool { return c.Period > 1 }

// Validate rejects negative fields.
func (c Config) Validate() error {
	if c.Period < 0 || c.Warmup < 0 {
		return fmt.Errorf("sample: invalid config period=%d warmup=%d", c.Period, c.Warmup)
	}
	return nil
}

// String renders the config in the -sample flag syntax.
func (c Config) String() string {
	if !c.Active() {
		return "off"
	}
	return fmt.Sprintf("%d:%d", c.Period, c.Warmup)
}

// Role classifies one unit's treatment under a sampling config.
type Role uint8

const (
	// RoleTimed units run the full cycle-level timing model.
	RoleTimed Role = iota
	// RoleWarm units run the functional-warmup pass only.
	RoleWarm
	// RoleSkip units are dropped without even being prepared.
	RoleSkip
)

// initialWarmUnits is the minimum warmup window applied before the
// run's first timed unit. Every later timed unit inherits state carried
// over from its predecessors' windows, but the first one starts from
// empty caches and predictors; its window is warmed at least this
// deeply regardless of Warmup so one cold measurement does not get
// extrapolated over the whole population. Four units matches the
// deepest warmup the accuracy study needed (see EXPERIMENTS.md).
const initialWarmUnits = 4

// Role returns unit i's treatment: timed at the end of each sampling
// window (i % Period == Period-1, so warmup always precedes the
// measurement — timing the first unit of a window instead would
// systematically measure the coldest state), warmed when within Warmup
// units of the next timed unit, skipped otherwise. The window before
// the first timed unit is warmed at least initialWarmUnits deep.
func (c Config) Role(i int) Role {
	if c.Period <= 1 {
		return RoleTimed
	}
	d := c.Period - 1 - i%c.Period // units until this window's timed unit
	if d == 0 {
		return RoleTimed
	}
	w := c.Warmup
	if i < c.Period-1 && w < initialWarmUnits {
		w = initialWarmUnits
	}
	if d <= w {
		return RoleWarm
	}
	return RoleSkip
}

// Parse reads the -sample flag syntax: "off" (or "" or "0") disables
// sampling, "PERIOD" times every PERIOD-th unit with one warmup unit,
// and "PERIOD:WARMUP" sets both.
func Parse(s string) (Config, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "off" || s == "0" {
		return Config{}, nil
	}
	spec, warmStr, hasWarm := strings.Cut(s, ":")
	period, err := strconv.Atoi(spec)
	if err != nil || period < 1 {
		return Config{}, fmt.Errorf("sample: bad period %q (want 'off', PERIOD or PERIOD:WARMUP)", s)
	}
	warm := 1
	if hasWarm {
		warm, err = strconv.Atoi(warmStr)
		if err != nil || warm < 0 {
			return Config{}, fmt.Errorf("sample: bad warmup %q (want 'off', PERIOD or PERIOD:WARMUP)", s)
		}
	}
	return Config{Period: period, Warmup: warm}, nil
}

// defaultCfg holds the process-wide sampling default, nil when unset.
// It backs the cmd tools' -sample flag, which needs to reach every
// study without threading a parameter through each study entry point.
var defaultCfg atomic.Pointer[Config]

// SetDefault installs the sampling config every run without an
// explicit Options.Sample will use. The zero Config restores the
// unsampled default.
func SetDefault(c Config) {
	if !c.Active() {
		defaultCfg.Store(nil)
		return
	}
	defaultCfg.Store(&c)
}

// Default returns the process-wide sampling config (zero when unset).
func Default() Config {
	if c := defaultCfg.Load(); c != nil {
		return *c
	}
	return Config{}
}

// Metric is one extrapolated quantity with its sampling error bound.
type Metric struct {
	Name string `json:"name"`
	// Mean is the per-unit sample mean over the timed units.
	Mean float64 `json:"mean_per_unit"`
	// RelCI95 is the 95% confidence half-interval relative to the
	// mean: 0 when the mean is 0, and also 0 when fewer than two units
	// were timed. Unless that one unit was the whole population, the
	// interval is then unknown rather than zero, and
	// core.WriteSampling prints n/a for it.
	RelCI95 float64 `json:"rel_ci95"`
}

// Estimate summarises one sampled run: population and sample sizes
// plus per-metric error bounds. It is attached to core.Result only
// when sampling actually skipped work (Period > 1).
type Estimate struct {
	Period int `json:"period"`
	Warmup int `json:"warmup"`
	// Units is the population size (batches / groups / requests);
	// Timed+Warmed+Skipped partition it.
	Units   int `json:"units"`
	Timed   int `json:"timed"`
	Warmed  int `json:"warmed"`
	Skipped int `json:"skipped"`
	// Requests and TimedRequests weight the extrapolation: counters
	// scale by Requests/TimedRequests, not Units/Timed, because units
	// carry unequal request counts (tail batches).
	Requests      int      `json:"requests"`
	TimedRequests int      `json:"timed_requests"`
	Metrics       []Metric `json:"metrics"`
}

// Metric returns the named metric, or a zero Metric when absent.
func (e *Estimate) Metric(name string) Metric {
	for _, m := range e.Metrics {
		if m.Name == name {
			return m
		}
	}
	return Metric{}
}

// MaxRelCI returns the largest relative CI over all metrics — the
// conservative single error bound for the whole run.
func (e *Estimate) MaxRelCI() float64 {
	max := 0.0
	for _, m := range e.Metrics {
		if m.RelCI95 > max {
			max = m.RelCI95
		}
	}
	return max
}

// Meter accumulates per-unit observations from the timed units
// (Welford online mean/variance per metric) and produces the final
// Estimate with finite-population-corrected confidence intervals.
type Meter struct {
	cfg   Config
	units int
	names []string

	n    int // timed units observed
	mean []float64
	m2   []float64

	warmed        int
	timedRequests int
	requests      int
}

// NewMeter sizes a meter for a population of units covering requests
// requests, tracking one Welford accumulator per metric name.
func NewMeter(cfg Config, units, requests int, names []string) *Meter {
	return &Meter{
		cfg:      cfg,
		units:    units,
		names:    names,
		mean:     make([]float64, len(names)),
		m2:       make([]float64, len(names)),
		requests: requests,
	}
}

// Observe records one timed unit covering reqs requests; vals must
// parallel the meter's metric names.
func (m *Meter) Observe(reqs int, vals ...float64) {
	m.n++
	m.timedRequests += reqs
	for k, v := range vals {
		d := v - m.mean[k]
		m.mean[k] += d / float64(m.n)
		m.m2[k] += d * (v - m.mean[k])
	}
}

// Warmed records one functionally-warmed unit.
func (m *Meter) Warmed() { m.warmed++ }

// TimedRequests returns the requests covered by timed units so far.
func (m *Meter) TimedRequests() int { return m.timedRequests }

// Estimate finalises the run's sampling summary.
func (m *Meter) Estimate() *Estimate {
	e := &Estimate{
		Period:        m.cfg.Period,
		Warmup:        m.cfg.Warmup,
		Units:         m.units,
		Timed:         m.n,
		Warmed:        m.warmed,
		Skipped:       m.units - m.n - m.warmed,
		Requests:      m.requests,
		TimedRequests: m.timedRequests,
	}
	for k, name := range m.names {
		e.Metrics = append(e.Metrics, Metric{
			Name:    name,
			Mean:    m.mean[k],
			RelCI95: m.relCI(k),
		})
	}
	return e
}

// relCI returns metric k's 95% confidence half-interval relative to
// its mean, with the finite-population correction for sampling n of
// N units without replacement.
func (m *Meter) relCI(k int) float64 {
	if m.n < 2 || m.mean[k] == 0 {
		return 0
	}
	variance := m.m2[k] / float64(m.n-1)
	se := math.Sqrt(variance / float64(m.n))
	if m.units > 1 && m.n < m.units {
		se *= math.Sqrt(float64(m.units-m.n) / float64(m.units-1))
	}
	return 1.96 * se / math.Abs(m.mean[k])
}
