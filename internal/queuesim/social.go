package queuesim

import "simr/internal/stats"

// Config parameterises the Figure 22 end-to-end scenario: the User
// microservice path WebServer → User → McRouter → Memcached → Storage
// on three 40-core server machines (CPU) or their equal-power RPU
// replacements (5x throughput, 1.2x service latency, batch width 32).
// All times are in milliseconds.
type Config struct {
	// QPS is the offered Poisson load (requests per second).
	QPS float64
	// Seconds is the simulated wall time.
	Seconds float64
	// Warmup discards requests arriving before this time (seconds).
	Warmup float64
	// RPU selects the RPU-based system; Split additionally enables
	// batch splitting on the memcached-miss divergence.
	RPU   bool
	Split bool
	// BatchSize and BatchTimeout control RPU batch formation.
	BatchSize    int
	BatchTimeout float64
	// HitRate is the memcached hit probability (paper: 0.9).
	HitRate float64
	// Demands: per-request service occupancy per tier. WebDemand and
	// the User phases are calibrated so the CPU system saturates near
	// the paper's 15 kQPS; the 100/20/25/1000/60 µs figures from §V-B
	// are the no-load latency floors of the respective hops.
	WebDemand       float64
	UserPhase1      float64
	UserPhase2      float64
	McRouterDemand  float64
	MemcachedDemand float64
	StorageLatency  float64
	NetHop          float64
	// Cores per machine (3 machines: web, user, cache tier).
	Cores int
	// Drain is the horizon (seconds past the end of arrivals) over
	// which in-flight requests may still complete and be counted.
	// Completions are attributed by *arrival* time inside the measured
	// window, so the drain never adds load — it only un-censors the
	// slowest requests. Zero keeps a minimal 0.2 s drain.
	Drain float64
	// Seed for the random streams.
	Seed int64
	// Monitor optionally observes the run (station time series, hop
	// histograms, trace events); nil records nothing. Observation never
	// changes the simulation results.
	Monitor *Monitor
}

// DefaultConfig returns the paper's §V-B setup. The per-request User
// demand (2.4 ms split over two phases) is the calibration constant
// that reproduces uqsim's ≈15 kQPS CPU saturation on 3×40 cores; the
// microsecond-scale figures from the paper appear as the fixed network
// and cache-tier latencies.
func DefaultConfig() Config {
	return Config{
		QPS:             5000,
		Seconds:         4,
		Warmup:          1,
		BatchSize:       32,
		BatchTimeout:    1.0, // 1 ms formation timeout
		HitRate:         0.9,
		WebDemand:       0.25,
		UserPhase1:      1.5,
		UserPhase2:      0.9,
		McRouterDemand:  0.02,
		MemcachedDemand: 0.025,
		StorageLatency:  1.0,
		NetHop:          0.06,
		Cores:           40,
		Drain:           2,
		Seed:            1,
	}
}

// Run simulates one Figure 22 load point: the bundled social graph
// (SocialGraph) on the engine at 1x scale. A configuration RunTail
// rejects (no load, no measured window, a station without servers)
// yields the empty measurement: Completed 0 and an empty Latency.
func Run(cfg Config) *TailMetrics {
	return runOrEmpty(TailConfig{Config: cfg, Scale: 1})
}

// runOrEmpty runs one load point, reporting a rejected configuration
// as a run that measured nothing.
func runOrEmpty(cfg TailConfig) *TailMetrics {
	m, err := RunTail(cfg)
	if err != nil {
		return &TailMetrics{Offered: cfg.QPS, Latency: stats.NewSample(0)}
	}
	return m
}

// drainMs converts the configured drain horizon (seconds) to
// milliseconds, defaulting to a minimal 0.2 s when unset.
func drainMs(drain float64) float64 {
	if drain > 0 {
		return drain * 1000
	}
	return 200
}

// Sweep runs a QPS sweep and returns metrics per load point.
func Sweep(base Config, qps []float64) []*TailMetrics {
	out := make([]*TailMetrics, len(qps))
	for i, q := range qps {
		cfg := base
		cfg.QPS = q
		out[i] = Run(cfg)
	}
	return out
}
