package queuesim

// Config holds the run parameters every graph reads: load, window,
// warm-up, drain, seed, the system (CPU or RPU with optional batch
// split), batch formation and cores per machine. The service demands,
// hit rates and wire hop belong to the graph (GraphSpec); the default
// is the Figure 22 User path of SocialGraph on three 40-core server
// machines (CPU) or their equal-power RPU replacements (5x throughput,
// 1.2x service latency, batch width 32). All times are in milliseconds
// unless a field says seconds.
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

// DefaultConfig returns the paper's §V-B run setup: 5 kQPS for 4 s,
// the first of which is warm-up, batches of 32 with a 1 ms formation
// timeout, and 40 cores per machine.
func DefaultConfig() Config {
	return Config{
		QPS:          5000,
		Seconds:      4,
		Warmup:       1,
		BatchSize:    32,
		BatchTimeout: 1.0, // 1 ms formation timeout
		Cores:        40,
		Drain:        2,
		Seed:         1,
	}
}

// drainMs converts the configured drain horizon (seconds) to
// milliseconds, defaulting to a minimal 0.2 s when unset.
func drainMs(drain float64) float64 {
	if drain > 0 {
		return drain * 1000
	}
	return 200
}
