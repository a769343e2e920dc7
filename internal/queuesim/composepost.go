package queuesim

// ComposePostConfig parameterises the compose-post path of the
// social-network graph (paper Figure 3): the request fans out from the
// Post orchestrator to UniqueID, URL-Shorten, Text and UserTag in
// parallel, joins, persists through Post storage and finally writes
// through the cache tier. Times in milliseconds.
type ComposePostConfig struct {
	QPS     float64
	Seconds float64
	Warmup  float64
	RPU     bool
	// BatchSize/BatchTimeout for the RPU orchestrator tier.
	BatchSize    int
	BatchTimeout float64
	// Per-tier demands.
	WebDemand    float64
	OrchDemand   float64 // post orchestrator (join point)
	UniqueID     float64
	URLShorten   float64
	TextDemand   float64
	UserTag      float64
	StorageWrite float64
	CacheWrite   float64
	NetHop       float64
	Cores        int
	// Drain bounds how long (seconds past the arrival horizon)
	// in-flight requests may still complete and be counted; see
	// Config.Drain.
	Drain float64
	Seed  int64
	// Monitor optionally observes the run; nil records nothing.
	Monitor *Monitor
}

// DefaultComposePost returns a calibrated compose-post scenario whose
// CPU system saturates in the same regime as the Figure 22 study.
func DefaultComposePost() ComposePostConfig {
	return ComposePostConfig{
		QPS:          4000,
		Seconds:      4,
		Warmup:       1,
		BatchSize:    32,
		BatchTimeout: 1.0,
		WebDemand:    0.25,
		OrchDemand:   1.2,
		UniqueID:     0.15,
		URLShorten:   0.25,
		TextDemand:   0.8,
		UserTag:      0.4,
		StorageWrite: 1.0,
		CacheWrite:   0.05,
		NetHop:       0.06,
		Cores:        40,
		Drain:        2,
		Seed:         1,
	}
}

// RunComposePost simulates the compose-post fan-out/join path: the
// ComposePostGraph spec on the engine at 1x scale. In RPU mode the
// orchestrator tier batches requests; the four nanoservice RPCs are
// issued per batch and the batch joins when its slowest leg returns
// (the fan-out analogue of reconvergence waiting). A configuration
// RunTail rejects yields the empty measurement, as in Run.
func RunComposePost(cfg ComposePostConfig) *TailMetrics {
	return runOrEmpty(cfg.tailConfig())
}

// tailConfig maps the compose-post scenario onto the engine's
// configuration at 1x scale.
func (cfg ComposePostConfig) tailConfig() TailConfig {
	c := Config{
		QPS: cfg.QPS, Seconds: cfg.Seconds, Warmup: cfg.Warmup, RPU: cfg.RPU,
		BatchSize: cfg.BatchSize, BatchTimeout: cfg.BatchTimeout,
		NetHop: cfg.NetHop, Cores: cfg.Cores, Drain: cfg.Drain,
		Seed: cfg.Seed, Monitor: cfg.Monitor,
	}
	return TailConfig{Config: c, Scale: 1, Graph: ComposePostGraph(cfg)}
}
