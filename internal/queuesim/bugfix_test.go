package queuesim

import (
	"math"
	"testing"
	"time"

	"simr/internal/stats"
)

// TestSaturatedCompletionCriterion: Saturated must implement its
// documented completion criterion — under 95 % of offered completed is
// saturation even when the surviving trickle has a healthy p99. Before
// the fix only the p99 heuristic ran, so a collapsed run whose few
// completions were fast reported as keeping up.
func TestSaturatedCompletionCriterion(t *testing.T) {
	mk := func(completed int) *TailMetrics {
		m := &TailMetrics{Offered: 1000, Measured: 1, Completed: completed,
			Latency: stats.NewSample(completed)}
		for i := 0; i < completed; i++ {
			m.Latency.Add(5) // fast: p99 well under 10x baseline
		}
		return m
	}
	if !mk(900).Saturated(2) {
		t.Fatal("90% completion with fast p99 must report saturated")
	}
	if mk(990).Saturated(2) {
		t.Fatal("99% completion with fast p99 must not report saturated")
	}
	if !mk(0).Saturated(2) {
		t.Fatal("zero completions must report saturated")
	}
}

// TestBatcherRearmsPerBatch: the formation timeout belongs to each
// batch, measured from its first request. Before the fix the timer
// armed for batch N kept running after a size-triggered launch and
// flushed batch N+1 early: with size 2 and timeout 10, requests at
// t=0,1 launch at t=1, and a request at t=2 must launch at t=12 — the
// stale timer fired it at t=10. The size-triggered launch now cancels
// its formation timer.
func TestBatcherRearmsPerBatch(t *testing.T) {
	c := DefaultConfig()
	c.Seconds = 1
	c.Warmup = 0
	c.RPU = true
	c.BatchSize = 2
	c.BatchTimeout = 10
	// Zero-time stages: a request's latency is exactly the wait for
	// its batch to launch.
	spec := &GraphSpec{Name: "batcher", Entry: "in",
		Stations: []StationSpec{{Name: "in", Infinite: true}, {Name: "b", Infinite: true}},
		Stages: []StageSpec{{Name: "in", Station: "in", Fixed: true,
			Next: []EdgeSpec{{To: edgeDone}}}},
		Batch: &BatchSpec{FormAfter: "in", Entry: "bb",
			Stages: []StageSpec{{Name: "bb", Station: "b", Fixed: true,
				Next: []EdgeSpec{{To: edgeDone}}}}}}
	e, err := newTailEngine(TailConfig{Config: c, Scale: 1, Graph: spec})
	if err != nil {
		t.Fatalf("newTailEngine: %v", err)
	}
	for _, at := range []float64{0, 1, 2} {
		e.sim.Run(at)
		e.issue(-1)
	}
	e.sim.Run(100)
	if e.m.Batches != 2 || e.m.Completed != 3 {
		t.Fatalf("%d batches, %d completed; want 2 and 3", e.m.Batches, e.m.Completed)
	}
	if got := e.m.Latency.Percentile(100); got != 10 {
		t.Fatalf("last request waited %v ms for its batch, want 10 (stale formation timer fired early)", got)
	}
	if e.sim.CancelledTimers() != 1 {
		t.Fatalf("%d timers cancelled, want the size-triggered launch's 1", e.sim.CancelledTimers())
	}
}

// TestCensoringDrain: completions are attributed by arrival inside the
// measured window and collected through the drain horizon. Before the
// fix Run stopped dead at the arrival horizon, so any request still in
// flight — all of them, when the horizon is shorter than the service
// path — was silently dropped and saturated load points reported zero
// throughput.
func TestCensoringDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QPS = 1000
	cfg.Seconds = 0.01 // 10 ms of arrivals...
	cfg.Warmup = 0
	cfg.Drain = 1
	g := SocialGraph()
	g.Coins[0].Prob = 0 // every request takes the storage path
	for i := range g.Stages {
		if g.Stages[i].Name == "storage" {
			g.Stages[i].DemandMs = 50 // ...each needing >= 50 ms to finish
		}
	}
	m := mustTail(t, TailConfig{Config: cfg, Scale: 1, Graph: g})
	if m.Completed == 0 {
		t.Fatal("all completions censored at the arrival horizon")
	}
	if p := m.Latency.Percentile(50); p < 50 {
		t.Fatalf("median latency %.1f ms < 50 ms storage floor: wrong requests counted", p)
	}
	// And nothing arriving after the horizon may be counted: offered
	// load stops at Seconds, so completions cannot exceed arrivals.
	if m.Completed > int(cfg.QPS*cfg.Seconds*2) {
		t.Fatalf("%d completions from a ~%.0f-arrival window", m.Completed, cfg.QPS*cfg.Seconds)
	}
}

// TestRunZeroQPS: a non-positive rate is a config error, not a
// divide-by-zero arrival storm pinned to t=0 or a silent empty run, at
// 1x and at 100x scale.
func TestRunZeroQPS(t *testing.T) {
	for _, qps := range []float64{0, -5} {
		for _, scale := range []float64{1, 100} {
			done := make(chan error, 1)
			go func() {
				cfg := DefaultConfig()
				cfg.QPS = qps
				cfg.Seconds = 1
				_, err := RunTail(TailConfig{Config: cfg, Scale: scale})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("QPS=%v scale %v: want a config error, not a silent empty run", qps, scale)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("QPS=%v scale %v: RunTail hung (zero-delay arrival loop)", qps, scale)
			}
		}
	}
}

// TestBackoffNoOverflow: the exponential backoff doubles in an integer
// shift; before the fix `1<<(tries-1)` in int overflowed for deep
// retry budgets (tries ≥ 64 gave zero or negative backoff — an
// immediate-retry storm with MaxRetries: 100). The exponent now
// saturates at 2^16 and MaxBackoffMs caps the wait outright.
func TestBackoffNoOverflow(t *testing.T) {
	cfg := tailBase()
	cfg.Policy = PolicyConfig{TimeoutMs: 10, MaxRetries: 100, BackoffMs: 1}
	e, err := newTailEngine(cfg)
	if err != nil {
		t.Fatalf("newTailEngine: %v", err)
	}
	// Jitter is ±20%, so any backoff is within [0.8, 1.2]·d.
	maxD := 1.2 * cfg.Policy.BackoffMs * float64(int64(1)<<backoffShiftCap)
	for _, tries := range []uint8{1, 2, 17, 64, 70, 100, 255} {
		d := e.backoff(tries)
		if d <= 0 {
			t.Fatalf("tries=%d: backoff %v ms; overflowed shift collapsed the wait", tries, d)
		}
		if d > maxD {
			t.Fatalf("tries=%d: backoff %v ms exceeds the 2^%d doubling cap %v", tries, d, backoffShiftCap, maxD)
		}
	}
	// Small exponents are bit-identical to the uncapped doubling.
	for _, tries := range []uint8{1, 2, 3, 10, 17} {
		want := cfg.Policy.BackoffMs * float64(int64(1)<<(tries-1))
		d := e.backoff(tries)
		if d < 0.8*want || d > 1.2*want {
			t.Fatalf("tries=%d: backoff %v ms outside jitter band of %v ms", tries, d, want)
		}
	}
	// An explicit ceiling binds before the doubling cap.
	e.pol.MaxBackoffMs = 5
	for _, tries := range []uint8{4, 100} {
		if d := e.backoff(tries); d > 1.2*5 {
			t.Fatalf("tries=%d: backoff %v ms ignores MaxBackoffMs=5", tries, d)
		}
	}
	// And the engine survives a deep-retry overload run: with the
	// overflow, retries re-issued instantly and the run exploded. The
	// explicit ceiling keeps the worst retry chain (100 tries × ~16 ms)
	// inside the drain horizon so conservation can close.
	cfg.QPS = 25000
	cfg.Seconds = 1
	cfg.Warmup = 0.25
	cfg.Policy.MaxBackoffMs = 5
	m := mustTail(t, cfg)
	checkConservation(t, m, "deep-retry")
	if m.Retried == 0 {
		t.Fatal("deep retry budget produced no retries")
	}
}

// TestArrivalDefaultsPreserveExplicitValues: withDefaults must
// distinguish unset (zero) from explicit degenerate values. Before the
// fix BurstMul: 1 was rewritten to 4 (a constant-rate MMPP was
// unexpressible) and DiurnalAmp could not express a flat shape.
func TestArrivalDefaultsPreserveExplicitValues(t *testing.T) {
	// Unset fields take the documented defaults.
	a := ArrivalConfig{}.withDefaults(1000)
	if a.BurstMul != DefaultBurstMul || a.BurstFrac != DefaultBurstFrac ||
		a.MeanBurstMs != DefaultMeanBurstMs || a.DiurnalAmp != DefaultDiurnalAmp ||
		a.ThinkMs != DefaultThinkMs || a.DiurnalPeriodMs != 1000 {
		t.Fatalf("zero config did not take defaults: %+v", a)
	}
	// Explicit degenerate MMPP: BurstMul 1 stays 1.
	a = ArrivalConfig{BurstMul: 1}.withDefaults(1000)
	if a.BurstMul != 1 {
		t.Fatalf("explicit BurstMul=1 rewritten to %v", a.BurstMul)
	}
	// Sub-unity multipliers (anti-bursts) survive too.
	a = ArrivalConfig{BurstMul: 0.5}.withDefaults(1000)
	if a.BurstMul != 0.5 {
		t.Fatalf("explicit BurstMul=0.5 rewritten to %v", a.BurstMul)
	}
	// Explicit flat diurnal shape via the sentinel.
	a = ArrivalConfig{DiurnalAmp: FlatDiurnal}.withDefaults(1000)
	if a.DiurnalAmp != 0 {
		t.Fatalf("FlatDiurnal resolved to amplitude %v, want 0", a.DiurnalAmp)
	}
	// And a flat diurnal run really is flat: it matches plain Poisson
	// arrival counts at the same seed (same thinning always accepts).
	cfg := tailBase()
	cfg.Seconds = 1
	cfg.Arrivals = ArrivalConfig{Process: ArrDiurnal, DiurnalAmp: FlatDiurnal}
	flat := mustTail(t, cfg)
	if flat.Arrived == 0 {
		t.Fatal("flat diurnal run saw no arrivals")
	}
	rate := float64(flat.Arrived) / flat.Measured
	if rate < 0.9*cfg.QPS || rate > 1.1*cfg.QPS {
		t.Fatalf("flat diurnal rate %.0f/s, want ~%.0f/s with zero amplitude", rate, cfg.QPS)
	}
	// A degenerate MMPP run behaves as constant-rate Poisson.
	cfg = tailBase()
	cfg.Seconds = 1
	cfg.Arrivals = ArrivalConfig{Process: ArrMMPP, BurstMul: 1}
	m := mustTail(t, cfg)
	rate = float64(m.Arrived) / m.Measured
	if rate < 0.9*cfg.QPS || rate > 1.1*cfg.QPS {
		t.Fatalf("degenerate MMPP rate %.0f/s, want ~%.0f/s", rate, cfg.QPS)
	}
}

// TestTailDegenerateConfigErrors: degenerate configurations are config
// errors, not silent empty runs reported as measured. Before the fix
// ArrClosed with Users: 0 "ran" to completion with zero arrivals.
func TestTailDegenerateConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		label string
		mut   func(*TailConfig)
	}{
		{"closed-zero-users", func(c *TailConfig) { c.Arrivals = ArrivalConfig{Process: ArrClosed} }},
		{"closed-negative-users", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrClosed, Users: -10}
		}},
		{"open-zero-qps", func(c *TailConfig) { c.QPS = 0 }},
		{"open-negative-qps", func(c *TailConfig) { c.QPS = -100 }},
		{"mmpp-zero-qps", func(c *TailConfig) { c.QPS = 0; c.Arrivals = ArrivalConfig{Process: ArrMMPP} }},
		{"diurnal-zero-qps", func(c *TailConfig) { c.QPS = 0; c.Arrivals = ArrivalConfig{Process: ArrDiurnal} }},
		{"zero-seconds", func(c *TailConfig) { c.Seconds = 0 }},
		{"warmup-fills-run", func(c *TailConfig) { c.Warmup = c.Seconds }},
		{"warmup-past-run", func(c *TailConfig) { c.Warmup = c.Seconds + 1 }},
		{"nan-timeout", func(c *TailConfig) { c.Policy.TimeoutMs = math.NaN() }},
		{"negative-timeout", func(c *TailConfig) { c.Policy.TimeoutMs = -5 }},
		{"nan-backoff", func(c *TailConfig) { c.Policy = PolicyConfig{MaxRetries: 1, BackoffMs: math.NaN()} }},
		{"negative-backoff", func(c *TailConfig) { c.Policy = PolicyConfig{MaxRetries: 1, BackoffMs: -1} }},
		{"nan-hedge", func(c *TailConfig) { c.Policy.HedgeMs = math.NaN() }},
		{"negative-hedge", func(c *TailConfig) { c.Policy.HedgeMs = -10 }},
		{"nan-max-backoff", func(c *TailConfig) { c.Policy.MaxBackoffMs = math.NaN() }},
		{"negative-max-backoff", func(c *TailConfig) { c.Policy.MaxBackoffMs = -1 }},
		// Non-finite run knobs ran past any watchdog (NaN and +Inf
		// horizons never end; a NaN or +Inf rate never advances time).
		{"nan-qps", func(c *TailConfig) { c.QPS = math.NaN() }},
		{"inf-qps", func(c *TailConfig) { c.QPS = math.Inf(1) }},
		{"nan-seconds", func(c *TailConfig) { c.Seconds = math.NaN() }},
		{"inf-seconds", func(c *TailConfig) { c.Seconds = math.Inf(1) }},
		{"nan-warmup", func(c *TailConfig) { c.Warmup = math.NaN() }},
		{"neg-inf-warmup", func(c *TailConfig) { c.Warmup = math.Inf(-1) }},
		{"nan-drain", func(c *TailConfig) { c.Drain = math.NaN() }},
		{"inf-drain", func(c *TailConfig) { c.Drain = math.Inf(1) }},
		{"nan-scale", func(c *TailConfig) { c.Scale = math.NaN() }},
		{"inf-scale", func(c *TailConfig) { c.Scale = math.Inf(1) }},
		// A finite but astronomical load panicked in makeslice
		// presizing the latency sample (syssim -tail -max 1e16).
		{"qps-past-arrival-limit", func(c *TailConfig) { c.QPS = 1e15; c.Seconds = 0.01; c.Warmup = 0 }},
		{"qps-overflows", func(c *TailConfig) { c.QPS = math.MaxFloat64 }},
		{"closed-users-past-limit", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrClosed, Users: maxArrivals + 1}
		}},
		{"scale-overflows-servers", func(c *TailConfig) { c.Scale = 1e12 }},
		{"horizon-overflows-clock", func(c *TailConfig) { c.QPS = 1e-300; c.Seconds = 1e306; c.Warmup = 0 }},
		// A negative drain ran with the minimal 0.2 s drain; a negative
		// warmup stretched the measured window past the run, so light
		// load read as saturated. A NaN batch timeout gave a NaN mean
		// latency; an infinite one never launched the last partial
		// batch.
		{"negative-drain", func(c *TailConfig) { c.Drain = -1 }},
		{"negative-warmup", func(c *TailConfig) { c.Warmup = -1 }},
		{"rpu-nan-batch-timeout", func(c *TailConfig) { c.RPU = true; c.BatchTimeout = math.NaN() }},
		{"rpu-inf-batch-timeout", func(c *TailConfig) { c.RPU = true; c.BatchTimeout = math.Inf(1) }},
		{"rpu-negative-batch-timeout", func(c *TailConfig) { c.RPU = true; c.BatchTimeout = -1 }},
		{"rpu-zero-batch-size", func(c *TailConfig) { c.RPU = true; c.BatchSize = 0 }},
		// Malformed arrival shapes: the first three hung, the rest
		// issued no or too few arrivals, or ran an unknown process as
		// Poisson.
		{"diurnal-nan-amp", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrDiurnal, DiurnalAmp: math.NaN()}
		}},
		{"closed-nan-think", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrClosed, Users: 100, ThinkMs: math.NaN()}
		}},
		{"mmpp-burst-dwell-underflows", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrMMPP, MeanBurstMs: 1e-300}
		}},
		{"mmpp-nan-burst-mul", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrMMPP, BurstMul: math.NaN()}
		}},
		{"mmpp-inf-burst-mul", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrMMPP, BurstMul: math.Inf(1)}
		}},
		{"mmpp-nan-burst-frac", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrMMPP, BurstFrac: math.NaN()}
		}},
		{"mmpp-nan-mean-burst", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrMMPP, MeanBurstMs: math.NaN()}
		}},
		{"mmpp-burst-past-arrival-limit", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrMMPP, BurstMul: 1e12, BurstFrac: 1e-9}
		}},
		{"diurnal-nan-period", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrDiurnal, DiurnalPeriodMs: math.NaN()}
		}},
		{"closed-inf-think", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrClosed, Users: 100, ThinkMs: math.Inf(1)}
		}},
		{"unknown-process", func(c *TailConfig) { c.Arrivals = ArrivalConfig{Process: 99} }},
	} {
		cfg := tailBase()
		tc.mut(&cfg)
		if _, err := RunTail(cfg); err == nil {
			t.Fatalf("%s: expected a config error", tc.label)
		}
	}
	// A huge finite rate over a window tiny enough to hold a modest
	// number of arrivals is a real run, not a panic.
	cfg := tailBase()
	cfg.QPS = 1e15
	cfg.Seconds = 2e-12
	cfg.Warmup = 0
	cfg.Drain = 0
	m := mustTail(t, cfg)
	if m.Arrived == 0 || m.Completed+m.Failed > m.Arrived || m.Latency.Len() != m.Completed {
		t.Fatalf("QPS 1e15 over 2e-12 s: arrived %d, completed %d, failed %d, %d samples",
			m.Arrived, m.Completed, m.Failed, m.Latency.Len())
	}
	// A batch wider than any run fills is a real run that launches on
	// its formation timeout; presizing it whole asked for 4 TiB.
	cfg = tailBase()
	cfg.Seconds = 0.2
	cfg.Warmup = 0
	cfg.RPU = true
	cfg.BatchSize = 1 << 40
	if m := mustTail(t, cfg); m.Batches == 0 || m.Completed == 0 {
		t.Fatalf("BatchSize 2^40: %d batches, %d completed", m.Batches, m.Completed)
	}
	// The negative FlatDiurnal sentinel is a valid shape, not a
	// malformed one.
	cfg = tailBase()
	cfg.Arrivals = ArrivalConfig{Process: ArrDiurnal, DiurnalAmp: FlatDiurnal}
	if m := mustTail(t, cfg); m.Arrived == 0 {
		t.Fatal("flat diurnal shape saw no arrivals")
	}
	// The closed loop with a real population still runs.
	cfg = tailBase()
	cfg.Seconds = 1
	cfg.Arrivals = ArrivalConfig{Process: ArrClosed, Users: 100}
	if m := mustTail(t, cfg); m.Arrived == 0 {
		t.Fatal("closed loop with Users=100 saw no arrivals")
	}
}

// TestInlineRejectedTryNotHedged: a first try the queue cap rejects
// inline frees its slot and leaves the request to a retry copy. Before
// the fix issue() armed the hedge on the freed slot anyway; it fired
// as a copy of a request that had already failed (a second
// resolution), or hedged whichever request reused the slot.
func TestInlineRejectedTryNotHedged(t *testing.T) {
	cfg := tailBase()
	cfg.QPS = 4e5
	cfg.Seconds = 0.01
	cfg.Warmup = 0
	cfg.Drain = 0.05
	cfg.Policy = PolicyConfig{TimeoutMs: 20, MaxRetries: 2, BackoffMs: 1, HedgeMs: 5, QueueCap: 50}
	m := mustTail(t, cfg)
	if m.Rejected == 0 || m.Hedged == 0 {
		t.Fatalf("scenario lost its point: %d rejected, %d hedged", m.Rejected, m.Hedged)
	}
	checkConservation(t, m, "inline-reject-hedge")
}

// TestUtilExcludesDrain: utilisation is measured over the arrival
// window only; a long drain after an overloaded run must not dilute
// it below saturation.
func TestUtilExcludesDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QPS = 40000 // far past the ~17.5 kQPS CPU knee
	cfg.Seconds = 2
	cfg.Warmup = 0.5
	cfg.Drain = 5
	m := runSocial(t, cfg)
	if m.UserUtil < 0.99 {
		t.Fatalf("overloaded user tier reports %.3f utilisation; drain leaked into the window", m.UserUtil)
	}
}

// TestParseArrivalProcess: every process name round-trips, and an
// unknown name is an error rather than a silent Poisson run.
func TestParseArrivalProcess(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ArrivalProcess
		ok   bool
	}{
		{"poisson", ArrPoisson, true},
		{"mmpp", ArrMMPP, true},
		{"diurnal", ArrDiurnal, true},
		{"closed", ArrClosed, true},
		{"mmp", 0, false},
		{"", 0, false},
		{"Poisson", 0, false},
	} {
		got, err := ParseArrivalProcess(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Fatalf("ParseArrivalProcess(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Fatalf("ParseArrivalProcess(%q) = %v, want an error", tc.in, got)
		}
	}
}
