package queuesim

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// tailBase is a small, fast scenario for engine tests: the Figure 22
// graph at 1x scale, 2 simulated seconds, generous drain.
func tailBase() TailConfig {
	c := DefaultConfig()
	c.QPS = 10000
	c.Seconds = 2
	c.Warmup = 0.5
	c.Drain = 5
	c.Seed = 7
	return TailConfig{Config: c, Scale: 1}
}

// mustTail runs one tail load point, failing the test on a config or
// graph error.
func mustTail(t testing.TB, cfg TailConfig) *TailMetrics {
	t.Helper()
	m, err := RunTail(cfg)
	if err != nil {
		t.Fatalf("RunTail: %v", err)
	}
	return m
}

// runSocial runs one load point of the bundled social graph at 1x
// scale, failing the test on a config error.
func runSocial(t testing.TB, cfg Config) *TailMetrics {
	t.Helper()
	return mustTail(t, TailConfig{Config: cfg, Scale: 1})
}

func checkConservation(t *testing.T, m *TailMetrics, label string) {
	t.Helper()
	if m.Arrived == 0 {
		t.Fatalf("%s: no arrivals", label)
	}
	if got := m.Completed + m.Failed; got != m.Arrived {
		t.Fatalf("%s: conservation violated: arrived %d != completed %d + failed %d",
			label, m.Arrived, m.Completed, m.Failed)
	}
	if m.Latency.Len() != m.Completed {
		t.Fatalf("%s: latency samples %d != completed %d", label, m.Latency.Len(), m.Completed)
	}
}

// TestTailConservation: with a sufficient drain every measured arrival
// resolves as exactly one completion or failure, across modes and with
// every policy knob engaged at once, and the latency tail is ordered
// p50 <= p99 <= p999.
func TestTailConservation(t *testing.T) {
	for _, tc := range []struct {
		label string
		mut   func(*TailConfig)
	}{
		{"cpu", func(c *TailConfig) {}},
		{"rpu-nosplit", func(c *TailConfig) { c.RPU = true }},
		{"rpu-split", func(c *TailConfig) { c.RPU = true; c.Split = true }},
		{"cpu-policies", func(c *TailConfig) {
			c.QPS = 20000 // overloaded: exercise timeout/retry/hedge/reject
			c.Policy = PolicyConfig{TimeoutMs: 20, MaxRetries: 2, BackoffMs: 1,
				HedgeMs: 10, QueueCap: 500}
		}},
		{"rpu-policies", func(c *TailConfig) {
			c.RPU = true
			c.Split = true
			c.QPS = 90000
			c.Policy = PolicyConfig{TimeoutMs: 20, MaxRetries: 1, BackoffMs: 0.5,
				HedgeMs: 8, QueueCap: 2000}
		}},
	} {
		cfg := tailBase()
		tc.mut(&cfg)
		m := mustTail(t, cfg)
		checkConservation(t, m, tc.label)
		if m.Events == 0 || m.InFlightHWM == 0 {
			t.Fatalf("%s: missing engine accounting: %+v", tc.label, m)
		}
		p50, p99, p999 := m.Latency.Percentile(50), m.Latency.Percentile(99), m.Latency.Percentile(99.9)
		if !(p50 <= p99 && p99 <= p999) {
			t.Fatalf("%s: tail out of order: p50 %.2f p99 %.2f p999 %.2f", tc.label, p50, p99, p999)
		}
	}
}

// TestMMPPMeanRate: the burst/calm rates are solved so the long-run
// arrival rate stays QPS. A single run's rate estimate carries the
// burst-cycle variance (~7 % σ at these dwell times), so average over
// seeds.
func TestMMPPMeanRate(t *testing.T) {
	var rate float64
	const seeds = 6
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := tailBase()
		cfg.Seconds = 10
		cfg.Warmup = 0
		cfg.Seed = seed
		cfg.Arrivals = ArrivalConfig{Process: ArrMMPP, BurstMul: 5, BurstFrac: 0.2, MeanBurstMs: 50}
		m := mustTail(t, cfg)
		rate += float64(m.Arrived) / m.Measured / seeds
		checkConservation(t, m, "mmpp")
	}
	cfgQPS := tailBase().QPS
	if rate < 0.92*cfgQPS || rate > 1.08*cfgQPS {
		t.Fatalf("mmpp mean rate %.0f/s, want ~%.0f/s", rate, cfgQPS)
	}
}

// TestDiurnalMeanRate: over a whole period the sinusoid integrates
// away and the mean rate is QPS.
func TestDiurnalMeanRate(t *testing.T) {
	cfg := tailBase()
	cfg.Seconds = 10
	cfg.Warmup = 0
	cfg.Arrivals = ArrivalConfig{Process: ArrDiurnal, DiurnalAmp: 0.6}
	m := mustTail(t, cfg)
	rate := float64(m.Arrived) / m.Measured
	if rate < 0.9*cfg.QPS || rate > 1.1*cfg.QPS {
		t.Fatalf("diurnal mean rate %.0f/s, want ~%.0f/s", rate, cfg.QPS)
	}
}

// TestClosedLoopLittle: N users with think time Z and response time R
// deliver X = N/(Z+R) — Little's law on the full loop.
func TestClosedLoopLittle(t *testing.T) {
	cfg := tailBase()
	cfg.Seconds = 10
	cfg.Warmup = 2
	cfg.Arrivals = ArrivalConfig{Process: ArrClosed, Users: 500, ThinkMs: 50}
	m := mustTail(t, cfg)
	checkConservation(t, m, "closed")
	x := m.Throughput()
	want := 500.0 * 1000 / (50 + m.Latency.Mean())
	if x < 0.9*want || x > 1.1*want {
		t.Fatalf("closed-loop throughput %.0f/s, Little's law predicts %.0f/s (R=%.2f ms)",
			x, want, m.Latency.Mean())
	}
	if m.Offered < 0.9*x || m.Offered > 1.1*x {
		t.Fatalf("closed-loop Offered %.0f should track realised rate %.0f", m.Offered, x)
	}
}

// TestTimeoutRetryMechanics: an overloaded system with timeouts breeds
// retries; conservation must survive the churn and the timeout knob
// must bound the worst completed latency seen through a single try.
func TestTimeoutRetryMechanics(t *testing.T) {
	cfg := tailBase()
	cfg.QPS = 25000
	cfg.Policy = PolicyConfig{TimeoutMs: 30, MaxRetries: 3, BackoffMs: 2}
	m := mustTail(t, cfg)
	if m.TimedOut == 0 {
		t.Fatal("overloaded run with TimeoutMs=30 produced no timeouts")
	}
	if m.Retried == 0 {
		t.Fatal("timeouts with retry budget produced no retries")
	}
	if m.Retried > m.TimedOut+m.Rejected {
		t.Fatalf("retries %d exceed abandoned tries %d", m.Retried, m.TimedOut+m.Rejected)
	}
	checkConservation(t, m, "timeout-retry")
}

// TestHedgeMechanics: hedging produces hedges and some hedge wins, and
// never double-counts a logical request. All stations are FIFO, so a
// hedge copy can only overtake its primary through service-time jitter
// races while both are in service — which needs a hedge delay inside
// the jitter spread and headroom for the doubled load.
func TestHedgeMechanics(t *testing.T) {
	cfg := tailBase()
	cfg.QPS = 8000
	cfg.Policy = PolicyConfig{HedgeMs: 0.5}
	m := mustTail(t, cfg)
	if m.Hedged == 0 {
		t.Fatal("no hedges issued")
	}
	if m.HedgeWins == 0 {
		t.Fatal("no hedge ever won; HedgeMs inside the jitter spread should see wins")
	}
	if m.HedgeWins > m.Hedged {
		t.Fatalf("hedge wins %d exceed hedges %d", m.HedgeWins, m.Hedged)
	}
	checkConservation(t, m, "hedge")
}

// TestQueueCapRejects: bounded queues shed load explicitly instead of
// letting latency run away.
func TestQueueCapRejects(t *testing.T) {
	cfg := tailBase()
	cfg.QPS = 30000
	cfg.Policy = PolicyConfig{QueueCap: 100}
	m := mustTail(t, cfg)
	if m.Rejected == 0 {
		t.Fatal("overloaded run with QueueCap=100 rejected nothing")
	}
	checkConservation(t, m, "queue-cap")
	capped := tailBase()
	capped.QPS = 30000
	uncapped := mustTail(t, capped)
	if m.Latency.Percentile(99) >= uncapped.Latency.Percentile(99) {
		t.Fatalf("queue cap did not shorten the tail: capped p99 %.1f >= uncapped %.1f",
			m.Latency.Percentile(99), uncapped.Latency.Percentile(99))
	}
}

// TestTailDeterminism: identical seeds give identical runs, and
// concurrent engines (as a sweep driver would run them) do not
// interfere — run under -race in CI.
func TestTailDeterminism(t *testing.T) {
	mk := func() TailConfig {
		cfg := tailBase()
		cfg.QPS = 18000
		cfg.Arrivals = ArrivalConfig{Process: ArrMMPP}
		cfg.Policy = PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 20}
		return cfg
	}
	seq := make([]*TailMetrics, 4)
	for i := range seq {
		cfg := mk()
		cfg.Seed = int64(i + 1)
		seq[i] = mustTail(t, cfg)
	}
	par := make([]*TailMetrics, 4)
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := mk()
			cfg.Seed = int64(i + 1)
			par[i] = mustTail(t, cfg)
		}(i)
	}
	wg.Wait()
	for i := range seq {
		a, b := seq[i], par[i]
		if a.Completed != b.Completed || a.Failed != b.Failed || a.Events != b.Events ||
			a.InFlightHWM != b.InFlightHWM || a.TimedOut != b.TimedOut ||
			a.Hedged != b.Hedged ||
			a.Latency.Percentile(99.9) != b.Latency.Percentile(99.9) {
			t.Fatalf("seed %d: parallel run diverged from sequential:\nseq %+v\npar %+v", i+1, a, b)
		}
	}
}

// TestEngineSteadyStateAllocs: once warmed, advancing the simulation
// allocates nothing — the acceptance bar for the arena engine.
func TestEngineSteadyStateAllocs(t *testing.T) {
	cfg := tailBase()
	cfg.Seconds = 2
	cfg.Warmup = 0
	e, err := newTailEngine(cfg)
	if err != nil {
		t.Fatalf("newTailEngine: %v", err)
	}
	e.startArrivals()
	now := 200.0
	e.sim.Run(now) // grow arena pages, queue blocks, stats to steady state
	n := testing.AllocsPerRun(100, func() {
		now += 5
		e.sim.Run(now)
	})
	if n != 0 {
		t.Fatalf("steady-state event loop allocates %v allocs/op, want 0", n)
	}
}

// TestTailScaleMillionInFlight: the 100x Figure 22 analog overdriven
// past capacity must carry a standing population of at least a million
// in-flight requests and still produce a full tail profile, allocating
// about its live set: at most 64 bytes over the whole run per request
// at the in-flight peak (a 32-byte slot, its queue word and event, its
// latency sample; a policy-free open-loop run keeps no side record).
// A 56-byte slot measures 77 B, so the bound catches the slot growing
// back; arenas and queues that grew by copying measured about 384.
func TestTailScaleMillionInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("tail-at-scale stress skipped in -short")
	}
	// The 100x Figure 22 analog: one hundred times the paper's machines.
	cfg := TailConfig{Config: DefaultConfig(), Scale: 100}
	cfg.QPS = 4e6 // ~2.3x the scaled CPU knee: backlog grows ~2.2M/s
	cfg.Seconds = 1
	cfg.Warmup = 0.1
	cfg.Drain = 0.5
	cfg.Seed = 7
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := mustTail(t, cfg)
	runtime.ReadMemStats(&after)
	if m.InFlightHWM < 1_000_000 {
		t.Fatalf("in-flight high-water mark %d, want >= 1e6", m.InFlightHWM)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.InFlightHWM)
	t.Logf("run allocated %.1f B per request at the in-flight peak (%d)", per, m.InFlightHWM)
	if per > 64 {
		t.Fatalf("run allocated %.0f B per request at the in-flight peak (%d), want <= 64",
			per, m.InFlightHWM)
	}
	if m.Completed == 0 {
		t.Fatal("no completions at scale")
	}
	p50, p99, p999 := m.Latency.Percentile(50), m.Latency.Percentile(99), m.Latency.Percentile(99.9)
	if !(p50 <= p99 && p99 <= p999) {
		t.Fatalf("tail profile out of order: p50 %.2f p99 %.2f p999 %.2f", p50, p99, p999)
	}
}

// BenchmarkTailEngine reports steady-state event throughput of the
// arena engine.
func BenchmarkTailEngine(b *testing.B) {
	for _, mode := range []struct {
		label      string
		rpu, split bool
	}{{"cpu", false, false}, {"rpu-split", true, true}} {
		b.Run(mode.label, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				cfg := tailBase()
				cfg.Seconds = 1
				cfg.Warmup = 0.25
				cfg.Drain = 1
				cfg.RPU, cfg.Split = mode.rpu, mode.split
				cfg.Seed = int64(i + 1)
				events += mustTail(b, cfg).Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// FuzzTailConfig: any run knobs on the social graph give an error or a
// consistent result — never a panic or a hang. Every completion or
// failure belongs to a measured arrival; and once a run has no event
// left (it drained before its horizon), every arrival is resolved and
// every arena slot released. Finite knobs are clamped so one run stays
// small (at most ~4000 arrivals, a 20 ms window, a 1 s drain, 8
// retries, 256 closed-loop users, an 8x burst rate, ~4000 MMPP flips);
// non-finite ones, and every arrival process number, reach RunTail as
// given.
func FuzzTailConfig(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	type knobs struct {
		qps, sec, warm, drain, scale, timeout, backoff, hedge, maxBackoff float64
		retries, qcap                                                     int
		rpu                                                               bool
		process                                                           int
		burstMul, burstFrac, meanBurst, amp, period, think                float64
		users                                                             int
		netHop, batchTimeout                                              float64
		batchSize                                                         int
	}
	// base is a plain Poisson run at the default wire delay and batch
	// formation; each seed below changes a few knobs.
	base := knobs{qps: 1e4, sec: 0.01, scale: 1, netHop: 0.06, batchTimeout: 1, batchSize: 32}
	seeds := []func(k *knobs){
		func(k *knobs) { k.warm, k.drain = 0.002, 0.2 },
		func(k *knobs) {
			k.qps, k.drain, k.timeout, k.backoff, k.hedge, k.retries, k.qcap = 5e5, 0.05, 20, 1, 5, 2, 50
		},
		func(k *knobs) {
			k.qps, k.sec, k.warm, k.drain, k.timeout, k.backoff, k.hedge, k.maxBackoff = 9e4, 0.02, 0.005, 0.5, 20, 0.5, 8, 4
			k.retries, k.qcap, k.rpu = 1, 200, true
		},
		func(k *knobs) { k.process, k.burstMul, k.burstFrac, k.meanBurst = int(ArrMMPP), 5, 0.2, 2 },
		func(k *knobs) { k.process, k.amp, k.period = int(ArrDiurnal), 0.6, 5 },
		func(k *knobs) { k.process, k.amp = int(ArrDiurnal), FlatDiurnal },
		func(k *knobs) { k.process, k.users, k.think = int(ArrClosed), 50, 1 },
		// The degenerate knobs that used to hang or panic.
		func(k *knobs) { k.qps = nan },
		func(k *knobs) { k.qps = inf },
		func(k *knobs) { k.sec = nan },
		func(k *knobs) { k.sec = inf },
		func(k *knobs) { k.qps = 1e15 },
		func(k *knobs) { k.qps, k.sec = 1e15, 2e-12 },
		func(k *knobs) { k.warm, k.drain, k.scale = nan, inf, nan },
		func(k *knobs) {
			k.scale, k.timeout, k.backoff, k.hedge, k.maxBackoff, k.retries, k.qcap, k.rpu = 1e12, inf, inf, inf, inf, 300, -1, true
		},
		func(k *knobs) { k.process, k.amp = int(ArrDiurnal), nan },
		func(k *knobs) { k.process, k.users, k.think = int(ArrClosed), 50, nan },
		func(k *knobs) { k.process, k.meanBurst = int(ArrMMPP), 1e-300 },
		// The degenerate knobs that ran silently with wrong results.
		func(k *knobs) { k.process, k.burstMul = int(ArrMMPP), nan },
		func(k *knobs) { k.process, k.burstMul = int(ArrMMPP), inf },
		func(k *knobs) { k.process, k.burstFrac = int(ArrMMPP), nan },
		func(k *knobs) { k.process, k.meanBurst = int(ArrMMPP), nan },
		func(k *knobs) { k.process, k.period = int(ArrDiurnal), nan },
		func(k *knobs) { k.process, k.users, k.think = int(ArrClosed), 50, inf },
		func(k *knobs) { k.process = 99 },
		func(k *knobs) { k.warm, k.drain = -0.001, -1 },
		func(k *knobs) { k.netHop = nan },
		func(k *knobs) { k.netHop = inf },
		func(k *knobs) { k.netHop = -1 },
		func(k *knobs) { k.rpu, k.batchTimeout = true, nan },
		func(k *knobs) { k.rpu, k.batchTimeout = true, inf },
		func(k *knobs) { k.rpu, k.batchSize = true, 0 },
	}
	for _, mut := range seeds {
		c := base
		mut(&c)
		f.Add(c.qps, c.sec, c.warm, c.drain, c.scale, c.timeout, c.backoff, c.hedge, c.maxBackoff, c.retries, c.qcap, c.rpu,
			c.process, c.burstMul, c.burstFrac, c.meanBurst, c.amp, c.period, c.think, c.users,
			c.netHop, c.batchTimeout, c.batchSize)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	f.Fuzz(func(t *testing.T, qps, sec, warm, drain, scale, timeout, backoff, hedge, maxBackoff float64,
		retries, qcap int, rpu bool, process int, burstMul, burstFrac, meanBurst, amp, period, think float64,
		users int, netHop, batchTimeout float64, batchSize int) {
		if finite(sec) && sec > 0.02 {
			sec = 0.02
		}
		if finite(qps) && finite(sec) && qps*sec > 4000 {
			qps = 4000 / sec
		}
		if finite(drain) && drain > 1 {
			drain = 1
		}
		if finite(burstMul) && burstMul > 8 {
			burstMul = 8
		}
		// At most ~4000 expected MMPP flips, unless the dwell is short
		// enough for RunTail to reject it.
		if finite(sec) && finite(meanBurst) && meanBurst > 0 {
			frac := ArrivalConfig{BurstFrac: burstFrac}.withDefaults(1).BurstFrac
			if n := 2 * sec * 1000 * frac / meanBurst; n > 4000 && n <= maxArrivals {
				meanBurst = 2 * sec * 1000 * frac / 4000
			}
		}
		c := DefaultConfig()
		c.QPS, c.Seconds, c.Warmup, c.Drain = qps, sec, warm, drain
		c.RPU, c.Split = rpu, rpu
		c.BatchTimeout, c.BatchSize = batchTimeout, batchSize
		g := SocialGraph()
		g.NetHopMs = netHop
		cfg := TailConfig{Config: c, Scale: scale, Graph: g, Policy: PolicyConfig{TimeoutMs: timeout,
			MaxRetries: min(retries, 8), BackoffMs: backoff, HedgeMs: hedge,
			MaxBackoffMs: maxBackoff, QueueCap: qcap},
			Arrivals: ArrivalConfig{Process: ArrivalProcess(process), BurstMul: burstMul,
				BurstFrac: burstFrac, MeanBurstMs: meanBurst, DiurnalAmp: amp,
				DiurnalPeriodMs: period, Users: min(users, 256), ThinkMs: think}}
		e, err := newTailEngine(cfg)
		if err != nil {
			return
		}
		m := e.run()
		if m.Completed+m.Failed > m.Arrived || m.Latency.Len() != m.Completed {
			t.Fatalf("%d completed + %d failed of %d arrived, %d latency samples",
				m.Completed, m.Failed, m.Arrived, m.Latency.Len())
		}
		if e.sim.Pending() == 0 && (e.live != 0 || m.Completed+m.Failed != m.Arrived) {
			t.Fatalf("drained run: %d slots live; %d completed + %d failed of %d arrived",
				e.live, m.Completed, m.Failed, m.Arrived)
		}
	})
}
