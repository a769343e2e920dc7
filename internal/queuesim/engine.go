// The engine: a declarative service graph run as a pooled,
// allocation-free state machine, so data-center populations (10⁶+
// in-flight requests) are as cheap as the 1x Figure 22 sweep. The
// scenario comes from a compiled GraphSpec (graph.go) walked by the
// generic executor (exec.go). Requests and batches live in paged,
// index-addressed arenas (a request's policy, closed-loop and fan-out
// fields in a side arena that only runs reading them allocate),
// station queues are paged FIFOs of packed
// (index, generation) words (arena.go), and every hop is a typed event
// dispatched through the Sim's non-boxing O(1) scheduler (a calendar
// queue, FIFO lanes for wire hops and arrivals, and a hierarchical
// timer wheel), so steady-state event dispatch performs zero heap
// allocations. Pages are never copied or freed during a run, so a run
// allocates about its live set.
// Cancellation (timeouts, hedge losers) is lazy: a cancelled entry is
// marked dead and collected by whatever holds it (its pending event, a
// queue slot, or its batch), and generation counters make stale
// timer/hedge/retry events no-ops, so nothing is ever searched or
// removed from the middle of a queue.
// Armed timers additionally carry a TimerID: when a slot is freed (or
// a batch launches early) the engine cancels them, which the wheel
// turns into a physical O(1) deschedule.
//
// Ownership discipline: at any instant each live request (and each
// batch) has exactly one *driver* — the pending event moving it, the
// station-queue slot holding it, the batch it joined, or (for a
// fanned-out request) its outstanding legs collectively. Only the
// driver frees the arena slot, and a slot's generation only advances
// on free, so auxiliary events (timeout/hedge/retry) can always detect
// staleness by comparing generations.
package queuesim

import (
	"fmt"
	"math"

	"simr/internal/stats"
)

// Typed event kinds, dispatched through Sim.Handle.
const (
	ekArrival    uint8 = iota + 1 // next open-loop arrival; a = arrival generation
	ekFlip                        // MMPP state flip
	ekNet                         // request a enters stage b after the wire delay
	ekSvcDone                     // station b finished serving request a
	ekBatchNet                    // batch a enters batch stage b
	ekBatchDone                   // station b finished serving batch a
	ekBatchTimer                  // formation timeout for batch a armed at generation b
	ekTimeout                     // per-try timeout for request a at generation b
	ekRetry                       // backoff expired: re-issue request a at generation b
	ekHedge                       // hedge point for request a at generation b
	ekThink                       // closed-loop user a finished thinking
)

// Request flags.
const (
	rfDead  uint8 = 1 << iota // cancelled; the driver collects the slot
	rfHedge                   // this slot is the hedge copy
	rfLeg                     // fan-out leg: joins its parent, never completes
)

// ereq is one pooled request (or request copy: a retry or hedge, or a
// fan-out leg): the 32 bytes every run reads, so two slots share each
// host cache line and none straddles two.
type ereq struct {
	arrive float64 // first arrival of the logical request (latency origin)
	enq    float64 // submission time at the current station
	gen    uint32  // advances on free; stale events compare against it
	// parent is a sync leg's fan-out parent slot (-1 otherwise) and a
	// dead slot's free-list link.
	parent int32
	coins  uint16 // per-request coin draws (generic executor)
	stage  int8
	tries  uint8
	flags  uint8
}

// ereqExt is the side record of request slot i: the fields only
// policies, closed-loop users and fan-out read. It lives in a second
// arena indexed by the same slot number, which exists only when the
// run can read it (see needsExt).
type ereqExt struct {
	user  int32  // closed-loop user index, -1 for open loop
	twin  int32  // hedge partner slot, -1 when none
	pgen  uint32 // parent's generation when the leg was spawned
	joins int32  // outstanding sync legs (fan-out parents)
	// hTimeout/hHedge are the armed per-try timeout and hedge timers,
	// cleared when they fire and cancelled when the slot is freed.
	hTimeout TimerID
	hHedge   TimerID
}

// ebatch is one pooled RPU batch (or batch fan-out leg).
type ebatch struct {
	enq     float64
	members []int32
	gen     uint32
	parent  int32 // batch fan-out parent, -1 otherwise
	joins   int32 // outstanding sync batch legs
	// hTimer is the armed formation timer, cleared when it fires and
	// cancelled by a size-triggered launch.
	hTimer  TimerID
	stage   int8
	forming bool
}

// estation is a multi-server FIFO station over the arenas; it never
// allocates on the service path.
type estation struct {
	q          fifo
	name       string
	idx        int32
	servers    int32
	busy       int32
	batched    bool // queue holds batch indices, not request indices
	busyTime   float64
	lastChange float64
	probe      *stationProbe
}

func (st *estation) account(now float64) {
	st.busyTime += float64(st.busy) * (now - st.lastChange)
	st.lastChange = now
}

// TailConfig parameterises one tail-at-scale load point. The embedded
// Config supplies the demands, cores, batch formation, hit rate, seed
// and horizon; Scale multiplies every station's capacity so a
// Scale=100 run is the 100x-machines analog. Batching is always at
// the graph's batch-formation point (the paper's §VI-H logic-tier
// placement for the bundled graphs).
type TailConfig struct {
	Config
	// Scale multiplies station capacities (number of machines); < 1 is
	// treated as 1, NaN or ±Inf is an error.
	Scale    float64
	Arrivals ArrivalConfig
	Policy   PolicyConfig
	// Graph selects the scenario; nil runs SocialGraph(cfg.Config),
	// the Figure 22 social-network analog.
	Graph *GraphSpec
}

// DefaultTailConfig returns the 100x Figure 22 analog: one hundred
// times the paper's machines offered one hundred times the paper's
// CPU-knee load (15 kQPS → 1.5 MQPS) under open Poisson arrivals.
func DefaultTailConfig() TailConfig {
	c := DefaultConfig()
	c.QPS = 1.5e6
	c.Seconds = 2
	c.Warmup = 0.5
	return TailConfig{Config: c, Scale: 100}
}

// TailMetrics is the outcome of one tail-at-scale load point.
type TailMetrics struct {
	// Offered is the configured open-loop rate, or the realised
	// arrival rate for closed-loop runs.
	Offered float64
	// Arrived counts logical requests arriving inside the measured
	// window; every one of them resolves as Completed or Failed when
	// the drain horizon suffices.
	Arrived   int
	Completed int
	// Failed counts requests abandoned after exhausting their retry
	// budget (timeouts and queue rejections with no tries left).
	Failed    int
	TimedOut  int
	Retried   int
	Hedged    int
	HedgeWins int
	Rejected  int
	// Latency samples end-to-end latency (ms) of completed requests
	// that arrived inside the measured window.
	Latency  *stats.Sample
	Measured float64 // seconds of measured arrival window
	UserUtil float64 // bottleneck (batch tier) utilisation over the arrival window
	// InFlightHWM is the high-water mark of requests in the system
	// (including retry, hedge and fan-out copies).
	InFlightHWM int
	// Events is the number of *useful* simulator events dispatched:
	// timer events that fire as gen-checked no-ops are subtracted.
	Events uint64
	// CancelledTimers counts timers descheduled before they fired
	// (timeouts and hedges of freed slots, size-preempted batch
	// timers).
	CancelledTimers uint64
	Batches         int
	AvgBatchFill    float64
	SplitBatches    int
}

// Saturated reports whether the system failed to keep up with offered
// load (tail blow-up heuristic: p99 over 10x the unloaded latency, or
// completion under 95 % of offered). The completion criterion catches
// the collapsed regime a fast surviving trickle would otherwise hide;
// because the drain window lets a backlogged run finish every request
// eventually, the latency criterion is what catches saturation in runs
// without timeout policies.
func (m *TailMetrics) Saturated(baselineP99 float64) bool {
	if m.Latency.Len() == 0 {
		return true
	}
	if m.Offered > 0 && m.Measured > 0 &&
		float64(m.Completed) < 0.95*m.Offered*m.Measured {
		return true
	}
	return m.Latency.Percentile(99) > 10*baselineP99
}

// Throughput returns completed requests per measured second.
func (m *TailMetrics) Throughput() float64 {
	if m.Measured <= 0 {
		return 0
	}
	return float64(m.Completed) / m.Measured
}

// engine wires the arenas, stations, arrival process and policies to
// the Sim's typed-event loop.
type engine struct {
	cfg TailConfig
	arr ArrivalConfig
	pol PolicyConfig
	sim *Sim
	m   *TailMetrics

	g      *cgraph
	netHop float64

	sts    []estation
	latMul float64

	endMs, warmupMs float64

	reqs    arena[ereq]
	reqFree int32 // last released request slot, -1 when none
	live    int
	// ext holds each request slot's side record and grows in lockstep
	// with reqs, but only when hasExt (see needsExt); the policy,
	// closed-loop and fan-out paths that read it run only then.
	ext    arena[ereqExt]
	hasExt bool

	// staleEvents counts dispatched timer events whose generation check
	// failed (or whose target was already dead/launched) — the no-ops
	// TailMetrics.Events subtracts.
	staleEvents uint64

	batches   arena[ebatch]
	batchFree int32 // last released batch slot, -1 when none
	forming   int32 // forming batch index, -1 when none

	// Arrival-process state (see arrivals.go).
	arrGen     int32
	mmppBurst  bool
	rate       float64
	rateCalm   float64
	rateBurst  float64
	rateMax    float64
	meanCalmMs float64

	inflightTS float64
}

// RunTail simulates one load point. It returns an error for a
// degenerate configuration (a NaN or infinite QPS, Seconds, Warmup,
// Drain or Scale, a NaN, infinite or negative NetHop or BatchTimeout,
// zero horizon, a warmup that leaves no measured window, open loop
// without a positive QPS or expecting more than maxArrivals arrivals,
// closed loop without users or with more than maxArrivals, a malformed
// arrival shape (see ArrivalConfig.validate), a NaN or negative policy
// duration, RPU without a positive BatchSize or over a batchless graph,
// a station with no servers or more than an int32 holds, a horizon
// past the millisecond clock's range) or an invalid graph spec,
// instead of silently reporting an empty run as measured, hanging or
// panicking.
func RunTail(cfg TailConfig) (*TailMetrics, error) {
	e, err := newTailEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run(), nil
}

// maxArrivals bounds a run's expected arrivals (open loop) or users
// (closed loop): under overload every arrival can be in flight at
// once, and arena slots and user ids are int32.
const maxArrivals = math.MaxInt32

// maxBatchPresize caps a batch's initial member capacity; a wider
// batch grows as requests join, so a huge BatchSize cannot exhaust
// memory before any request arrives.
const maxBatchPresize = 1024

// maxLatencyPresize caps the latency sample's initial capacity (128
// MiB of float64); a run with more measured completions grows it.
const maxLatencyPresize = 1 << 24

func newTailEngine(cfg TailConfig) (*engine, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"QPS", cfg.QPS}, {"Seconds", cfg.Seconds}, {"Warmup", cfg.Warmup}, {"Drain", cfg.Drain}, {"Scale", cfg.Scale}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("queuesim: %s must be finite (got %v)", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"NetHop", cfg.NetHop}, {"BatchTimeout", cfg.BatchTimeout}} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("queuesim: %s must be finite and non-negative (got %v)", f.name, f.v)
		}
	}
	if cfg.RPU && cfg.BatchSize < 1 {
		return nil, fmt.Errorf("queuesim: RPU mode needs BatchSize >= 1 (got %d)", cfg.BatchSize)
	}
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("queuesim: Seconds must be positive (got %v)", cfg.Seconds)
	}
	if cfg.Warmup >= cfg.Seconds {
		return nil, fmt.Errorf("queuesim: Warmup %v s leaves no measured window in a %v s run", cfg.Warmup, cfg.Seconds)
	}
	if h := cfg.Seconds*1000 + drainMs(cfg.Drain); math.IsInf(h, 0) {
		return nil, fmt.Errorf("queuesim: a %v s run with a %v s drain overflows the millisecond clock", cfg.Seconds, cfg.Drain)
	}
	if cfg.Arrivals.Process == ArrClosed {
		if cfg.Arrivals.Users <= 0 || cfg.Arrivals.Users > maxArrivals {
			return nil, fmt.Errorf("queuesim: closed-loop arrivals need 0 < Users <= %d (got %d)", maxArrivals, cfg.Arrivals.Users)
		}
	} else if cfg.QPS <= 0 {
		return nil, fmt.Errorf("queuesim: open-loop arrivals need QPS > 0 (got %v)", cfg.QPS)
	} else if n := cfg.QPS * cfg.Seconds; n > maxArrivals {
		return nil, fmt.Errorf("queuesim: QPS %v over %v s expects %.3g arrivals, more than %d", cfg.QPS, cfg.Seconds, n, maxArrivals)
	}
	if err := cfg.Arrivals.validate(cfg.QPS, cfg.Seconds); err != nil {
		return nil, err
	}
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	spec := cfg.Graph
	if spec == nil {
		spec = SocialGraph(cfg.Config)
	}
	g, err := compileGraph(spec)
	if err != nil {
		return nil, err
	}
	if cfg.RPU && !g.hasBatch {
		return nil, fmt.Errorf("queuesim: graph %q has no batch path; RPU mode needs one", g.name)
	}

	sim := NewSimSched(cfg.Seed, SchedCalendar)
	e := &engine{cfg: cfg, pol: cfg.Policy, sim: sim, g: g,
		reqFree: -1, batchFree: -1, forming: -1, inflightTS: math.Inf(-1)}
	e.endMs = cfg.Seconds * 1000
	e.warmupMs = cfg.Warmup * 1000
	e.arr = cfg.Arrivals.withDefaults(e.endMs)
	e.hasExt = needsExt(&e.pol, e.arr.Process, g)
	e.netHop = g.netHop
	if e.netHop <= 0 {
		e.netHop = cfg.NetHop
	}

	e.latMul = 1
	capMul := 1.0
	if cfg.RPU {
		e.latMul = 1.2
		capMul = 5
	}
	scale := cfg.Scale
	cores := float64(cfg.Cores)
	e.sts = make([]estation, len(g.stations))
	for i, sd := range g.stations {
		var n float64
		switch {
		case sd.infinite:
			n = Inf
		case cfg.RPU && sd.batchTier:
			// cores × 5x × 1.2 (occupancy per batch) / batch width, per
			// machine, times Scale machines.
			n = math.Ceil(cores * sd.coresMul * 5 * 1.2 / float64(cfg.BatchSize) * scale)
		default:
			n = cores * sd.coresMul * capMul * scale
		}
		if !(n >= 1) {
			return nil, fmt.Errorf("queuesim: graph %q: station %q has zero servers at scale %v", g.name, sd.name, scale)
		}
		if n >= Inf && !sd.infinite {
			return nil, fmt.Errorf("queuesim: graph %q: station %q needs %.3g servers at scale %v, more than an int32 holds", g.name, sd.name, n, scale)
		}
		e.initStation(int32(i), sd.name, int32(n), cfg.RPU && sd.batched)
	}

	// Presize the latency sample for the measured window's arrivals,
	// with a 1/16 margin for arrival noise.
	measured := cfg.Seconds - cfg.Warmup
	est := cfg.QPS * measured * (1 + 1.0/16)
	if e.arr.Process == ArrClosed {
		est = float64(e.arr.Users) * 8
	}
	est = min(max(est, 1024), maxLatencyPresize)
	e.m = &TailMetrics{Offered: cfg.QPS, Latency: stats.NewSample(int(est)), Measured: measured}
	sim.Handle = e.handle
	return e, nil
}

func (e *engine) initStation(i int32, name string, servers int32, batched bool) {
	e.sts[i] = estation{name: name, idx: i, servers: servers, batched: batched}
	e.sts[i].probe = e.cfg.Monitor.station(name, int(servers))
}

func (e *engine) run() *TailMetrics {
	e.startArrivals()
	// Utilisation is measured over the arrival window; the drain that
	// follows collects in-flight completions without diluting it.
	e.sim.Run(e.endMs)
	e.m.UserUtil = e.stationUtil(e.g.utilStation)
	e.sim.Run(e.endMs + drainMs(e.cfg.Drain))
	if e.m.Batches > 0 {
		e.m.AvgBatchFill /= float64(e.m.Batches)
	}
	if e.arr.Process == ArrClosed && e.m.Measured > 0 {
		e.m.Offered = float64(e.m.Arrived) / e.m.Measured
	}
	e.m.Events = e.sim.Events() - e.staleEvents
	e.m.CancelledTimers = e.sim.CancelledTimers()
	e.finalizeObs()
	return e.m
}

func (e *engine) stationUtil(i int32) float64 {
	st := &e.sts[i]
	now := e.sim.now
	if now == 0 || st.servers == 0 {
		return 0
	}
	settled := st.busyTime + float64(st.busy)*(now-st.lastChange)
	return settled / (now * float64(st.servers))
}

func (e *engine) finalizeObs() {
	sc := e.cfg.Monitor.runScope()
	if sc == nil {
		return
	}
	sc.Gauge("inflight_hwm").Set(int64(e.m.InFlightHWM))
	sc.Counter("arrived").Add(int64(e.m.Arrived))
	sc.Counter("completed").Add(int64(e.m.Completed))
	sc.Counter("failed").Add(int64(e.m.Failed))
	sc.Counter("timed_out").Add(int64(e.m.TimedOut))
	sc.Counter("retried").Add(int64(e.m.Retried))
	sc.Counter("hedged").Add(int64(e.m.Hedged))
	sc.Counter("rejected").Add(int64(e.m.Rejected))
	sc.Counter("events").Add(int64(e.m.Events))
	e.finalizeSchedObs()
}

// finalizeSchedObs reports the scheduler's own health under
// queuesim.<label>.sched: the stale-timer and cancellation counts, the
// calendar's resize/occupancy stats, the lanes' event and fallback
// counts and the wheel's cascade/deschedule counters.
func (e *engine) finalizeSchedObs() {
	m := e.cfg.Monitor
	if m == nil || m.Reg == nil {
		return
	}
	sc := m.Reg.Scope(ScopeName(m.Label, "sched"))
	sc.Counter("stale_timer_events").Add(int64(e.staleEvents))
	sc.Counter("cancelled_timers").Add(int64(e.sim.ncancel))
	cal, tw := &e.sim.cal, &e.sim.tw
	sc.Counter("cal_resizes").Add(int64(cal.resizes))
	sc.Counter("cal_direct_scans").Add(int64(cal.directScans))
	sc.Gauge("cal_bucket_hwm").Set(int64(cal.bucketHWM))
	sc.Gauge("cal_buckets").Set(int64(len(cal.buckets)))
	wire, arr := &e.sim.lanes[laneWire], &e.sim.lanes[laneArrival]
	sc.Counter("lane_wire_events").Add(int64(wire.pushed))
	sc.Counter("lane_arrival_events").Add(int64(arr.pushed))
	sc.Counter("lane_fallbacks").Add(int64(wire.fallbacks + arr.fallbacks))
	sc.Counter("wheel_armed").Add(int64(tw.armed))
	sc.Counter("wheel_fired").Add(int64(tw.fired))
	sc.Counter("wheel_descheduled").Add(int64(tw.cancelled))
	sc.Counter("wheel_cascades").Add(int64(tw.cascades))
	sc.Counter("wheel_overflows").Add(int64(tw.overflows))
	sc.Gauge("wheel_due_hwm").Set(int64(tw.dueHWM))
}

// handle routes typed events; this is the whole steady-state hot path.
func (e *engine) handle(kind uint8, a, b int32) {
	switch kind {
	case ekNet:
		e.enter(a, b)
	case ekSvcDone:
		e.onSvcDone(a, b)
	case ekArrival:
		e.onArrival(a)
	case ekBatchNet:
		e.enterBatch(a, b)
	case ekBatchDone:
		e.onBatchDone(a, b)
	case ekBatchTimer:
		e.onBatchTimer(a, b)
	case ekTimeout:
		e.onTimeout(a, b)
	case ekRetry:
		e.onRetry(a, b)
	case ekHedge:
		e.onHedge(a, b)
	case ekFlip:
		e.onFlip()
	case ekThink:
		e.onThink(a)
	}
}

// --- request arena ---

// needsExt reports whether a run can read the request side records: a
// timeout, hedge or queue cap (and with them retries), closed-loop
// users, or a request stage that fans out into legs.
func needsExt(pol *PolicyConfig, proc ArrivalProcess, g *cgraph) bool {
	if pol.TimeoutMs > 0 || pol.HedgeMs > 0 || pol.QueueCap > 0 || proc == ArrClosed {
		return true
	}
	for i := range g.stages {
		if len(g.stages[i].fanout) > 0 {
			return true
		}
	}
	return false
}

func (e *engine) alloc() int32 {
	idx := e.reqFree
	if idx >= 0 {
		e.reqFree = e.reqs.at(idx).parent
	} else {
		idx = e.reqs.grow()
		if e.hasExt {
			e.ext.grow()
		}
	}
	e.live++
	if e.live > e.m.InFlightHWM {
		e.m.InFlightHWM = e.live
	}
	e.sampleInflight()
	return idx
}

func (e *engine) free(idx int32) {
	r := e.reqs.at(idx)
	if e.hasExt {
		x := e.ext.at(idx)
		// The slot's armed timers can never fire usefully once the
		// generation advances; deschedule them instead of leaving stale
		// no-op pops behind. (The retry timer is never cancelled: a slot
		// backing off has the retry event as its driver, which frees it.)
		if x.hTimeout != 0 {
			e.sim.Cancel(x.hTimeout)
			x.hTimeout = 0
		}
		if x.hHedge != 0 {
			e.sim.Cancel(x.hHedge)
			x.hHedge = 0
		}
		x.twin = -1
	}
	r.gen++
	// Clear the outcome state alongside flags: a hedge armed against a
	// try that was inline-rejected (and hence freed) reads this slot, so
	// its stale coins must not leak into the hedge copy.
	r.flags = 0
	r.coins = 0
	// A dead slot's parent is the free-list link; every alloc site
	// overwrites it.
	r.parent = e.reqFree
	e.reqFree = idx
	e.live--
}

// sampleInflight emits a thinned trace counter of the live population
// when a Monitor with a trace sink is attached.
func (e *engine) sampleInflight() {
	m := e.cfg.Monitor
	if m == nil || m.Sink == nil {
		return
	}
	if e.sim.now-e.inflightTS < m.MinDT {
		return
	}
	e.inflightTS = e.sim.now
	m.Sink.CounterPair("inflight", m.PID, e.sim.now*1000,
		"live", float64(e.live), "events_pending", float64(e.sim.Pending()))
}

// --- request lifecycle ---

// issue creates and launches a new logical request (user >= 0 ties it
// to a closed-loop client), drawing every declared coin, in
// declaration order, into the coin bitmask.
func (e *engine) issue(user int32) {
	idx := e.alloc()
	r := e.reqs.at(idx)
	now := e.sim.now
	r.arrive = now
	r.parent = -1
	if e.hasExt {
		x := e.ext.at(idx)
		x.user = user
		x.twin = -1
		x.joins = 0
	}
	r.tries = 0
	r.flags = 0
	r.coins = 0
	for i, p := range e.g.coins {
		if e.sim.Rng.Float64() < p {
			r.coins |= 1 << uint(i)
		}
	}
	if now >= e.warmupMs && now <= e.endMs {
		e.m.Arrived++
	}
	gen := r.gen
	e.launchTry(idx)
	// A queue cap can reject the first try inline, which frees the slot
	// and leaves the request to a retry copy (or fails it). Like any
	// abandoned try it is not hedged: a hedge armed on the freed slot
	// would copy a request that may already have resolved, or hedge
	// whichever request reuses the slot.
	if e.pol.HedgeMs > 0 && r.gen == gen {
		e.ext.at(idx).hHedge = e.sim.AtTimer(e.pol.HedgeMs, ekHedge, idx, int32(gen))
	}
}

// launchTry arms the per-try timeout and enters the request at the
// graph entry (stage 0 is entered directly, as in Run).
func (e *engine) launchTry(idx int32) {
	if e.pol.TimeoutMs > 0 {
		e.ext.at(idx).hTimeout = e.sim.AtTimer(e.pol.TimeoutMs, ekTimeout, idx, int32(e.reqs.at(idx).gen))
	}
	e.enter(idx, e.g.entry)
}

func (e *engine) submitReq(st *estation, idx int32) {
	if st.busy < st.servers {
		st.account(e.sim.now)
		st.busy++
		e.serveReq(st, idx)
	} else if e.pol.QueueCap > 0 && st.q.n >= e.pol.QueueCap {
		e.m.Rejected++
		if e.reqs.at(idx).flags&rfLeg != 0 {
			e.rejectLeg(idx)
		} else {
			e.abandonTry(idx, true)
		}
	} else {
		st.q.push(pack(idx, e.reqs.at(idx).gen))
	}
	st.probe.sample(e.sim.now, st.q.n, int(st.busy))
}

func (e *engine) onSvcDone(idx, stIdx int32) {
	st := &e.sts[stIdx]
	now := e.sim.now
	st.account(now)
	st.busy--
	r := e.reqs.at(idx)
	st.probe.observe(now, now-r.enq)
	st.probe.sample(now, st.q.n, int(st.busy))
	e.dispatchNext(st)
	if r.flags&rfDead != 0 {
		e.free(idx)
		return
	}
	e.advance(idx)
}

// dispatchNext pulls queued work onto freed servers, collecting dead
// and stale entries on the way.
func (e *engine) dispatchNext(st *estation) {
	for st.busy < st.servers && st.q.n > 0 {
		idx, gen := unpack(st.q.pop())
		if st.batched {
			b := e.batches.at(idx)
			if b.gen != gen {
				continue
			}
			st.account(e.sim.now)
			st.busy++
			e.serveBatch(st, idx)
			continue
		}
		r := e.reqs.at(idx)
		if r.gen != gen {
			continue // slot was freed (and possibly reused): stale entry
		}
		if r.flags&rfDead != 0 {
			e.free(idx) // the queue slot was its driver
			continue
		}
		st.account(e.sim.now)
		st.busy++
		e.serveReq(st, idx)
	}
}

// complete resolves a logical request: cancels its hedge twin, records
// the latency by arrival window, wakes its closed-loop user and frees
// the slot.
func (e *engine) complete(idx int32) {
	r := e.reqs.at(idx)
	user := int32(-1)
	if e.hasExt {
		x := e.ext.at(idx)
		if x.twin >= 0 {
			t := e.ext.at(x.twin)
			if t.twin == idx {
				t.twin = -1
				e.reqs.at(x.twin).flags |= rfDead // the loser's driver collects it
				if r.flags&rfHedge != 0 {
					e.m.HedgeWins++
				}
			}
			x.twin = -1
		}
		user = x.user
	}
	if r.arrive >= e.warmupMs && r.arrive <= e.endMs {
		e.m.Completed++
		e.m.Latency.Add(e.sim.now - r.arrive)
	}
	if user >= 0 {
		e.think(user)
	}
	e.free(idx)
}

// --- policies ---

func (e *engine) onTimeout(idx, gen int32) {
	r := e.reqs.at(idx)
	if r.gen != uint32(gen) {
		// The slot was freed and reused: a stale no-op.
		e.staleEvents++
		return
	}
	e.ext.at(idx).hTimeout = 0 // this firing consumes the slot's armed timeout
	if r.flags&rfDead != 0 {
		e.staleEvents++
		return
	}
	e.m.TimedOut++
	e.abandonTry(idx, false)
}

// abandonTry gives up on the current try: retry with backoff if budget
// remains, otherwise fail the logical request. When the caller is the
// slot's driver (inline queue rejection) the slot is freed here; a
// timeout is not the driver and leaves the dead slot for its queue
// entry / in-service event / outstanding legs to collect.
func (e *engine) abandonTry(idx int32, isDriver bool) {
	r, x := e.reqs.at(idx), e.ext.at(idx)
	r.flags |= rfDead
	// r.tries < 255 saturates the uint8 counter: with MaxRetries ≥ 255
	// it would wrap to 0 and retry forever.
	if int(r.tries) < e.pol.MaxRetries && r.tries < math.MaxUint8 {
		e.m.Retried++
		n := e.alloc()
		c, cx := e.reqs.at(n), e.ext.at(n)
		c.arrive = r.arrive
		c.tries = r.tries + 1
		c.flags = r.flags & rfHedge
		c.coins = r.coins
		c.parent = -1
		cx.user = x.user
		cx.twin = -1
		cx.joins = 0
		// A hedge pair survives a retry: relink so the first completion
		// still cancels the other copy.
		if x.twin >= 0 {
			t := e.ext.at(x.twin)
			if t.twin == idx {
				t.twin = n
				cx.twin = x.twin
			}
			x.twin = -1
		}
		// The retry rides the wheel too, but keeps no handle: the timer
		// is the backing-off slot's driver and must always fire (it
		// frees a slot whose twin resolved during the backoff).
		e.sim.AtTimer(e.backoff(c.tries), ekRetry, n, int32(c.gen))
	} else {
		e.failTry(idx)
	}
	if isDriver {
		e.free(idx)
	}
}

// failTry resolves a logical request as failed — unless a live hedge
// twin remains, in which case the survivor carries it alone.
func (e *engine) failTry(idx int32) {
	r, x := e.reqs.at(idx), e.ext.at(idx)
	survivor := false
	if x.twin >= 0 {
		t := e.ext.at(x.twin)
		if t.twin == idx && e.reqs.at(x.twin).flags&rfDead == 0 {
			survivor = true
			t.twin = -1
		}
		x.twin = -1
	}
	if !survivor {
		if r.arrive >= e.warmupMs && r.arrive <= e.endMs {
			e.m.Failed++
		}
		if x.user >= 0 {
			e.think(x.user)
		}
	}
}

func (e *engine) onRetry(idx, gen int32) {
	r := e.reqs.at(idx)
	if r.gen != uint32(gen) {
		e.staleEvents++
		return
	}
	if r.flags&rfDead != 0 {
		e.free(idx) // cancelled while backing off (its twin resolved first)
		return
	}
	e.launchTry(idx)
}

func (e *engine) onHedge(idx, gen int32) {
	r := e.reqs.at(idx)
	if r.gen != uint32(gen) {
		e.staleEvents++
		return
	}
	x := e.ext.at(idx)
	x.hHedge = 0 // this firing consumes the slot's armed hedge
	if r.flags&rfDead != 0 || x.twin >= 0 {
		e.staleEvents++
		return
	}
	e.m.Hedged++
	n := e.alloc()
	c, cx := e.reqs.at(n), e.ext.at(n)
	c.arrive = r.arrive
	c.tries = 0
	c.flags = rfHedge
	c.coins = r.coins
	c.parent = -1
	cx.user = x.user
	cx.twin = idx
	cx.joins = 0
	x.twin = n
	e.launchTry(n)
}

// --- batches (RPU mode) ---

func (e *engine) allocBatch() int32 {
	idx := e.batchFree
	if idx >= 0 {
		e.batchFree = e.batches.at(idx).parent
	} else {
		idx = e.batches.grow()
	}
	b := e.batches.at(idx)
	b.parent = -1
	b.joins = 0
	// A slot keeps its member slice across reuse: slots are never
	// copied, so the slice is the slot's own for the whole run.
	if b.members == nil {
		b.members = make([]int32, 0, min(e.cfg.BatchSize, maxBatchPresize))
	} else {
		b.members = b.members[:0]
	}
	return idx
}

func (e *engine) freeBatch(idx int32) {
	b := e.batches.at(idx)
	if b.hTimer != 0 {
		e.sim.Cancel(b.hTimer)
		b.hTimer = 0
	}
	b.gen++
	b.forming = false
	b.parent = e.batchFree // the free-list link, as for requests
	e.batchFree = idx
}

// joinBatch adds a formation-point request to the forming batch,
// arming the formation timer when the batch is born — per batch, from
// its first request. A size-triggered launch cancels it (launchBatch),
// so a stale timer can never flush the next batch early.
func (e *engine) joinBatch(idx int32) {
	if e.forming < 0 {
		bi := e.allocBatch()
		e.forming = bi
		b := e.batches.at(bi)
		b.forming = true
		b.hTimer = e.sim.AtTimer(e.cfg.BatchTimeout, ekBatchTimer, bi, int32(b.gen))
	}
	b := e.batches.at(e.forming)
	b.members = append(b.members, idx)
	if len(b.members) >= e.cfg.BatchSize {
		bi := e.forming
		e.forming = -1
		e.launchBatch(bi)
	}
}

func (e *engine) onBatchTimer(bi, gen int32) {
	b := e.batches.at(bi)
	if b.gen != uint32(gen) {
		e.staleEvents++
		return
	}
	b.hTimer = 0 // this firing consumes the batch's armed timer
	if !b.forming {
		e.staleEvents++
		return
	}
	e.forming = -1
	e.launchBatch(bi)
}

func (e *engine) launchBatch(bi int32) {
	b := e.batches.at(bi)
	if b.hTimer != 0 {
		// Size-triggered launch: the formation timer can never fire
		// usefully again, so deschedule it.
		e.sim.Cancel(b.hTimer)
		b.hTimer = 0
	}
	b.forming = false
	e.m.Batches++
	e.m.AvgBatchFill += float64(len(b.members))
	if e.g.bentryHop {
		e.sim.atLane(laneWire, e.netHop, ekBatchNet, bi, e.g.bentry)
	} else {
		e.enterBatch(bi, e.g.bentry)
	}
}

func (e *engine) submitBatch(st *estation, bi int32) {
	if st.busy < st.servers {
		st.account(e.sim.now)
		st.busy++
		e.serveBatch(st, bi)
	} else {
		st.q.push(pack(bi, e.batches.at(bi).gen))
	}
	st.probe.sample(e.sim.now, st.q.n, int(st.busy))
}

func (e *engine) onBatchDone(bi, stIdx int32) {
	st := &e.sts[stIdx]
	now := e.sim.now
	st.account(now)
	st.busy--
	b := e.batches.at(bi)
	st.probe.observe(now, now-b.enq)
	st.probe.sample(now, st.q.n, int(st.busy))
	e.dispatchNext(st)
	e.routeBatch(bi)
}

func (e *engine) completeBatch(bi int32) {
	b := e.batches.at(bi)
	for _, idx := range b.members {
		if e.reqs.at(idx).flags&rfDead != 0 {
			e.free(idx)
			continue
		}
		e.complete(idx)
	}
	e.freeBatch(bi)
}
