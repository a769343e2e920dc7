package queuesim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// recordSim returns a Sim whose Handle records each dispatched event's
// a payload, in dispatch order.
func recordSim(order *[]int32) *Sim {
	s := NewSimSched(1, SchedCalendar)
	s.Handle = func(kind uint8, a, b int32) { *order = append(*order, a) }
	return s
}

func TestEventOrdering(t *testing.T) {
	var order []int32
	s := recordSim(&order)
	s.AtEvent(5, 1, 2, 0)
	s.AtEvent(1, 1, 1, 0)
	s.AtTimer(9, 1, 3, 0)
	s.Run(100)
	if !reflect.DeepEqual(order, []int32{1, 2, 3}) {
		t.Fatalf("order %v", order)
	}
	// The clock finishes at the horizon even though the queue drained
	// at t=9, so rate denominators are independent of queue state.
	if s.Now() != 100 {
		t.Fatalf("clock %v, want 100", s.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	var order []int32
	s := recordSim(&order)
	for i := int32(0); i < 10; i++ {
		// Timers and plain events share one (at, seq) order, so the
		// calendar/wheel merge must not reorder the mix.
		if i%3 == 0 {
			s.AtTimer(3, 1, i, 0)
		} else {
			s.AtEvent(3, 1, i, 0)
		}
	}
	s.Run(100)
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	var order []int32
	s := recordSim(&order)
	s.AtEvent(50, 1, 1, 0)
	s.Run(10)
	if len(order) != 0 {
		t.Fatal("event past the horizon fired")
	}
	if s.Now() != 10 {
		t.Fatalf("clock %v", s.Now())
	}
}

// TestRunKeepsFutureEvents: stopping on a beyond-horizon event must not
// drop it — a later Run picks it up.
func TestRunKeepsFutureEvents(t *testing.T) {
	var order []int32
	s := recordSim(&order)
	s.AtEvent(80, 1, 1, 0)
	s.AtTimer(90, 1, 2, 0)
	s.Run(50)
	if len(order) != 0 {
		t.Fatal("events fired before their time")
	}
	s.Run(100)
	if !reflect.DeepEqual(order, []int32{1, 2}) {
		t.Fatalf("future events dropped by the earlier Run: %v", order)
	}
}

// stationEngine builds an engine over one station of the given server
// count whose single stage takes exactly demand ms, with no arrival
// process: tests issue requests by hand and drive e.sim directly.
func stationEngine(t *testing.T, servers int, demand float64) *engine {
	t.Helper()
	c := DefaultConfig()
	c.Cores = servers
	c.Seconds = 1e3
	c.Warmup = 0
	spec := &GraphSpec{Name: "station", Entry: "serve",
		Stations: []StationSpec{{Name: "t"}},
		Stages: []StageSpec{{Name: "serve", Station: "t", DemandMs: demand, Fixed: true,
			Next: []EdgeSpec{{To: edgeDone}}}}}
	e, err := newTailEngine(TailConfig{Config: c, Scale: 1, Graph: spec})
	if err != nil {
		t.Fatalf("newTailEngine: %v", err)
	}
	return e
}

func TestStationSerialisesBeyondServers(t *testing.T) {
	e := stationEngine(t, 2, 10)
	for i := 0; i < 4; i++ {
		e.issue(-1)
	}
	// 2 servers: the first two complete at t=10, the next two at t=20.
	e.sim.Run(15)
	if e.m.Completed != 2 {
		t.Fatalf("%d completed by t=15, want 2", e.m.Completed)
	}
	e.sim.Run(1000)
	lat := e.m.Latency
	if e.m.Completed != 4 || lat.Percentile(0) != 10 || lat.Percentile(100) != 20 || lat.Mean() != 15 {
		t.Fatalf("completed %d, latency min %v max %v mean %v; want 4 at 10,10,20,20",
			e.m.Completed, lat.Percentile(0), lat.Percentile(100), lat.Mean())
	}
}

func TestStationUtilization(t *testing.T) {
	e := stationEngine(t, 1, 50)
	e.issue(-1)
	e.sim.Run(100)
	if u := e.stationUtil(0); u < 0.45 || u > 0.55 {
		t.Fatalf("utilization %v, want ~0.5", u)
	}
}

// TestUtilizationConsistentAcrossExitPaths is the regression test for
// the Sim.Run clock bug: a run whose queue drains before the horizon
// used to leave now at the last event's timestamp while a run stopped
// by a future event set now = until, so utilisation divided the same
// busy time by different denominators depending on how the run ended.
func TestUtilizationConsistentAcrossExitPaths(t *testing.T) {
	// Exit path 1: the queue drains (only event at t=50).
	drained := stationEngine(t, 1, 50)
	drained.issue(-1)
	drained.sim.Run(200)
	if drained.sim.Now() != 200 {
		t.Fatalf("drained run clock %v, want 200 (old behaviour: 50)", drained.sim.Now())
	}

	// Exit path 2: stopped by an event beyond the horizon (a kind
	// the engine does not handle, so it is a no-op).
	stopped := stationEngine(t, 1, 50)
	stopped.issue(-1)
	stopped.sim.AtEvent(500, 0xFF, 0, 0)
	stopped.sim.Run(200)
	if stopped.sim.Now() != 200 {
		t.Fatalf("stopped run clock %v, want 200", stopped.sim.Now())
	}

	ud, us := drained.stationUtil(0), stopped.stationUtil(0)
	if ud != us {
		t.Fatalf("utilization depends on exit path: drained %v vs stopped %v", ud, us)
	}
	if ud < 0.24 || ud > 0.26 {
		t.Fatalf("utilization %v, want 50/200 = 0.25", ud)
	}
}

// TestUtilizationSettlesBusyTail: a station still busy when the run
// stops must be credited for the busy time since its last state
// change.
func TestUtilizationSettlesBusyTail(t *testing.T) {
	e := stationEngine(t, 1, 100)
	e.issue(-1) // completion at t=100 is beyond the horizon
	e.sim.Run(50)
	if u := e.stationUtil(0); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization %v, want 1.0 (busy tail not settled)", u)
	}
	// Settlement must not double-count once the event loop resumes.
	e.sim.Run(100)
	if u := e.stationUtil(0); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization after resume %v, want 1.0", u)
	}
}

// Property: every request issued to a station completes exactly once,
// whatever the server count and backlog.
func TestQuickStationConservation(t *testing.T) {
	f := func(n, servers, demand uint8) bool {
		e := stationEngine(t, int(servers%8)+1, float64(demand%50)+1)
		for i := 0; i < int(n); i++ {
			e.issue(-1)
		}
		e.sim.Run(1e9)
		return e.m.Arrived == int(n) && e.m.Completed == int(n) && e.live == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSystemConservationLowLoad(t *testing.T) {
	for _, mode := range []struct {
		rpu, split bool
	}{{false, false}, {true, false}, {true, true}} {
		cfg := DefaultConfig()
		cfg.QPS = 2000
		cfg.Seconds = 2
		cfg.RPU, cfg.Split = mode.rpu, mode.split
		m := Run(cfg)
		measured := cfg.Seconds - cfg.Warmup
		expected := cfg.QPS * measured
		got := float64(m.Completed)
		if got < expected*0.9 || got > expected*1.1 {
			t.Fatalf("mode %+v: completed %v of ~%v offered", mode, got, expected)
		}
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	low := DefaultConfig()
	low.QPS = 2000
	low.Seconds = 2
	high := low
	high.QPS = 15500
	ml, mh := Run(low), Run(high)
	if mh.Latency.Percentile(99) <= ml.Latency.Percentile(99) {
		t.Fatalf("p99 did not grow with load: %v vs %v",
			ml.Latency.Percentile(99), mh.Latency.Percentile(99))
	}
}

func TestCPUSaturatesNearPaperKnee(t *testing.T) {
	under := DefaultConfig()
	under.QPS = 13000
	under.Seconds = 2
	over := under
	over.QPS = 22000
	mu, mo := Run(under), Run(over)
	if mu.UserUtil > 0.99 {
		t.Fatalf("CPU saturated below 13 kQPS (util %.2f)", mu.UserUtil)
	}
	if mo.UserUtil < 0.99 {
		t.Fatalf("CPU not saturated at 22 kQPS (util %.2f)", mo.UserUtil)
	}
}

func TestRPUSplitSustainsHigherLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QPS = 45000
	cfg.Seconds = 2
	cfg.RPU, cfg.Split = true, true
	m := Run(cfg)
	if m.UserUtil > 0.99 {
		t.Fatalf("RPU w/ split saturated at 45 kQPS (util %.2f)", m.UserUtil)
	}
	if m.Throughput() < 40000 {
		t.Fatalf("throughput %v at 45 kQPS", m.Throughput())
	}
}

func TestNoSplitInflatesAverageNotTail(t *testing.T) {
	base := DefaultConfig()
	base.QPS = 20000
	base.Seconds = 2
	base.RPU = true

	split := base
	split.Split = true
	ms, mn := Run(split), Run(base)
	// Without splitting, hit requests wait for the storage round trip:
	// average latency inflates by most of the storage latency.
	if mn.Latency.Mean() < ms.Latency.Mean()+0.5*base.StorageLatency {
		t.Fatalf("no-split average %.2f not inflated vs split %.2f",
			mn.Latency.Mean(), ms.Latency.Mean())
	}
	// Tail stays within the same order (CPU tails include storage too).
	if mn.Latency.Percentile(99) > 3*ms.Latency.Percentile(99) {
		t.Fatalf("no-split tail blew up: %.2f vs %.2f",
			mn.Latency.Percentile(99), ms.Latency.Percentile(99))
	}
}

func TestBatchFormationFillsUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QPS = 40000
	cfg.Seconds = 2
	cfg.RPU, cfg.Split = true, true
	m := Run(cfg)
	if m.AvgBatchFill < 16 {
		t.Fatalf("average batch fill %.1f at high load", m.AvgBatchFill)
	}
	cfg.QPS = 2000
	m2 := Run(cfg)
	if m2.AvgBatchFill >= m.AvgBatchFill {
		t.Fatal("batch fill should shrink at low load (timeout flushes)")
	}
}

// webTierBatching is the §VI-H alternative placement as a spec: the
// social graph with batches formed at a zero-demand ingress, before the
// web tier, so each batch crosses web as one unit instead of every
// request being acknowledged individually first.
func webTierBatching(cfg Config) *GraphSpec {
	g := SocialGraph(cfg)
	g.Name = "social-webtier"
	g.Entry = "ingress"
	g.Stations = append(g.Stations, StationSpec{Name: "ingress", Infinite: true})
	g.Stages = append(g.Stages, StageSpec{Name: "ingress", Station: "ingress", Fixed: true,
		Next: []EdgeSpec{{To: "web"}}})
	g.Batch.FormAfter = "ingress"
	g.Batch.Entry = "bweb"
	g.Batch.EntryHop = false
	g.Batch.Stages = append([]BatchStageSpec{{Name: "bweb", Station: "web", DemandMs: cfg.WebDemand,
		Next: []EdgeSpec{{To: "buser1", Hop: true}}}}, g.Batch.Stages...)
	return g
}

func TestBatchTierPlacement(t *testing.T) {
	// §VI-H: logic-tier batching (the default) must behave like web-tier
	// batching within noise, while acknowledging requests individually.
	base := DefaultConfig()
	base.QPS = 20000
	base.Seconds = 2
	base.RPU, base.Split = true, true
	spec := webTierBatching(base)
	if err := spec.Validate(); err != nil {
		t.Fatalf("web-tier spec: %v", err)
	}
	ml := Run(base)
	mw := mustTail(t, TailConfig{Config: base, Scale: 1, Graph: spec})
	if ml.Completed == 0 || mw.Completed == 0 {
		t.Fatal("no completions")
	}
	rl, rw := ml.Latency.Mean(), mw.Latency.Mean()
	if rl > rw*1.1 || rw > rl*1.1 {
		t.Fatalf("batch placement changed latency drastically: logic tier %v vs web tier %v", rl, rw)
	}
	// The CPU path ignores batching: through the ingress it is the
	// social graph plus one zero-time stage.
	cpu := base
	cpu.QPS = 5000
	cpu.RPU, cpu.Split = false, false
	checkConservation(t, mustTail(t, TailConfig{Config: cpu, Scale: 1, Graph: webTierBatching(cpu)}), "webtier-cpu")
}

func TestComposePostConservation(t *testing.T) {
	for _, rpu := range []bool{false, true} {
		cfg := DefaultComposePost()
		cfg.QPS = 3000
		cfg.Seconds = 2
		cfg.RPU = rpu
		m := RunComposePost(cfg)
		measured := cfg.Seconds - cfg.Warmup
		want := cfg.QPS * measured
		if got := float64(m.Completed); got < want*0.9 || got > want*1.1 {
			t.Fatalf("rpu=%v: completed %v of ~%v", rpu, got, want)
		}
	}
}

func TestComposePostRPUHigherCapacity(t *testing.T) {
	// Offered load past the CPU orchestrator's knee: the RPU system
	// keeps up where the CPU saturates.
	cfg := DefaultComposePost()
	cfg.QPS = 60000
	cfg.Seconds = 2
	cpu := RunComposePost(cfg)
	cfg.RPU = true
	rpu := RunComposePost(cfg)
	if cpu.UserUtil < 0.99 {
		t.Fatalf("CPU orchestrator not saturated at 60 kQPS (util %.2f)", cpu.UserUtil)
	}
	if rpu.UserUtil > 0.99 {
		t.Fatalf("RPU orchestrator saturated at 60 kQPS (util %.2f)", rpu.UserUtil)
	}
	if rpu.Completed <= cpu.Completed {
		t.Fatal("RPU should complete more under overload")
	}
}

func TestComposePostFanoutJoins(t *testing.T) {
	cfg := DefaultComposePost()
	cfg.QPS = 1000
	cfg.Seconds = 1.5
	m := RunComposePost(cfg)
	// No-load latency floor: web + orch + slowest leg (text 0.8) +
	// storage 1.0 + cache + hops ≈ 3.6 ms; the mean must sit near it.
	if mean := m.Latency.Mean(); mean < 2.5 || mean > 6 {
		t.Fatalf("compose-post unloaded mean %.2f ms outside plausible band", mean)
	}
}

func TestJitterBounds(t *testing.T) {
	s := NewSimSched(3, SchedCalendar)
	for i := 0; i < 1000; i++ {
		v := s.Jitter(10)
		if v < 8 || v > 12 {
			t.Fatalf("jitter %v outside ±20%%", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := NewSimSched(4, SchedCalendar)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.Exp(5)
	}
	if mean := sum / float64(n); mean < 4.5 || mean > 5.5 {
		t.Fatalf("exponential mean %v, want ~5", mean)
	}
}
