package queuesim

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// schedRef drives a Sim and keeps a reference that does not depend on
// the scheduler's implementation: the time of every scheduled event,
// which ones were cancelled, and the order actually dispatched. An
// event's id is its a payload and its index in arming order, so it is
// also the FIFO tie-break among equal times.
type schedRef struct {
	s    *Sim
	at   []float64
	dead []bool
	tids []TimerID // live timer handles; 0 once fired or cancelled
	got  []int32
	on   func(id int32) // optional handler work after recording
}

func newSchedRef() *schedRef {
	r := &schedRef{s: NewSimSched(1, SchedCalendar)}
	r.s.Handle = func(kind uint8, a, b int32) {
		r.got = append(r.got, a)
		r.tids[a] = 0
		if r.on != nil {
			r.on(a)
		}
	}
	return r
}

func (r *schedRef) record(delay float64) int32 {
	r.at = append(r.at, r.s.Now()+max(delay, 0))
	r.dead = append(r.dead, false)
	r.tids = append(r.tids, 0)
	return int32(len(r.at) - 1)
}

// event schedules a plain event; timer arms a cancellable one.
func (r *schedRef) event(delay float64) int32 {
	id := r.record(delay)
	r.s.AtEvent(delay, 1, id, 0)
	return id
}

// lane schedules an event on lane l, the engine's in-order fast path.
func (r *schedRef) lane(l int, delay float64) int32 {
	id := r.record(delay)
	r.s.atLane(l, delay, 3, id, 0)
	return id
}

func (r *schedRef) timer(delay float64) int32 {
	id := r.record(delay)
	r.tids[id] = r.s.AtTimer(delay, 2, id, 0)
	return id
}

// cancel deschedules a timer that has not fired yet; anything else is
// a no-op.
func (r *schedRef) cancel(id int32) {
	if r.tids[id] == 0 {
		return
	}
	r.s.Cancel(r.tids[id])
	r.tids[id] = 0
	r.dead[id] = true
}

// check compares the dispatched sequence after a run to until with the
// reference: every scheduled event minus the cancelled ones, sorted by
// (at, arming order) and cut at until; the rest must be pending.
func (r *schedRef) check(t *testing.T, until float64) {
	t.Helper()
	var want []int32
	later := 0
	for i := range r.at {
		switch {
		case r.dead[i]:
		case r.at[i] <= until:
			want = append(want, int32(i))
		default:
			later++
		}
	}
	if r.s.Pending() != later {
		t.Fatalf("Pending() = %d, reference has %d events past %v", r.s.Pending(), later, until)
	}
	sort.Slice(want, func(x, y int) bool {
		a, b := want[x], want[y]
		if r.at[a] != r.at[b] {
			return r.at[a] < r.at[b]
		}
		return a < b
	})
	for i := range want {
		if i >= len(r.got) || r.got[i] != want[i] {
			t.Fatalf("dispatch %d of %d diverged from the (at, seq) reference (%d dispatched)",
				i, len(want), len(r.got))
		}
	}
	if len(r.got) != len(want) {
		t.Fatalf("dispatched %d events, reference has %d", len(r.got), len(want))
	}
	if r.s.Events() != uint64(len(want)) {
		t.Fatalf("Events() = %d, reference has %d", r.s.Events(), len(want))
	}
}

// TestCalendarOrderProperty: a flood of heavily colliding timestamps —
// plain events and timers mixed, same-time chains scheduled from
// inside the handler — dispatches in exact (at, seq) order, at a
// mid-run horizon and after the full drain.
func TestCalendarOrderProperty(t *testing.T) {
	r := newSchedRef()
	rng := rand.New(rand.NewSource(42))
	chain := map[int32]int{}
	r.on = func(id int32) {
		if n := chain[id]; n > 0 {
			// Same-timestamp chain: reschedules at now with a fresh seq.
			chain[r.event(0)] = n - 1
		}
	}
	times := []float64{0, 0.001, 0.001, 0.5, 0.5, 0.5, 0.5, 7, 7, 7}
	for i := 0; i < 5000; i++ {
		d := times[rng.Intn(len(times))]
		var id int32
		if i%10 == 0 {
			id = r.timer(d) // never cancelled
		} else {
			id = r.event(d)
		}
		chain[id] = rng.Intn(3)
	}
	r.s.Run(0.5)
	r.check(t, 0.5)
	r.s.Run(100)
	r.check(t, 100)
	if len(r.got) <= 5000 {
		t.Fatalf("%d dispatches: the handler chains never ran", len(r.got))
	}
}

// TestLaneOrderProperty: lane events — in order, same-time chains
// and out-of-order pushes that must fall back to the calendar — mixed
// with calendar events and armed and cancelled timers dispatch in
// exact (at, seq) order, with Events() and Pending() exact, at
// mid-run horizons and after the full drain.
func TestLaneOrderProperty(t *testing.T) {
	r := newSchedRef()
	rng := rand.New(rand.NewSource(11))
	chain := map[int32]int{}
	var timers []int32
	// The handler's wire pushes (a constant hop, or same-time chains)
	// land behind the seeded wire tail until the clock passes it; the
	// seeded arrival-lane events are drawn in random order.
	const hop = 0.06
	r.on = func(id int32) {
		switch n := chain[id]; {
		case n > 0:
			// Same-time chain on the wire lane: at == the lane tail.
			chain[r.lane(laneWire, 0)] = n - 1
		case rng.Intn(4) == 0:
			chain[r.lane(laneWire, hop)] = rng.Intn(3)
		}
		if len(r.got)%50 == 0 && len(timers) > 0 {
			r.cancel(timers[rng.Intn(len(timers))])
		}
	}
	for i := 0; i < 4000; i++ {
		d := rng.Float64() * 10
		var id int32
		switch i % 5 {
		case 0:
			id = r.event(d)
		case 1:
			id = r.timer(d)
			timers = append(timers, id)
		case 2:
			id = r.lane(laneArrival, d) // mostly behind the tail: falls back
		default:
			id = r.lane(laneWire, float64(i)*1e-3) // in order
		}
		chain[id] = rng.Intn(3)
	}
	for _, until := range []float64{0, 0.5, 3, 3, 100} {
		r.s.Run(until)
		r.check(t, until)
	}
	wire, arr := &r.s.lanes[laneWire], &r.s.lanes[laneArrival]
	if wire.pushed == 0 || arr.pushed == 0 {
		t.Fatalf("lane events: wire %d, arrival %d; the fast path never ran", wire.pushed, arr.pushed)
	}
	if arr.fallbacks == 0 || wire.fallbacks == 0 {
		t.Fatalf("lane fallbacks: wire %d, arrival %d; an out-of-order push never fell back",
			wire.fallbacks, arr.fallbacks)
	}
}

// TestLaneFastPathEngaged: on Poisson arrivals every bundled graph
// sends its wire hops down the wire lane and none of them falls back.
// A silent fallback keeps output identical and only costs host time,
// so nothing else would notice it.
func TestLaneFastPathEngaged(t *testing.T) {
	for _, name := range GraphNames() {
		for _, rpu := range []bool{false, true} {
			cfg := tailBase()
			cfg.Seconds = 0.2
			cfg.Warmup = 0.05
			cfg.Drain = 0.2
			cfg.RPU, cfg.Split = rpu, rpu
			spec, err := GraphByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Graph = spec
			e, err := newTailEngine(cfg)
			if err != nil {
				t.Fatalf("%s rpu=%v: %v", name, rpu, err)
			}
			e.run()
			wire, arr := &e.sim.lanes[laneWire], &e.sim.lanes[laneArrival]
			if wire.pushed == 0 || arr.pushed == 0 {
				t.Errorf("%s rpu=%v: lane events wire %d, arrival %d; want both > 0", name, rpu, wire.pushed, arr.pushed)
			}
			if n := wire.fallbacks + arr.fallbacks; n != 0 {
				t.Errorf("%s rpu=%v: %d lane fallbacks, want 0", name, rpu, n)
			}
		}
	}
}

// TestWheelCascade: timers straddling every wheel level boundary
// (level 0 ends at 32 ms, level 1 at 2048 ms, level 2 at 131072 ms,
// the wheel at ~8.39e6 ms) dispatch in exact (at, seq) order through
// slot cascades, the overflow list and mid-drain arming, with
// cancellations hitting every entry state — and the wheel actually
// exercised its cascade and overflow machinery.
func TestWheelCascade(t *testing.T) {
	delays := []float64{
		0.1, 3, 15.9, 16.1, 31.7, 31.9, 32.1, 33, 48, 63.9, 64.1, // level 0/1 boundary
		500, 2040, 2047.9, 2048.1, 2100, 4000, // level 1/2 boundary
		60000, 131071, 131073, 500000, // level 2/3 boundary
		2e6, 8e6, 8.5e6, 9e6, // top level and overflow
	}
	r := newSchedRef()
	r.on = func(int32) {
		if len(r.got)%8 == 0 {
			// Arm a short timer mid-drain: it must merge into the due
			// window in global (at, seq) order.
			r.timer(0.01)
		}
	}
	var ids []int32
	for rep := 0; rep < 4; rep++ {
		for _, d := range delays {
			ids = append(ids, r.timer(d+float64(rep)*0.003))
		}
	}
	cancels := 0
	// Cancel every 7th timer up front (hits twInSlot and twInOvf)...
	for i, id := range ids {
		if i%7 == 3 {
			r.cancel(id)
			cancels++
		}
	}
	// ...run partway, then cancel every 7th survivor with a pending
	// deadline (hits twInDue tombstones and re-placed slot entries).
	r.s.Run(16)
	r.check(t, 16)
	for i, id := range ids {
		if i%7 == 5 && delays[i%len(delays)] > 16 {
			r.cancel(id)
			cancels++
		}
	}
	r.s.Run(1e7)
	r.check(t, 1e7)
	s := r.s
	if s.CancelledTimers() != uint64(cancels) {
		t.Fatalf("CancelledTimers = %d, want %d", s.CancelledTimers(), cancels)
	}
	if s.Pending() != 0 || s.tw.live != 0 {
		t.Fatalf("after full drain: Pending %d, wheel live %d", s.Pending(), s.tw.live)
	}
	if s.tw.cascades == 0 {
		t.Fatal("no slot cascades: boundary delays never crossed a level")
	}
	if s.tw.overflows == 0 {
		t.Fatal("no overflow placements: horizon delays fit the wheel")
	}
}

// TestCancelledTimerSemantics: a cancelled timer is descheduled at
// once — Pending drops, CancelledTimers counts it — and never
// dispatches or counts in Events.
func TestCancelledTimerSemantics(t *testing.T) {
	r := newSchedRef()
	for i := 0; i < 10; i++ {
		r.timer(float64(i + 1))
	}
	for id := int32(0); id < 4; id++ {
		r.cancel(id)
	}
	if got := r.s.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	if got := r.s.CancelledTimers(); got != 4 {
		t.Fatalf("CancelledTimers = %d, want 4", got)
	}
	r.s.Run(100)
	r.check(t, 100)
	if r.s.Events() != 6 || r.s.Pending() != 0 {
		t.Fatalf("after drain: Events %d, Pending %d; want 6 and 0", r.s.Events(), r.s.Pending())
	}
}

// TestCalendarResizeMidRun: interleaved pushes and pops drive the
// bucket array through grows and shrinks and the scan through the
// direct-min fallback; the popped sequence must equal every pushed
// event sorted by (at, seq).
func TestCalendarResizeMidRun(t *testing.T) {
	q := &calQueue{}
	rng := rand.New(rand.NewSource(5))
	var pushed, popped []calEvent
	push := func(at float64) {
		e := calEvent{at: at, seq: uint64(len(pushed) + 1), kind: 1}
		pushed = append(pushed, e)
		q.push(e)
	}
	lastAt := func() float64 { return popped[len(popped)-1].at }
	pop := func() { popped = append(popped, q.pop()) }
	// Phase 1: dense cluster forces grows well past the floor.
	for i := 0; i < 5000; i++ {
		push(rng.Float64() * 100)
	}
	grows := q.resizes
	if grows == 0 {
		t.Fatal("5000 pushes triggered no grow")
	}
	// Phase 2: drain most of it (shrinks), interleaving fresh pushes
	// with timestamps at and beyond the already-popped frontier.
	for i := 0; i < 4600; i++ {
		pop()
		if i%5 == 0 {
			push(lastAt() + rng.Float64()*200)
		}
	}
	if q.resizes == grows {
		t.Fatal("drain triggered no shrink")
	}
	// Phase 3: drain fully and walk the bucket array back to the
	// floor, where pops cannot shrink (and so cannot recalibrate the
	// width) any further.
	for q.count > 0 {
		pop()
	}
	for len(q.buckets) > calMinBuckets {
		push(lastAt() + 1)
		pop()
	}
	// Two stragglers a full rotation apart: after popping the first,
	// the scan must rotate through every window, miss, and fall back
	// to the direct minimum.
	base := lastAt() + 1
	push(base)
	push(base + q.width*float64(len(q.buckets))*3)
	pop()
	pop()
	if q.directScans == 0 {
		t.Fatal("far-future straggler never hit the direct-scan fallback")
	}
	sort.Slice(pushed, func(i, j int) bool { return eventLess(&pushed[i], &pushed[j]) })
	if !reflect.DeepEqual(popped, pushed) {
		for i := range pushed {
			if popped[i] != pushed[i] {
				t.Fatalf("pop %d of %d: got (%v, %d), reference (%v, %d)",
					i, len(pushed), popped[i].at, popped[i].seq, pushed[i].at, pushed[i].seq)
			}
		}
		t.Fatalf("popped %d events, pushed %d", len(popped), len(pushed))
	}
}

// TestSchedCalendarDeterminism: 4 seeds with policy timers on the
// wheel, run sequentially and in parallel, must agree exactly — the
// scheduler shares no state across Sims.
func TestSchedCalendarDeterminism(t *testing.T) {
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
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("seed %d: parallel run diverged from sequential:\nseq %+v\npar %+v",
				i+1, seq[i], par[i])
		}
	}
}

// TestCalendarSteadyStateAllocs: the engine with every policy timer
// armed on the wheel allocates nothing once warmed.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	cfg := tailBase()
	cfg.Seconds = 2
	cfg.Warmup = 0
	cfg.QPS = 15000
	cfg.Policy = PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 25}
	e, err := newTailEngine(cfg)
	if err != nil {
		t.Fatalf("newTailEngine: %v", err)
	}
	e.startArrivals()
	now := 200.0
	e.sim.Run(now) // grow arenas, buckets, wheel freelist to steady state
	n := testing.AllocsPerRun(100, func() {
		now += 5
		e.sim.Run(now)
	})
	if n != 0 {
		t.Fatalf("calendar steady-state event loop allocates %v allocs/op, want 0", n)
	}
}

// TestStationTypedDispatchAllocs: the batched station service path —
// RPU batch formation, typed batch-service events and the split
// divergence — allocates nothing once warmed
// (TestEngineSteadyStateAllocs covers the per-request CPU path).
func TestStationTypedDispatchAllocs(t *testing.T) {
	cfg := tailBase()
	cfg.Warmup = 0
	cfg.RPU = true
	cfg.Split = true
	e, err := newTailEngine(cfg)
	if err != nil {
		t.Fatalf("newTailEngine: %v", err)
	}
	e.startArrivals()
	now := 200.0
	e.sim.Run(now)
	n := testing.AllocsPerRun(100, func() {
		now += 5
		e.sim.Run(now)
	})
	if n != 0 {
		t.Fatalf("batched station dispatch allocates %v allocs/op, want 0", n)
	}
	if e.m.Batches == 0 || e.m.SplitBatches == 0 {
		t.Fatalf("%d batches, %d split: the batch path never ran", e.m.Batches, e.m.SplitBatches)
	}
}

// timersBehindChain arms timers past the wheel's top level, which
// park on its overflow list. Once its levels empty, the wheel rebases
// its cursor onto them while a calendar chain still runs and keeps
// arming short timers behind that cursor.
func timersBehindChain(r *schedRef, far ...float64) {
	for _, d := range far {
		r.timer(d)
	}
	r.timer(3)
	left := 1000
	r.on = func(int32) {
		if left > 0 {
			left--
			r.event(1)
			if left%10 == 0 {
				r.timer(0.7)
			}
		}
	}
	r.event(1)
}

// TestCalendarFarFutureOrder: events whose day or tick number would
// leave int64 — far finite times and +Inf — dispatch in exact (at, seq)
// order, alone, among near events, across calendar resizes and timer
// wheel overflow rebases.
func TestCalendarFarFutureOrder(t *testing.T) {
	inf := math.Inf(1)
	chain := func(r *schedRef, n int, step float64, arm func(float64) int32) {
		left := n - 1
		r.on = func(int32) {
			if left > 0 {
				left--
				arm(step)
			}
		}
		arm(step)
	}
	for _, tc := range []struct {
		label  string
		script func(r *schedRef)
	}{
		{"1e19-then-chain", func(r *schedRef) {
			r.event(1e19)
			chain(r, 1000, 1, r.event)
		}},
		{"inf-then-chain", func(r *schedRef) {
			r.event(inf)
			chain(r, 1000, 1, r.event)
		}},
		{"far-events-through-resizes", func(r *schedRef) {
			rng := rand.New(rand.NewSource(9))
			for _, far := range []float64{inf, 1e19, 5e17, inf, 1e300, 1e19} {
				r.event(far)
			}
			// Grow the bucket array several times with the far events
			// queued, then drain (shrinks) while re-arming near events.
			for i := 0; i < 3000; i++ {
				r.event(rng.Float64() * 100)
			}
			left := 2000
			r.on = func(int32) {
				if left > 0 {
					left--
					r.event(rng.Float64() * 50)
				}
			}
		}},
		{"overflow-timer-with-calendar-chain", func(r *schedRef) {
			timersBehindChain(r, 2e7)
		}},
		{"far-timers-with-calendar-chain", func(r *schedRef) {
			timersBehindChain(r, inf, 1e19, 1e9, 2e7)
		}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			r := newSchedRef()
			tc.script(r)
			r.s.Run(inf)
			r.check(t, inf)
			// Infinite times must stay out of the width calibration: an
			// infinite width hashes every event into one bucket.
			if w := r.s.cal.width; !(w > 0 && w <= math.MaxFloat64) {
				t.Fatalf("calendar width %v after the run", w)
			}
		})
	}
}

// TestFarDemandEngine: a stage demand past the calendar's int64 day
// range (1e19 ms, which LoadGraph accepts) behaves like any demand
// beyond the horizon: the run reports the same arrivals and events as
// at 1e12 ms.
func TestFarDemandEngine(t *testing.T) {
	run := func(demand float64) *TailMetrics {
		cfg := tailBase()
		cfg.Seconds = 0.1
		cfg.Warmup = 0
		spec := SocialGraph()
		for i := range spec.Stages {
			if spec.Stages[i].Name == "user1" {
				spec.Stages[i].DemandMs = demand
			}
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "far.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := LoadGraph(path)
		if err != nil {
			t.Fatalf("LoadGraph(demand %v): %v", demand, err)
		}
		cfg.Graph = g
		return mustTail(t, cfg)
	}
	near, far := run(1e12), run(1e19)
	if near.Arrived == 0 {
		t.Fatal("no arrivals")
	}
	if far.Arrived != near.Arrived || far.Events != near.Events {
		t.Fatalf("demand 1e19: arrived=%d ev=%d; demand 1e12: arrived=%d ev=%d",
			far.Arrived, far.Events, near.Arrived, near.Events)
	}
}
