package queuesim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// equivBase is a small, fast tail scenario for heap-vs-calendar
// equivalence: enough load for queueing, hedges and retries, small
// enough that the full grid runs in seconds.
func equivBase() TailConfig {
	c := DefaultConfig()
	c.QPS = 3000
	c.Seconds = 0.3
	c.Warmup = 0.05
	c.Drain = 3
	return TailConfig{Config: c, Scale: 1}
}

// TestSchedulerEquivalence: the calendar queue + timer wheel must be a
// drop-in for the binary heap — byte-identical TailMetrics across all
// five bundled graphs × 4 seeds × {poisson,mmpp,closed} ×
// {no-policy, timeout+retry+hedge+qcap} × {cpu,rpu,rpu-split}.
func TestSchedulerEquivalence(t *testing.T) {
	arrivals := []struct {
		label string
		ac    ArrivalConfig
	}{
		{"poisson", ArrivalConfig{Process: ArrPoisson}},
		{"mmpp", ArrivalConfig{Process: ArrMMPP}},
		{"closed", ArrivalConfig{Process: ArrClosed, Users: 150, ThinkMs: 10}},
	}
	policies := []struct {
		label string
		pc    PolicyConfig
	}{
		{"nopol", PolicyConfig{}},
		{"fullpol", PolicyConfig{TimeoutMs: 20, MaxRetries: 2, BackoffMs: 1,
			HedgeMs: 10, QueueCap: 400}},
	}
	modes := []struct {
		label string
		mut   func(*TailConfig)
	}{
		{"cpu", func(c *TailConfig) {}},
		{"rpu", func(c *TailConfig) { c.RPU = true }},
		{"rpu-split", func(c *TailConfig) { c.RPU = true; c.Split = true }},
	}
	for _, gname := range GraphNames() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, arr := range arrivals {
				for _, pol := range policies {
					for _, mode := range modes {
						label := fmt.Sprintf("%s/seed%d/%s/%s/%s",
							gname, seed, arr.label, pol.label, mode.label)
						mk := func(sched Scheduler) *TailMetrics {
							cfg := equivBase()
							cfg.Seed = seed
							cfg.Arrivals = arr.ac
							cfg.Policy = pol.pc
							mode.mut(&cfg)
							g, err := GraphByName(gname, cfg.Config)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							cfg.Graph = g
							cfg.Scheduler = sched
							return mustTail(t, cfg)
						}
						heap, cal := mk(SchedHeap), mk(SchedCalendar)
						if !reflect.DeepEqual(heap, cal) {
							t.Fatalf("%s: schedulers diverged:\nheap     %+v\ncalendar %+v",
								label, heap, cal)
						}
					}
				}
			}
		}
	}
}

// orderRun floods a Sim with heavily colliding timestamps — including
// same-time chains scheduled from inside the handler and timers armed
// mid-run — and records the dispatch order. Heap and calendar must
// produce the identical sequence: ties break on arming seq, nothing
// else.
func orderRun(sched Scheduler) (order []int64, events uint64) {
	s := NewSimSched(1, sched)
	var chained int32
	s.Handle = func(kind uint8, a, b int32) {
		order = append(order, int64(kind)<<32|int64(a))
		if b > 0 {
			// Same-timestamp chain: reschedules at now with a fresh seq.
			chained++
			s.AtEvent(0, 2, 1_000_000+chained, b-1)
		}
	}
	rng := rand.New(rand.NewSource(42))
	times := []float64{0, 0.001, 0.001, 0.5, 0.5, 0.5, 0.5, 7, 7, 7}
	for i := 0; i < 5000; i++ {
		d := times[rng.Intn(len(times))]
		if i%10 == 0 {
			s.AtTimer(d, 3, int32(i), int32(rng.Intn(3))) // timer, never cancelled
		} else {
			s.AtEvent(d, 1, int32(i), int32(rng.Intn(3)))
		}
	}
	s.Run(100)
	return order, s.Events()
}

// TestCalendarHeapOrderProperty: the same-timestamp flood property
// test — dispatch order under massive (at) collisions is identical
// across schedulers.
func TestCalendarHeapOrderProperty(t *testing.T) {
	ho, he := orderRun(SchedHeap)
	co, ce := orderRun(SchedCalendar)
	if len(ho) == 0 {
		t.Fatal("order run dispatched nothing")
	}
	if !reflect.DeepEqual(ho, co) {
		for i := range ho {
			if i >= len(co) || ho[i] != co[i] {
				t.Fatalf("dispatch order diverged at %d: heap %d calendar %v (heap %d events, calendar %d)",
					i, ho[i], co[min(i, len(co)-1)], len(ho), len(co))
			}
		}
		t.Fatalf("dispatch order diverged in length: heap %d calendar %d", len(ho), len(co))
	}
	if he != ce {
		t.Fatalf("event counts diverged with no cancellations: heap %d calendar %d", he, ce)
	}
}

// wheelRun arms timers straddling every wheel level boundary (level 0
// ends at 32 ms, level 1 at 2048 ms, level 2 at 131072 ms, the wheel
// at ~8.39e6 ms), cancels a deterministic subset before and during the
// run, and records the surviving dispatch order. The heap twin runs
// the identical script; its cancelled timers still pop, so the handler
// screens them out the way the engine's generation checks do.
func wheelRun(t *testing.T, sched Scheduler) (order []int32, s *Sim, stale int) {
	t.Helper()
	delays := []float64{
		0.1, 3, 15.9, 16.1, 31.7, 31.9, 32.1, 33, 48, 63.9, 64.1, // level 0/1 boundary
		500, 2040, 2047.9, 2048.1, 2100, 4000, // level 1/2 boundary
		60000, 131071, 131073, 500000, // level 2/3 boundary
		2e6, 8e6, 8.5e6, 9e6, // top level and overflow
	}
	s = NewSimSched(3, sched)
	cancelled := make(map[int32]bool)
	s.Handle = func(kind uint8, a, b int32) {
		if cancelled[a] {
			stale++
			return
		}
		order = append(order, a)
		if len(order)%8 == 0 {
			// Arm a short timer mid-drain: it must merge into the due
			// window in global (at, seq) order.
			s.AtTimer(0.01, 2, 10_000+int32(len(order)), 0)
		}
	}
	ids := make([]TimerID, 0, 4*len(delays))
	var n int32
	for rep := 0; rep < 4; rep++ {
		for _, d := range delays {
			ids = append(ids, s.AtTimer(d+float64(rep)*0.003, 1, n, 0))
			n++
		}
	}
	// Cancel every 7th timer up front (hits twInSlot and twInOvf)...
	for i, id := range ids {
		if i%7 == 3 {
			s.Cancel(id)
			cancelled[int32(i)] = true
		}
	}
	// ...run partway, then cancel every 7th survivor with a pending
	// deadline (hits twInDue tombstones and re-placed slot entries).
	s.Run(16)
	for i, id := range ids {
		d := delays[i%len(delays)]
		if i%7 == 5 && d > 16 {
			s.Cancel(id)
			cancelled[int32(i)] = true
		}
	}
	s.Run(1e7)
	return order, s, stale
}

// TestWheelCascade: boundary-straddling timers dispatch in exact (at,
// seq) order through slot cascades, the overflow list and mid-drain
// arming, with cancellation windows at every state — and the wheel
// actually exercised its cascade and overflow machinery.
func TestWheelCascade(t *testing.T) {
	ho, hs, hstale := wheelRun(t, SchedHeap)
	co, cs, cstale := wheelRun(t, SchedCalendar)
	if !reflect.DeepEqual(ho, co) {
		t.Fatalf("surviving dispatch order diverged: heap %d entries, calendar %d", len(ho), len(co))
	}
	if cstale != 0 {
		t.Fatalf("calendar dispatched %d cancelled timers; cancellation must be physical", cstale)
	}
	if hstale == 0 {
		t.Fatal("heap oracle saw no stale pops; cancellation script is inert")
	}
	if hs.CancelledTimers() != cs.CancelledTimers() {
		t.Fatalf("CancelledTimers diverged: heap %d calendar %d",
			hs.CancelledTimers(), cs.CancelledTimers())
	}
	// Calendar never dispatches what it descheduled; the heap pops
	// everything.
	if got, want := cs.Events(), hs.Events()-uint64(hstale); got != want {
		t.Fatalf("calendar events %d, want heap events minus stale pops %d", got, want)
	}
	if hs.Pending() != 0 || cs.Pending() != 0 {
		t.Fatalf("pending after full drain: heap %d calendar %d", hs.Pending(), cs.Pending())
	}
	if cs.tw.cascades == 0 {
		t.Fatal("no slot cascades: boundary delays never crossed a level")
	}
	if cs.tw.overflows == 0 {
		t.Fatal("no overflow placements: horizon delays fit the wheel")
	}
	if cs.tw.live != 0 {
		t.Fatalf("wheel reports %d live timers after drain", cs.tw.live)
	}
}

// TestCancelledTimerSemantics: Pending() and Events() exclude
// physically descheduled timers under the calendar scheduler, while
// the heap oracle keeps them queued until their stale pop — the
// documented contract.
func TestCancelledTimerSemantics(t *testing.T) {
	for _, sched := range []Scheduler{SchedHeap, SchedCalendar} {
		s := NewSimSched(1, sched)
		fired := 0
		s.Handle = func(kind uint8, a, b int32) { fired++ }
		ids := make([]TimerID, 10)
		for i := range ids {
			ids[i] = s.AtTimer(float64(i+1), 1, int32(i), 0)
		}
		for i := 0; i < 4; i++ {
			s.Cancel(ids[i])
		}
		wantPending := 10
		if sched == SchedCalendar {
			wantPending = 6
		}
		if got := s.Pending(); got != wantPending {
			t.Fatalf("%v: Pending after 4 cancels = %d, want %d", sched, got, wantPending)
		}
		if got := s.CancelledTimers(); got != 4 {
			t.Fatalf("%v: CancelledTimers = %d, want 4", sched, got)
		}
		s.Run(100)
		wantEvents := uint64(10)
		if sched == SchedCalendar {
			wantEvents = 6
		}
		if got := s.Events(); got != wantEvents {
			t.Fatalf("%v: Events after drain = %d, want %d", sched, got, wantEvents)
		}
		if s.Pending() != 0 {
			t.Fatalf("%v: Pending after drain = %d", sched, s.Pending())
		}
	}
}

// TestCalendarResizeMidRun: interleaved pushes and pops drive the
// bucket array through grows and shrinks and the scan through the
// direct-min fallback, without ever disturbing the global (at, seq)
// dequeue order.
func TestCalendarResizeMidRun(t *testing.T) {
	q := &calQueue{}
	rng := rand.New(rand.NewSource(5))
	var seq uint64
	push := func(at float64) {
		seq++
		q.push(calEvent{at: at, seq: seq, kind: 1})
	}
	var lastAt float64 = -1
	var lastSeq uint64
	pop := func() {
		e := q.pop()
		if e.at < lastAt || (e.at == lastAt && e.seq < lastSeq) {
			t.Fatalf("order violated: (%.9f, %d) after (%.9f, %d)", e.at, e.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = e.at, e.seq
	}
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
			push(lastAt + rng.Float64()*200)
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
		push(lastAt + 1)
		pop()
	}
	// Two stragglers a full rotation apart: after popping the first,
	// the scan must rotate through every window, miss, and fall back
	// to the direct minimum.
	base := lastAt + 1
	far := base + q.width*float64(len(q.buckets))*3
	push(base)
	push(far)
	pop()
	pop()
	if q.directScans == 0 {
		t.Fatal("far-future straggler never hit the direct-scan fallback")
	}
	if lastAt != far {
		t.Fatalf("last pop at %.3f, want the straggler at %.3f", lastAt, far)
	}
}

// TestSchedCalendarDeterminism: 4 seeds under the calendar scheduler,
// run sequentially and in parallel, must agree exactly — the calendar
// path shares no state across Sims.
func TestSchedCalendarDeterminism(t *testing.T) {
	mk := func() TailConfig {
		cfg := tailBase()
		cfg.QPS = 18000
		cfg.Arrivals = ArrivalConfig{Process: ArrMMPP}
		cfg.Policy = PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 20}
		cfg.Scheduler = SchedCalendar
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
			t.Fatalf("seed %d: parallel calendar run diverged from sequential:\nseq %+v\npar %+v",
				i+1, seq[i], par[i])
		}
	}
}

// TestCalendarSteadyStateAllocs: the calendar+wheel engine with every
// policy timer armed allocates nothing once warmed — the same 0
// allocs/op contract the heap engine carries.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	cfg := tailBase()
	cfg.Seconds = 2
	cfg.Warmup = 0
	cfg.QPS = 15000
	cfg.Policy = PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 25}
	cfg.Scheduler = SchedCalendar
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

// TestStationTypedDispatchAllocs: the engine's station service path —
// typed service-completion events into the request arena — allocates
// nothing once warmed, under the heap oracle as well as the calendar
// scheduler (TestEngineSteadyStateAllocs covers the default only).
func TestStationTypedDispatchAllocs(t *testing.T) {
	for _, sched := range schedulers {
		cfg := tailBase()
		cfg.Warmup = 0
		cfg.Scheduler = sched
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
			t.Fatalf("%v: station typed dispatch allocates %v allocs/op, want 0", sched, n)
		}
	}
}
