// Package queuesim is a discrete-event microservice-interaction
// simulator in the spirit of uqsim, used for the paper's system-level
// evaluation (Figure 22): request arrivals flow through the
// social-network path WebServer → User → McRouter → Memcached →
// Storage, with multi-server FIFO stations, network hops, RPU batch
// formation, reconvergence waiting and the §III-B5 batch-splitting
// technique. One engine (engine.go) runs every scenario: the Figure 22
// sweep (Run), the compose-post path (RunComposePost) and the
// tail-at-scale studies at data-center populations (10⁶+ in-flight
// requests) with burst/diurnal/closed-loop arrivals and
// timeout/retry/hedge policies all walk a declarative GraphSpec.
package queuesim

import (
	"fmt"
	"math"
	"math/rand"
)

// Scheduler selects the pending-event container.
type Scheduler uint8

const (
	// SchedCalendar (the default) is the O(1) scheduler: a calendar
	// queue for ordinary events plus a hierarchical timer wheel for
	// cancellable timers (AtTimer), which Cancel physically deschedules.
	SchedCalendar Scheduler = iota
	// SchedHeap is the binary index-min heap — the byte-identity
	// oracle. Cancelled timers stay queued and dispatch as stale no-ops.
	SchedHeap
)

// String names the scheduler for flags and JSON artifacts.
func (s Scheduler) String() string {
	if s == SchedHeap {
		return "heap"
	}
	return "calendar"
}

// ParseScheduler maps a flag string to a Scheduler; the empty string
// means the default (calendar).
func ParseScheduler(s string) (Scheduler, error) {
	switch s {
	case "", "calendar":
		return SchedCalendar, nil
	case "heap":
		return SchedHeap, nil
	}
	return SchedCalendar, fmt.Errorf("queuesim: unknown scheduler %q (want heap or calendar)", s)
}

// TimerID identifies a cancellable timer armed with AtTimer. The zero
// value means "no timer armed"; callers keep at most one live copy and
// clear it when the timer fires or is cancelled.
type TimerID int32

// lazyTimer is the heap scheduler's shared handle: a heap cannot
// deschedule from its middle, so Cancel only records the logical
// cancellation and the event later pops as a stale no-op.
const lazyTimer TimerID = -1

// Sim is the event loop. Every event is typed: a kind plus two int32
// payload words, stored by value and ordered by (at, seq) so same-time
// events dispatch in FIFO order. Nothing passes through interface{} or
// a closure on push or pop, so scheduling and dispatching an event
// costs zero heap allocations.
type Sim struct {
	now   float64
	sched Scheduler
	pq    []calEvent // SchedHeap container
	cal   calQueue   // SchedCalendar: ordinary events
	tw    timerWheel // SchedCalendar: cancellable timers

	seq     uint64
	nev     uint64
	ncancel uint64
	Rng     *rand.Rand
	// Handle dispatches every event scheduled with AtEvent/AtTimer. The
	// engine installs itself here.
	Handle func(kind uint8, a, b int32)
}

// NewSimSched creates a simulator on the given scheduler. Event
// ordering — and therefore every simulation output — is bit-identical
// across schedulers; only the container (and whether Cancel physically
// removes a timer) differs.
func NewSimSched(seed int64, sched Scheduler) *Sim {
	return &Sim{Rng: rand.New(rand.NewSource(seed)), sched: sched}
}

// Now returns the current simulation time (milliseconds).
func (s *Sim) Now() float64 { return s.now }

// Events returns the number of events dispatched so far. The count is
// scheduler-dependent under cancellation: the calendar scheduler never
// dispatches a cancelled timer, while the heap oracle pops it as a
// stale no-op and counts it here. Simulation metrics are unchanged
// either way (stale pops touch nothing); consumers wanting a
// scheduler-invariant count subtract their stale dispatches, as
// TailMetrics.Events does.
func (s *Sim) Events() uint64 { return s.nev }

// Pending returns the number of scheduled events not yet dispatched.
// Timers cancelled under the calendar scheduler are descheduled
// immediately and do not count; under the heap oracle a cancelled
// timer remains queued (and counted) until its stale no-op pop.
func (s *Sim) Pending() int {
	if s.sched == SchedCalendar {
		return s.cal.count + s.tw.live
	}
	return len(s.pq)
}

// CancelledTimers returns the number of Cancel calls on live timers —
// the logical cancellation count, identical across schedulers.
func (s *Sim) CancelledTimers() uint64 { return s.ncancel }

func (s *Sim) push(e calEvent) {
	if s.sched == SchedCalendar {
		s.cal.push(e)
		return
	}
	s.pq = append(s.pq, e)
	i := len(s.pq) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&s.pq[i], &s.pq[p]) {
			break
		}
		s.pq[i], s.pq[p] = s.pq[p], s.pq[i]
		i = p
	}
}

func (s *Sim) pop() calEvent {
	e := s.pq[0]
	n := len(s.pq) - 1
	s.pq[0] = s.pq[n]
	s.pq = s.pq[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && eventLess(&s.pq[l], &s.pq[m]) {
			m = l
		}
		if r < n && eventLess(&s.pq[r], &s.pq[m]) {
			m = r
		}
		if m == i {
			break
		}
		s.pq[i], s.pq[m] = s.pq[m], s.pq[i]
		i = m
	}
	return e
}

// AtEvent schedules a typed event for the Handle hook after delay. The
// two payload words identify the target (an arena index plus a stage,
// station or generation, by kind) without boxing or closures.
func (s *Sim) AtEvent(delay float64, kind uint8, a, b int32) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.push(calEvent{at: s.now + delay, seq: s.seq, kind: uint32(kind), a: a, b: b})
}

// AtTimer schedules a typed event like AtEvent but returns a handle
// Cancel can deschedule. Under the calendar scheduler the timer lives
// on the hierarchical wheel and Cancel unlinks it in O(1); under the
// heap oracle the handle is the shared lazy sentinel and the event
// still pops (the caller's generation check makes it a no-op). The
// arming sequence number is consumed identically either way, so
// dispatch order is scheduler-invariant.
func (s *Sim) AtTimer(delay float64, kind uint8, a, b int32) TimerID {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	if s.sched == SchedCalendar {
		return TimerID(s.tw.arm(s.now+delay, s.seq, kind, a, b) + 1)
	}
	s.push(calEvent{at: s.now + delay, seq: s.seq, kind: uint32(kind), a: a, b: b})
	return lazyTimer
}

// Cancel deschedules a timer armed with AtTimer. The zero TimerID is
// ignored; a non-zero handle must not be reused after Cancel or after
// its timer fired. Cancellation is counted identically on every
// scheduler (see CancelledTimers); only the calendar scheduler
// physically removes the entry.
func (s *Sim) Cancel(id TimerID) {
	if id == 0 {
		return
	}
	s.ncancel++
	if id != lazyTimer {
		s.tw.cancel(int32(id) - 1)
	}
}

// Run processes events until the queue empties or the next event lies
// beyond until. Either way the clock finishes at until, so time-based
// rates (station utilisation, throughput over the horizon) use the
// same denominator regardless of how the run ended. A future event
// that stops the run stays queued for a later Run call.
func (s *Sim) Run(until float64) {
	if s.sched == SchedCalendar {
		s.runCal(until)
		return
	}
	for len(s.pq) > 0 && s.pq[0].at <= until {
		e := s.pop()
		s.now = e.at
		s.nev++
		s.Handle(uint8(e.kind), e.a, e.b)
	}
	if s.now < until {
		s.now = until
	}
}

// runCal is the calendar-mode loop: each step merges the calendar
// queue's head with the timer wheel's, dispatching whichever holds the
// global (at, seq) minimum. While the wheel is empty — the whole run,
// for policy-free workloads — the loop skips the merge entirely and
// drains the calendar alone; otherwise the wheel only expands a slot
// when its window could actually win the merge, so calendar-heavy
// stretches cost it one bitmap probe.
func (s *Sim) runCal(until float64) {
	for {
		cat, cseq, cok := s.cal.peek()
		var e calEvent
		if s.tw.live == 0 && s.tw.dueHead >= len(s.tw.due) {
			if !cok || cat > until {
				break
			}
			e = s.cal.pop()
		} else if wat, wseq, wok := s.tw.peekMin(cat, cok); wok && (!cok || wat < cat || (wat == cat && wseq < cseq)) {
			if wat > until {
				break
			}
			e = s.tw.popDue()
		} else if cok {
			if cat > until {
				break
			}
			e = s.cal.pop()
		} else {
			break
		}
		s.now = e.at
		s.nev++
		s.Handle(uint8(e.kind), e.a, e.b)
	}
	if s.now < until {
		s.now = until
	}
}

// Exp draws an exponential sample with the given mean.
func (s *Sim) Exp(mean float64) float64 {
	return s.Rng.ExpFloat64() * mean
}

// Jitter returns a mildly noisy service demand (uniform ±20 %),
// avoiding the determinism artifacts of fixed service times.
func (s *Sim) Jitter(mean float64) float64 {
	return mean * (0.8 + 0.4*s.Rng.Float64())
}

// Inf is a server count that never queues.
const Inf = math.MaxInt32
