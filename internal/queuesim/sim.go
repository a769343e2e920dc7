// Package queuesim is a discrete-event microservice-interaction
// simulator in the spirit of uqsim, used for the paper's system-level
// evaluation (Figure 22): request arrivals flow through the
// social-network path WebServer → User → McRouter → Memcached →
// Storage, with multi-server FIFO stations, network hops, RPU batch
// formation, reconvergence waiting and the §III-B5 batch-splitting
// technique. One engine (RunTail, engine.go) runs every scenario on a
// declarative GraphSpec: the Figure 22 sweep (SocialGraph, the default),
// the compose-post path (ComposePostGraph) and the tail-at-scale
// studies at data-center populations (10⁶+ in-flight requests) with
// burst/diurnal/closed-loop arrivals and timeout/retry/hedge policies.
// Each graph holds its own demands, hit rates and wire hop; Config
// holds only the run's parameters.
package queuesim

import (
	"math"
	"math/rand"
)

// Scheduler names the pending-event container. SchedCalendar — a
// calendar queue for ordinary events, FIFO lanes for events scheduled
// in time order and a hierarchical timer wheel for cancellable timers
// — is its only value; the type survives so callers written against
// NewSimSched(seed, SchedCalendar), such as the benchmark harness,
// keep compiling.
type Scheduler uint8

// SchedCalendar is the O(1) scheduler (calqueue.go, lane.go, wheel.go).
const SchedCalendar Scheduler = 0

// TimerID identifies a cancellable timer armed with AtTimer. The zero
// value means "no timer armed"; callers keep at most one live copy and
// clear it when the timer fires or is cancelled.
type TimerID int32

// Sim is the event loop. Every event is typed: a kind plus two int32
// payload words, stored by value and ordered by (at, seq) so same-time
// events dispatch in FIFO order. Nothing passes through interface{} or
// a closure on push or pop, so scheduling and dispatching an event
// costs zero heap allocations.
type Sim struct {
	now   float64
	cal   calQueue       // ordinary events
	lanes [numLanes]lane // in-order events (see atLane)
	tw    timerWheel     // cancellable timers

	seq     uint64
	nev     uint64
	ncancel uint64
	Rng     *rand.Rand
	// Handle dispatches every event scheduled with AtEvent/AtTimer. The
	// engine installs itself here.
	Handle func(kind uint8, a, b int32)
}

// NewSimSched creates a simulator seeded with seed on the calendar
// scheduler, the only Scheduler.
func NewSimSched(seed int64, _ Scheduler) *Sim {
	return &Sim{Rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time (milliseconds).
func (s *Sim) Now() float64 { return s.now }

// Events returns the number of events dispatched so far. A cancelled
// timer is descheduled, never dispatched, so it does not count.
func (s *Sim) Events() uint64 { return s.nev }

// Pending returns the number of scheduled events not yet dispatched;
// cancelled timers are descheduled immediately and do not count.
func (s *Sim) Pending() int {
	n := s.cal.count + s.tw.live
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	return n
}

// CancelledTimers returns the number of Cancel calls on live timers.
func (s *Sim) CancelledTimers() uint64 { return s.ncancel }

// AtEvent schedules a typed event for the Handle hook after delay. The
// two payload words identify the target (an arena index plus a stage,
// station or generation, by kind) without boxing or closures.
func (s *Sim) AtEvent(delay float64, kind uint8, a, b int32) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.cal.push(calEvent{at: s.now + delay, seq: s.seq, kind: uint32(kind), a: a, b: b})
}

// atLane schedules a typed event like AtEvent on lane l. A caller
// whose events mostly arrive in time order (a constant wire delay, a
// one-at-a-time arrival chain) skips the calendar's sorted insert; an
// event earlier than the lane's tail falls back to the calendar, so
// dispatch order never depends on the caller keeping its promise.
func (s *Sim) atLane(l int, delay float64, kind uint8, a, b int32) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	e := calEvent{at: s.now + delay, seq: s.seq, kind: uint32(kind), a: a, b: b}
	if ln := &s.lanes[l]; !ln.push(e) {
		ln.fallbacks++
		s.cal.push(e)
	}
}

// AtTimer schedules a typed event like AtEvent but on the timer wheel,
// returning a handle Cancel can deschedule in O(1). Timers and plain
// events share one arming sequence, so their merged dispatch keeps the
// global (at, seq) order.
func (s *Sim) AtTimer(delay float64, kind uint8, a, b int32) TimerID {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	return TimerID(s.tw.arm(s.now+delay, s.seq, kind, a, b) + 1)
}

// Cancel deschedules a timer armed with AtTimer. The zero TimerID is
// ignored; a non-zero handle must not be reused after Cancel or after
// its timer fired.
func (s *Sim) Cancel(id TimerID) {
	if id == 0 {
		return
	}
	s.ncancel++
	s.tw.cancel(int32(id) - 1)
}

// Run's merge sources besides the lanes' own indices.
const (
	srcNone  = -1
	srcCal   = -2
	srcWheel = -3
)

// Run processes events until the queue empties or the next event lies
// beyond until. Either way the clock finishes at until, so time-based
// rates (station utilisation, throughput over the horizon) use the
// same denominator regardless of how the run ended. A future event
// that stops the run stays queued for a later Run call.
//
// Each step merges three sources — the calendar queue's head, the
// lanes' heads and the timer wheel's — dispatching whichever holds the
// global (at, seq) minimum. The calendar and lane heads are compared
// directly; their minimum then bounds the wheel, which only expands a
// slot when its window could actually win the merge, so calendar- and
// lane-heavy stretches cost it one bitmap probe. While the wheel is
// empty — the whole run, for policy-free workloads — the loop skips
// it altogether. The cached calendar head and the two lanes are read
// inline: this loop runs once per event.
func (s *Sim) Run(until float64) {
	wire, arr := &s.lanes[laneWire], &s.lanes[laneArrival]
	for {
		src := srcNone
		var at float64
		var seq uint64
		if s.cal.peeked {
			src, at, seq = srcCal, s.cal.peekAt, s.cal.peekSeq
		} else if s.cal.count > 0 {
			at, seq, _ = s.cal.peek()
			src = srcCal
		}
		if wire.n > 0 {
			if h := &wire.ev[wire.head]; src == srcNone || h.at < at || (h.at == at && h.seq < seq) {
				src, at, seq = laneWire, h.at, h.seq
			}
		}
		if arr.n > 0 {
			if h := &arr.ev[arr.head]; src == srcNone || h.at < at || (h.at == at && h.seq < seq) {
				src, at, seq = laneArrival, h.at, h.seq
			}
		}
		if s.tw.live > 0 || s.tw.dueHead < len(s.tw.due) {
			if wat, wseq, wok := s.tw.peekMin(at, src != srcNone); wok && (src == srcNone || wat < at || (wat == at && wseq < seq)) {
				src, at = srcWheel, wat
			}
		}
		if src == srcNone || at > until {
			break
		}
		var e calEvent
		switch src {
		case srcCal:
			e = s.cal.pop()
		case srcWheel:
			e = s.tw.popDue()
		case laneWire:
			e = wire.pop()
		default:
			e = arr.pop()
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
