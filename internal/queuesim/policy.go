// Overload-management policies for the tail-at-scale engine: per-try
// timeouts, bounded retries with exponential backoff, request hedging
// and per-station queue caps. These are what turn p99/p999 under
// overload from an artifact of unbounded queueing into a first-class,
// policy-shaped result — the tail-at-scale playbook (and CloudNativeSim
// / the OpenDC microservice simulator) treat them as part of the
// system, not of the workload.
package queuesim

import (
	"fmt"
	"math"
)

// PolicyConfig bounds how long a request may occupy the system and how
// aggressively it is re-issued. The zero value applies no policy:
// requests queue without bound and are never abandoned.
type PolicyConfig struct {
	// TimeoutMs cancels a try that has not completed TimeoutMs after it
	// was issued (measured per try, not per logical request). 0 = no
	// timeout.
	TimeoutMs float64
	// MaxRetries is how many additional tries follow a timed-out or
	// rejected one. Only meaningful with TimeoutMs or QueueCap set.
	MaxRetries int
	// BackoffMs is the base retry backoff, doubled per successive try
	// and jittered ±20 %. 0 with retries enabled means immediate
	// re-issue.
	BackoffMs float64
	// HedgeMs issues a duplicate of a still-unfinished request HedgeMs
	// after its first try started; the first copy to complete wins and
	// the loser is cancelled. 0 = no hedging.
	HedgeMs float64
	// QueueCap rejects submissions to a station whose queue already
	// holds QueueCap entries (the rejection is retried under the same
	// backoff policy, or fails the request). 0 = unbounded queues.
	QueueCap int
	// MaxBackoffMs caps the doubled backoff (before jitter). 0 = no
	// explicit cap; doubling still stops at 2^16 × BackoffMs so a deep
	// retry budget cannot overflow the shift into a zero or negative
	// wait (an immediate-retry storm).
	MaxBackoffMs float64
}

// validate rejects NaN and negative durations: a NaN timeout or hedge
// silently never fires, and a NaN backoff poisons every retried
// request's latency.
func (p *PolicyConfig) validate() error {
	for _, d := range []struct {
		name string
		ms   float64
	}{{"TimeoutMs", p.TimeoutMs}, {"BackoffMs", p.BackoffMs}, {"HedgeMs", p.HedgeMs}, {"MaxBackoffMs", p.MaxBackoffMs}} {
		if math.IsNaN(d.ms) || d.ms < 0 {
			return fmt.Errorf("queuesim: policy %s must be a non-negative duration (got %v)", d.name, d.ms)
		}
	}
	return nil
}

// backoffShiftCap stops exponential doubling at 2^16 × BackoffMs.
// Beyond ~17 tries the uncapped shift would exceed an int32 (and by 63
// wrap negative), turning backoff into immediate re-issue.
const backoffShiftCap = 16

// backoff returns the jittered exponential backoff before try number
// `tries` (1-based over retries: the first retry waits ~BackoffMs, the
// second ~2x, …).
func (e *engine) backoff(tries uint8) float64 {
	if e.pol.BackoffMs <= 0 {
		return 0
	}
	sh := uint(tries - 1)
	if sh > backoffShiftCap {
		sh = backoffShiftCap
	}
	d := e.pol.BackoffMs * float64(int64(1)<<sh)
	if e.pol.MaxBackoffMs > 0 && d > e.pol.MaxBackoffMs {
		d = e.pol.MaxBackoffMs
	}
	return e.sim.Jitter(d)
}
