// Intra-run software pipelining: a bounded-lookahead producer stage
// prepares upcoming batches (trace fetch, SIMT lock-step merge, uop
// build) on worker goroutines while the consumer drives the timing
// core over already-prepared batches. Preparation is pure — it writes
// only per-slot scratch storage and per-batch stat deltas — so the
// consumer, which applies results strictly in batch order, produces
// output byte-identical to the sequential loop at any lookahead.
package core

import (
	"sync"
	"sync/atomic"
)

// PrepAuto selects an automatic per-run prep lookahead derived from
// the spare CPU budget (see Options.PrepLookahead).
const PrepAuto = -1

// maxPrepLookahead caps the automatic lookahead: preparation is a
// minority of the per-batch work once traces are cached, so a few
// batches of headroom already hide it behind the timing core.
const maxPrepLookahead = 4

// prepForce holds the process-wide lookahead override (PrepAuto = no
// override). It backs the cmd tools' -lookahead flag and the bench
// harness, which need to pin every study's derived lookahead without
// threading a parameter through each study.
var prepForce atomic.Int64

func init() { prepForce.Store(PrepAuto) }

// SetPrepLookahead forces the lookahead every PrepAuto resolution
// (study drivers and direct RunService calls) will use: n >= 0 pins
// it, n < 0 restores automatic derivation. Options with an explicit
// non-negative PrepLookahead are unaffected.
func SetPrepLookahead(n int) {
	if n < 0 {
		n = PrepAuto
	}
	prepForce.Store(int64(n))
}

// prepBudget derives the per-cell prep lookahead for a sweep of cells
// cells on workers outer workers: the inner prep goroutines of all
// concurrently running cells must not oversubscribe the machine, so
// each cell gets the spare CPUs left after the outer pool is staffed.
// A process-wide SetPrepLookahead override wins when set.
func prepBudget(cells, workers int) int {
	if v := prepForce.Load(); v >= 0 {
		return int(v)
	}
	p := DefaultWorkers()
	if workers <= 0 || workers > p {
		workers = p
	}
	if workers > cells {
		workers = cells
	}
	if workers < 1 {
		workers = 1
	}
	la := p/workers - 1
	if la < 0 {
		la = 0
	}
	if la > maxPrepLookahead {
		la = maxPrepLookahead
	}
	return la
}

// lookahead resolves the option to a concrete batch count.
func (o *Options) lookahead() int {
	if o.PrepLookahead >= 0 {
		return o.PrepLookahead
	}
	return prepBudget(1, 1)
}

// prepSlots is the number of prep slots a pipelined run of n units at
// lookahead >= 0 uses: lookahead+1, capped at n (a slot per unit
// already keeps every unit in flight).
func prepSlots(lookahead, n int) int {
	if lookahead >= n {
		return n
	}
	return lookahead + 1
}

// pipelined runs n units through a bounded-lookahead producer/consumer
// pipeline. prep(slot, i) prepares unit i into slot-private storage
// (the caller provisions prepSlots(lookahead, n) slots, so a slot is
// only reused after its previous unit was consumed); consume(slot, i)
// applies unit i's results. consume is called from the calling
// goroutine in strict unit order, so any order-sensitive accumulation
// stays byte-identical to the sequential loop. prep runs on up to
// lookahead worker goroutines once the pipeline fills. lookahead <= 0
// runs everything inline with no goroutines (the determinism oracle).
// On a prep error the lowest-index error is returned, matching the
// sequential loop.
func pipelined(n, lookahead int, prep func(slot, i int) error, consume func(slot, i int)) error {
	if n <= 0 {
		return nil
	}
	po := prepProbe(lookahead)
	defer po.finish()
	if lookahead <= 0 || n == 1 {
		for i := 0; i < n; i++ {
			t0 := po.clock()
			if err := prep(0, i); err != nil {
				return err
			}
			t1 := po.clock()
			consume(0, i)
			po.inline(t0, t1)
		}
		return nil
	}
	nslots := prepSlots(lookahead, n)

	// Slot s's goroutine prepares units s, s+nslots, ... back to back;
	// the free token (returned by the consumer) gates arena reuse and
	// the ready channel publishes each prepared unit. ready never
	// blocks: it has one buffer slot and the consumer always drains it
	// before refilling free.
	ready := make([]chan error, nslots)
	free := make([]chan struct{}, nslots)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < nslots; s++ {
		ready[s] = make(chan error, 1)
		free[s] = make(chan struct{}, 1)
		free[s] <- struct{}{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < n; i += nslots {
				tw := po.clock()
				select {
				case <-free[s]:
				case <-stop:
					return
				}
				po.stall(tw)
				t0 := po.clock()
				err := prep(s, i)
				if err == nil {
					po.prep(s, t0)
				}
				ready[s] <- err
				if err != nil {
					return
				}
			}
		}(s)
	}

	for i := 0; i < n; i++ {
		s := i % nslots
		tw := po.clock()
		if err := <-ready[s]; err != nil {
			// The consumer walks units in order, so the first error it
			// meets has the lowest index among all failed preps.
			close(stop)
			wg.Wait()
			return err
		}
		t0 := po.clock()
		consume(s, i)
		po.consume(t0, t0.Sub(tw))
		free[s] <- struct{}{}
	}
	wg.Wait()
	return nil
}
