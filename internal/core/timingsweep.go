package core

import (
	"fmt"
	"io"

	"simr/internal/stats"
	"simr/internal/uservices"
)

// timingVariant is one point of the RPU timing-knob sweep: a named
// mutation of Options that changes only timing/energy behaviour (lane
// count, branch voting, atomics placement), never the prepared uop
// stream. Because every variant of a service replays the identical
// batch composition, the whole sweep shares one batch-stream cache
// entry per batch — the showcase workload for BatchCache.
type timingVariant struct {
	Name   string
	Mutate func(*Options)
}

// defaultTimingVariants enumerates the 2x2x2 cross of the paper's
// §V-A1 timing knobs: SIMT lane width {8, 32} x majority branch voting
// {on, off} x atomics at L3 {on, off}. All eight points prepare the
// same streams.
func defaultTimingVariants() []timingVariant {
	lanes := []int{8, 32}
	var vs []timingVariant
	for _, l := range lanes {
		for _, vote := range []bool{true, false} {
			for _, l3 := range []bool{true, false} {
				l, vote, l3 := l, vote, l3
				name := fmt.Sprintf("lanes%d", l)
				if vote {
					name += "+vote"
				}
				if l3 {
					name += "+l3atomics"
				}
				vs = append(vs, timingVariant{Name: name, Mutate: func(o *Options) {
					o.Lanes = l
					o.MajorityVote = vote
					o.AtomicsAtL3 = l3
				}})
			}
		}
	}
	return vs
}

// TimingRow is one service's results across the timing variants, in
// defaultTimingVariants order.
type TimingRow struct {
	Service  string
	Variants []string
	Res      []*Result
}

// TimingSweepParallel runs every (service, timing variant) RPU cell on
// a worker pool. Variants differ only in timing knobs, so the batch
// streams prepared for the first cell of a service are replayed by the
// remaining seven from the cache.
//
// Batch streams are cached. Scalar traces are cached only when batch
// caching is off: otherwise only each batch's first builder interprets,
// and no other cell reads its traces.
func TimingSweepParallel(suite *uservices.Suite, requests int, seed int64, workers int) ([]TimingRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	svcs := suite.Services
	variants := defaultTimingVariants()
	nv := len(variants)
	sw := newSweepCaches(svcs, nv, disableBatchCache, true)
	la := prepBudget(len(svcs)*nv, workers)
	cells, err := RunCells(len(svcs)*nv, workers, func(i int) (*Result, error) {
		s := i / nv
		defer sw.done(s)
		opts := DefaultOptions()
		opts.Traces = sw.cache(s)
		opts.BatchStreams = sw.batchCache(s)
		opts.PrepLookahead = la
		variants[i%nv].Mutate(&opts)
		return RunService(ArchRPU, svcs[s], sw.requests(s, requests, seed), opts)
	})
	if err != nil {
		sw.abort()
		return nil, err
	}
	names := make([]string, nv)
	for v, tv := range variants {
		names[v] = tv.Name
	}
	rows := make([]TimingRow, len(svcs))
	for s, svc := range svcs {
		rows[s] = TimingRow{Service: svc.Name, Variants: names, Res: cells[s*nv : (s+1)*nv]}
	}
	return rows, nil
}

// WriteTimingSweep renders the sweep: per variant, request latency and
// requests/joule relative to the first variant (the lanes8+vote+l3
// baseline), geomean across services.
func WriteTimingSweep(w io.Writer, rows []TimingRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-22s %12s %12s\n", "variant (vs "+rows[0].Variants[0]+")", "latency", "req/joule")
	for v, name := range rows[0].Variants {
		var lat, rpj []float64
		for _, r := range rows {
			lat = append(lat, stats.Ratio(r.Res[v].AvgLatencySec(), r.Res[0].AvgLatencySec()))
			rpj = append(rpj, stats.Ratio(r.Res[v].ReqPerJoule(), r.Res[0].ReqPerJoule()))
		}
		fmt.Fprintf(w, "%-22s %11.2fx %11.2fx\n", name, stats.GeoMean(lat), stats.GeoMean(rpj))
	}
}
