package core

import (
	"fmt"
	"io"

	"simr/internal/stats"
	"simr/internal/uservices"
)

// timingVariants returns base under the 2x2x2 cross of the paper's
// §V-A1 timing knobs — SIMT lane width {8, 32} x majority branch voting
// {on, off} x atomics at L3 {on, off} — and each point's name. The
// knobs change only timing and energy, never the prepared uop stream,
// so runBatched times all eight points on one preparation of each
// batch.
func timingVariants(base Options) (names []string, variants []Options) {
	for _, lanes := range []int{8, 32} {
		for _, vote := range []bool{true, false} {
			for _, l3 := range []bool{true, false} {
				name := fmt.Sprintf("lanes%d", lanes)
				if vote {
					name += "+vote"
				}
				if l3 {
					name += "+l3atomics"
				}
				o := base
				o.Lanes, o.MajorityVote, o.AtomicsAtL3 = lanes, vote, l3
				names = append(names, name)
				variants = append(variants, o)
			}
		}
	}
	return names, variants
}

// TimingRow is one service's results across the timing variants, in
// timingVariants order.
type TimingRow struct {
	Service  string
	Variants []string
	Res      []*Result
}

// TimingSweepParallel runs the RPU timing-knob sweep on a worker pool:
// one cell per service, which prepares each batch once and times it on
// all eight variants, each on its own core and memory hierarchy. Each
// worker reuses its eight hierarchies from service to service. No cell
// reads another's products, so the sweep caches nothing.
func TimingSweepParallel(suite *uservices.Suite, requests int, seed int64, workers int) ([]TimingRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	svcs := suite.Services
	names, variants := timingVariants(DefaultOptions())
	arches := make([]Arch, len(variants))
	for v := range arches {
		arches[v] = ArchRPU
	}
	systems := make([]sysList, cellWorkers(len(svcs), workers))
	cells, err := runCells(len(svcs), workers, func(w, s int) ([]*Result, error) {
		svc := svcs[s]
		return runBatched(svc, genRequests(svc, requests, seed), arches, variants, nil, &systems[w])
	})
	if err != nil {
		return nil, err
	}
	rows := make([]TimingRow, len(svcs))
	for s, svc := range svcs {
		rows[s] = TimingRow{Service: svc.Name, Variants: names, Res: cells[s]}
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
