package core

import (
	"fmt"
	"io"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/simt"
	"simr/internal/stats"
	"simr/internal/uservices"
)

// DefaultRequests is the per-service request count the paper evaluates
// (75 batches of 32).
const DefaultRequests = 2400

// EffRow is one service's SIMT efficiency under the Figure 4/11
// batching policy study.
type EffRow struct {
	Service string
	// Naive/PerAPI/PerArg are MinSP-PC efficiencies per policy;
	// PerArgIPDOM is the ideal stack-based reference at the best policy.
	Naive, PerAPI, PerArg, PerArgIPDOM float64
}

// efficiencyOf lock-steps all batches of a policy and returns weighted
// SIMT efficiency.
func efficiencyOf(svc *uservices.Service, reqs []uservices.Request, size int, p batch.Policy, ipdom bool) (float64, error) {
	reconv := svc.BranchReconv()
	scalar, ops := 0, 0
	var sc simt.Scratch
	tr := tracer{svc: svc}
	spin := simt.DefaultSpin
	for _, b := range batch.Form(reqs, size, p) {
		sg := alloc.NewStackGroup(0, len(b.Requests), true)
		traces, err := tr.batch(b.Requests, sg, alloc.PolicySIMR, 8)
		if err != nil {
			return 0, err
		}
		var res *simt.Result
		if ipdom {
			res, err = simt.RunIPDOMWith(&sc, traces, size, reconv)
		} else {
			res, err = simt.RunMinSPPCWith(&sc, traces, size, &spin)
		}
		if err != nil {
			return 0, err
		}
		scalar += res.ScalarOps
		ops += len(res.Ops)
	}
	if ops == 0 {
		return 0, nil
	}
	return float64(scalar) / (float64(ops) * float64(size)), nil
}

// WriteEfficiency renders the Figure 4/11 table.
func WriteEfficiency(w io.Writer, rows []EffRow) {
	fmt.Fprintf(w, "%-18s %8s %8s %12s %14s\n", "service", "naive", "per-api", "+arg-size", "+arg (ipdom)")
	var n, a, g, i []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %7.1f%% %7.1f%% %11.1f%% %13.1f%%\n",
			r.Service, 100*r.Naive, 100*r.PerAPI, 100*r.PerArg, 100*r.PerArgIPDOM)
		n = append(n, r.Naive)
		a = append(a, r.PerAPI)
		g = append(g, r.PerArg)
		i = append(i, r.PerArgIPDOM)
	}
	fmt.Fprintf(w, "%-18s %7.1f%% %7.1f%% %11.1f%% %13.1f%%\n",
		"average", 100*mean(n), 100*mean(a), 100*mean(g), 100*mean(i))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ChipRow holds one service's results across the architectures under
// study (Figures 10, 14, 19, 20, 21).
type ChipRow struct {
	Service       string
	CPU, SMT, RPU *Result
	GPU           *Result // nil unless requested
}

// WriteFig10 renders the CPU dynamic-energy breakdown per pipeline
// stage (paper Figure 10).
func WriteFig10(w io.Writer, rows []ChipRow) {
	fmt.Fprintf(w, "%-18s %12s %10s %8s\n", "service", "frontend+ooo", "execution", "memory")
	var fe, ex, me []float64
	for _, r := range rows {
		e := r.CPU.Energy
		d := e.Dynamic()
		fmt.Fprintf(w, "%-18s %11.1f%% %9.1f%% %7.1f%%\n",
			r.Service, 100*e.FrontendOoO/d, 100*e.Exec/d, 100*e.Memory/d)
		fe = append(fe, e.FrontendOoO/d)
		ex = append(ex, e.Exec/d)
		me = append(me, e.Memory/d)
	}
	fmt.Fprintf(w, "%-18s %11.1f%% %9.1f%% %7.1f%%\n", "average", 100*mean(fe), 100*mean(ex), 100*mean(me))
}

// WriteFig14 renders RPU L1 accesses normalized to the CPU (Figure 14).
func WriteFig14(w io.Writer, rows []ChipRow) {
	fmt.Fprintf(w, "%-18s %22s\n", "service", "rpu L1 accesses / cpu")
	var xs []float64
	for _, r := range rows {
		x := stats.Ratio(r.RPU.L1AccessesPerRequest(), r.CPU.L1AccessesPerRequest())
		fmt.Fprintf(w, "%-18s %21.2fx\n", r.Service, x)
		xs = append(xs, x)
	}
	fmt.Fprintf(w, "%-18s %21.2fx  (paper: 0.25x average)\n", "average", mean(xs))
}

// WriteFig19 renders requests/joule relative to the CPU (Figure 19).
func WriteFig19(w io.Writer, rows []ChipRow) {
	withGPU := len(rows) > 0 && rows[0].GPU != nil
	if withGPU {
		fmt.Fprintf(w, "%-18s %10s %10s %10s\n", "service", "rpu", "cpu-smt8", "gpu")
	} else {
		fmt.Fprintf(w, "%-18s %10s %10s\n", "service", "rpu", "cpu-smt8")
	}
	var rp, sm, gp []float64
	for _, r := range rows {
		base := r.CPU.ReqPerJoule()
		rr := r.RPU.ReqPerJoule() / base
		ss := r.SMT.ReqPerJoule() / base
		rp = append(rp, rr)
		sm = append(sm, ss)
		if withGPU {
			gg := r.GPU.ReqPerJoule() / base
			gp = append(gp, gg)
			fmt.Fprintf(w, "%-18s %9.2fx %9.2fx %9.2fx\n", r.Service, rr, ss, gg)
		} else {
			fmt.Fprintf(w, "%-18s %9.2fx %9.2fx\n", r.Service, rr, ss)
		}
	}
	if withGPU {
		fmt.Fprintf(w, "%-18s %9.2fx %9.2fx %9.2fx  (paper: 5.7x / 1.05x / 28x)\n",
			"geomean", stats.GeoMean(rp), stats.GeoMean(sm), stats.GeoMean(gp))
	} else {
		fmt.Fprintf(w, "%-18s %9.2fx %9.2fx  (paper: 5.7x / 1.05x)\n",
			"geomean", stats.GeoMean(rp), stats.GeoMean(sm))
	}
}

// WriteFig20 renders service latency relative to the CPU (Figure 20).
func WriteFig20(w io.Writer, rows []ChipRow) {
	withGPU := len(rows) > 0 && rows[0].GPU != nil
	if withGPU {
		fmt.Fprintf(w, "%-18s %10s %10s %10s\n", "service", "rpu", "cpu-smt8", "gpu")
	} else {
		fmt.Fprintf(w, "%-18s %10s %10s\n", "service", "rpu", "cpu-smt8")
	}
	var rp, sm, gp []float64
	for _, r := range rows {
		base := r.CPU.AvgLatencySec()
		rr := r.RPU.AvgLatencySec() / base
		ss := r.SMT.AvgLatencySec() / base
		rp = append(rp, rr)
		sm = append(sm, ss)
		if withGPU {
			gg := r.GPU.AvgLatencySec() / base
			gp = append(gp, gg)
			fmt.Fprintf(w, "%-18s %9.2fx %9.2fx %9.1fx\n", r.Service, rr, ss, gg)
		} else {
			fmt.Fprintf(w, "%-18s %9.2fx %9.2fx\n", r.Service, rr, ss)
		}
	}
	if withGPU {
		fmt.Fprintf(w, "%-18s %9.2fx %9.2fx %9.1fx  (paper: 1.44x / ~5x / 79x)\n",
			"average", mean(rp), mean(sm), mean(gp))
	} else {
		fmt.Fprintf(w, "%-18s %9.2fx %9.2fx  (paper: 1.44x / ~5x)\n", "average", mean(rp), mean(sm))
	}
}

// WriteFig21 renders the latency-component metrics of Figure 21:
// average load-to-use latency, on-chip traffic and issued instructions,
// RPU relative to CPU.
func WriteFig21(w io.Writer, rows []ChipRow) {
	fmt.Fprintf(w, "%-18s %12s %12s %12s %10s\n",
		"service", "mem latency", "L1 traffic", "frontend ops", "simt eff")
	var ml, tr, fo []float64
	for _, r := range rows {
		l := stats.Ratio(r.RPU.Stats.AvgLoadLatency(), r.CPU.Stats.AvgLoadLatency())
		t := stats.Ratio(r.RPU.L1AccessesPerRequest(), r.CPU.L1AccessesPerRequest())
		f := stats.Ratio(float64(r.RPU.Stats.Uops), float64(r.CPU.Stats.Uops))
		fmt.Fprintf(w, "%-18s %11.2fx %11.2fx %11.3fx %9.2f\n", r.Service, l, t, f, r.RPU.SIMTEff)
		ml = append(ml, l)
		tr = append(tr, t)
		fo = append(fo, f)
	}
	fmt.Fprintf(w, "%-18s %11.2fx %11.2fx %11.3fx\n", "average", mean(ml), mean(tr), mean(fo))
	fmt.Fprintf(w, "(paper: memory latency 1/1.33x, traffic 1/4x, issued instructions ~1/30x)\n")
}

// MPKIRow is one service's L1 MPKI across configurations (Figure 15).
type MPKIRow struct {
	Service string
	CPU     float64
	RPU     map[int]float64 // batch size -> MPKI
}

// WriteFig15 renders the MPKI table.
func WriteFig15(w io.Writer, rows []MPKIRow) {
	fmt.Fprintf(w, "%-18s %9s %9s %9s %9s %9s\n", "service", "cpu-64KB", "rpu-b32", "rpu-b16", "rpu-b8", "rpu-b4")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			r.Service, r.CPU, r.RPU[32], r.RPU[16], r.RPU[8], r.RPU[4])
	}
}

// Fig5Row is one DRAM-generation scaling point (Figure 5).
type Fig5Row struct {
	Generation string
	GBps       float64
	// Threads is the per-socket thread count needed to consume the
	// bandwidth at 2 GB/s per thread.
	Threads int
}

// Fig5Scaling returns the off-chip bandwidth and thread scaling table:
// CPU vendors provision ≈2 GB/s per thread, so future sockets need
// 256-512 threads (paper Figure 5 and Key Observation #5).
func Fig5Scaling() []Fig5Row {
	gens := []struct {
		name string
		gbps float64
	}{
		{"DDR4-3200 x8", 204.8},
		{"DDR5-4800 x8", 307.2},
		{"DDR5-7200 x10", 576},
		{"DDR6 x10", 1024},
		{"HBM2e x4", 1638},
	}
	rows := make([]Fig5Row, len(gens))
	for i, g := range gens {
		rows[i] = Fig5Row{Generation: g.name, GBps: g.gbps, Threads: int(g.gbps / 2)}
	}
	return rows
}

// WriteFig5 renders the scaling table.
func WriteFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "%-16s %12s %22s\n", "generation", "GB/s/socket", "threads @ 2 GB/s each")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12.0f %22d\n", r.Generation, r.GBps, r.Threads)
	}
}
