package main

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same metrics in the same order, and holds
// the end-to-end bounds; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// sim marks a per-layer value fixed by the seed: simulated output,
	// identical on every host, that a host-speed change must not move.
	sim bool
	// probe marks a per-layer value of the workload-independent Phase B
	// probes, which a traced run measures once; the others belong to
	// each workload's own reps.
	probe bool
}

// endToEnd are the metrics a user of the simulators sees, reported as
// medians over a workload's reps with tracing off. Host times of the
// measured call are in units of the reference loop (unit "ref", see
// ref.go).
var endToEnd = []metricDef{
	{name: "wall_ref", unit: "ref", better: "lower"},
	{name: "sim_req_per_ref", unit: "1/ref", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
}

// hostTimes are the measured call's host times in seconds, and the
// reference loop's, which the end-to-end metrics divide by. They are
// summarized and printed next to the end-to-end metrics and recorded in
// -out files, but carry no bound: they move with the host.
var hostTimes = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "ref_s", unit: "s", better: "lower"},
	{name: "sim_req_per_s", unit: "1/s", better: "higher"},
}

// perLayer are the traced run's metrics (see README.md for the layer
// each belongs to and the end-to-end metric it should move). Host times
// of single layers come from the Phase B probes, so every one is
// measured in every traced run; counts and ratios read from a workload's
// own reps are 0 where the workload does not use the layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string, sim bool) {
		ms = append(ms, metricDef{name: name, unit: unit, better: better, sim: sim})
	}
	probe := func(name, unit, better string, sim bool) {
		ms = append(ms, metricDef{name: name, unit: unit, better: better, sim: sim, probe: true})
	}
	add("bench.trace_overhead_pct", "%", "lower", false)
	add("bench.wall_s", "s", "lower", false)
	add("bench.ref_s", "s", "lower", false)
	add("runtime.peak_rss_mb", "MB", "lower", false)
	add("runtime.gc_cycles", "count", "lower", false)
	add("runtime.gc_cpu_s", "s", "lower", false)

	// Chip-side preparation: Phase B probes.
	probe("uservices.newsuite_ns", "ns", "lower", false)
	probe("uservices.generate_ns", "ns", "lower", false)
	probe("batch.form_ns", "ns", "lower", false)
	probe("isa.interp_ns", "ns", "lower", false)
	probe("isa.scalar_ops", "count", "lower", true)
	probe("isa.ns_per_op", "ns", "lower", false)
	probe("simt.merge_ns", "ns", "lower", false)
	probe("simt.batch_ops", "count", "lower", true)
	probe("core.cold_ns", "ns", "lower", false)
	probe("core.warm_ns", "ns", "lower", false)
	probe("core.prep_ns", "ns", "lower", false)
	probe("core.unattributed_ns", "ns", "lower", false)
	probe("pipeline.ns_per_uop", "ns", "lower", false)

	// The workload's own sweep, from its traced rep.
	add("core.prep.prep_share", "ratio", "lower", false)
	add("core.runcells.utilization", "ratio", "higher", false)
	add("core.runcells.slowest_cell_share", "ratio", "lower", false)
	for _, c := range []string{"trace.cache", "trace.batchcache"} {
		add(c+".hits", "count", "higher", false)
		add(c+".misses", "count", "lower", false)
		add(c+".bypassed", "count", "lower", false)
		add(c+".bytes_hwm", "bytes", "lower", false)
	}
	add("trace.batchcache.hit_ratio", "ratio", "higher", false)

	// Simulated chip components, summed over chip-fig19's services.
	for _, a := range chipArches {
		add("pipeline."+a.name+".cycles", "cycles", "lower", true)
		add("pipeline."+a.name+".uops", "count", "lower", true)
		add("pipeline."+a.name+".mispredicts", "count", "lower", true)
	}
	for _, a := range chipArches {
		add("mem."+a.name+".l1_accesses", "count", "lower", true)
		add("mem."+a.name+".l1_misses", "count", "lower", true)
		add("mem."+a.name+".bank_conflicts", "count", "lower", true)
		add("mem."+a.name+".avg_load_latency", "cycles", "lower", true)
	}
	for _, a := range chipArches {
		add("energy."+a.name+".dynamic_j", "J", "lower", true)
	}
	add("simt.rpu.efficiency", "ratio", "higher", true)
	add("pipeline.uops_x", "x", "lower", true)
	add("mem.load_latency_x", "x", "lower", true)
	add("accuracy.reqj_x", "x", "higher", true)
	add("accuracy.latency_x", "x", "lower", true)
	add("accuracy.reqj_x_err", "ratio", "lower", true)
	add("accuracy.latency_x_err", "ratio", "lower", true)
	probe("accuracy.heldout.reqj_x", "x", "higher", true)
	probe("accuracy.heldout.latency_x", "x", "lower", true)
	probe("accuracy.heldout.reqj_x_err", "ratio", "lower", true)
	probe("accuracy.heldout.latency_x_err", "ratio", "lower", true)

	// queuesim host cost: Phase B probes.
	probe("queuesim.compile_ns", "ns", "lower", false)
	probe("queuesim.run_ns", "ns", "lower", false)
	probe("queuesim.events", "count", "lower", true)
	probe("queuesim.ns_per_event", "ns", "lower", false)
	probe("queuesim.sched.hold_ns_1e4", "ns", "lower", false)
	probe("queuesim.sched.hold_ns_1e6", "ns", "lower", false)
	probe("queuesim.sched.timer_ns", "ns", "lower", false)
	probe("stats.percentile_ns", "ns", "lower", false)

	// The tail workload's scheduler and simulated stations.
	for _, c := range schedCounters {
		add("queuesim.sched."+c, "count", "lower", true)
	}
	for _, c := range []string{"arrived", "completed", "failed", "timed_out", "retried",
		"hedged", "rejected", "inflight_hwm", "events"} {
		better := "lower"
		if c == "completed" {
			better = "higher"
		}
		add("queuesim.sim."+c, "count", better, true)
	}
	for _, p := range tailPercentiles {
		add("queuesim.sim."+p.name, "sim_ms", "lower", true)
	}
	for _, st := range socialStations {
		add("queuesim."+st+".queue_hwm", "count", "lower", true)
		add("queuesim."+st+".busy_hwm", "count", "lower", true)
		add("queuesim."+st+".sojourn_ms_mean", "sim_ms", "lower", true)
	}

	add("queuesim.fig22.knee_cpu_qps", "qps", "higher", true)
	add("queuesim.fig22.knee_rpu_split_qps", "qps", "higher", true)
	add("queuesim.fig22.knee_x", "x", "higher", true)
	add("queuesim.fig22.cell_skew", "ratio", "lower", false)
	return ms
}

// schedCounters are the tail engine's scheduler counters under the
// queuesim.sched scope (counters and high-water gauges alike).
var schedCounters = []string{"stale_timer_events", "cancelled_timers", "cal_resizes",
	"cal_direct_scans", "cal_bucket_hwm", "wheel_armed", "wheel_fired",
	"wheel_descheduled", "wheel_cascades", "wheel_overflows", "wheel_due_hwm"}

// socialStations are the stations of the social-network graph every
// queuesim workload runs.
var socialStations = []string{"web", "user", "mcrouter", "memcached", "storage"}

// tailPercentiles are the latency percentiles a tail workload reports.
var tailPercentiles = []struct {
	name string
	p    float64
}{{"p50_ms", 50}, {"p99_ms", 99}, {"p999_ms", 99.9}}
