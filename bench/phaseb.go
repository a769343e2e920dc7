package main

import (
	"fmt"
	"math/rand"
	"time"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/core"
	"simr/internal/queuesim"
	"simr/internal/simt"
	"simr/internal/stats"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// heldOutSeed is the accuracy check's seed that calibration at the
// default seed 42 never sees.
const heldOutSeed = 7

// phaseB runs the workload-independent layer probes, recording a span
// around every call the benchmark makes into a layer's public API, and
// adds their per-layer metrics to layers. Each probe measures what the
// benchmark cannot split from outside the program's own calls. A traced
// run runs it once, in a child of its own.
func phaseB(sz sizing, seed int64, tr *tracer, layers map[string]float64) error {
	root := tr.begin("phaseB", "", -1)
	defer tr.end(root)
	id := tr.begin("uservices.newsuite", "", root)
	suite := chipSuite(sz)
	layers["uservices.newsuite_ns"] = float64(tr.end(id))
	if err := prepProbe(suite, sz, seed, tr, root, layers); err != nil {
		return err
	}
	// The held-out check: chip-fig19's study at a seed no calibration
	// used. chip-fig19 itself reports the same errors at the run's seed.
	id = tr.begin("core.chipstudy", fmt.Sprintf("seed %d", heldOutSeed), root)
	rows, err := core.ChipStudyParallel(suite, sz.fig19Requests, heldOutSeed, false, 0)
	tr.end(id)
	if err != nil {
		return err
	}
	accuracy(rows, "accuracy.heldout.", layers)
	return queuesimProbe(sz, seed, tr, root, layers)
}

// prepProbe splits chip-side preparation for every service: request
// generation, batch formation, interpretation (as the CPU, SMT-8 and RPU
// cores each lay it out) and the RPU's lock-step merge, each called
// directly; then core.RunService per architecture, cold on fresh
// benchmark-owned caches and warm on the same caches. Runs are
// sequential (prep lookahead 0), so cold minus warm is the preparation
// the caches remove rather than that minus its overlap with the timing
// core.
func prepProbe(suite *uservices.Suite, sz sizing, seed int64, tr *tracer, root int, layers map[string]float64) error {
	var gen, form, interp, merge, cold, warm int64
	var scalarOps, batchOps int
	var warmUops uint64
	var sc simt.Scratch
	rpuL1 := core.MemConfig(core.ArchRPU).L1
	cpuLine := core.MemConfig(core.ArchCPU).L1.LineBytes
	for _, svc := range suite.Services {
		sid := tr.begin("service", svc.Name, root)
		id := tr.begin("uservices.generate", svc.Name, sid)
		reqs := svc.Generate(rand.New(rand.NewSource(seed)), sz.probeRequests)
		gen += tr.end(id)

		// The CPU serves requests one at a time on thread 0; SMT-8
		// places them round-robin on eight threads.
		for _, c := range []struct {
			arch string
			ways int
		}{{"cpu", 1}, {"smt8", 8}} {
			sg := alloc.NewStackGroup(0, c.ways, false)
			id := tr.begin("isa.interp", svc.Name+"/"+c.arch, sid)
			for i := range reqs {
				t := i % c.ways
				ops, err := svc.Trace(&reqs[i], t, sg.StackBase(t), alloc.NewArena(t, alloc.PolicyCPU, cpuLine, 1))
				if err != nil {
					return err
				}
				scalarOps += len(ops)
			}
			interp += tr.end(id)
		}

		size := svc.TunedBatch
		id = tr.begin("batch.form", svc.Name, sid)
		batches := batch.Form(reqs, size, batch.PerAPIArgSize)
		form += tr.end(id)
		spin := simt.DefaultSpin
		for _, b := range batches {
			sg := alloc.NewStackGroup(0, len(b.Requests), true)
			id := tr.begin("isa.interp", svc.Name+"/rpu", sid)
			traces, err := svc.TraceBatch(b.Requests, sg, alloc.PolicySIMR, rpuL1.LineBytes, rpuL1.Banks)
			interp += tr.end(id)
			if err != nil {
				return err
			}
			for _, t := range traces {
				scalarOps += len(t)
			}
			id = tr.begin("simt.merge", svc.Name+"/rpu", sid)
			res, err := simt.RunMinSPPCWith(&sc, traces, size, &spin)
			merge += tr.end(id)
			if err != nil {
				return err
			}
			batchOps += len(res.Ops)
		}

		type caches struct {
			tc *trace.Cache
			bc *trace.BatchCache
		}
		cs := make([]caches, len(chipArches))
		for k := range cs {
			budget := trace.NewBudget(0)
			cs[k] = caches{trace.NewCache(svc, budget), trace.NewBatchCache(budget)}
		}
		for pass, name := range []string{"core.cold", "core.warm"} {
			pid := tr.begin(name, svc.Name, sid)
			for k, a := range chipArches {
				opts := core.DefaultOptions()
				opts.Traces, opts.BatchStreams = cs[k].tc, cs[k].bc
				opts.PrepLookahead = 0
				id := tr.begin("core.run", svc.Name+"/"+a.name, pid)
				res, err := core.RunService(a.arch, svc, reqs, opts)
				tr.end(id)
				if err != nil {
					return err
				}
				if pass == 1 {
					warmUops += res.Stats.Uops
				}
			}
			if d := tr.end(pid); pass == 0 {
				cold += d
			} else {
				warm += d
			}
		}
		for _, c := range cs {
			c.tc.Drop()
			c.bc.Drop()
		}
		tr.end(sid)
	}
	layers["uservices.generate_ns"] = float64(gen)
	layers["batch.form_ns"] = float64(form)
	layers["isa.interp_ns"] = float64(interp)
	layers["isa.scalar_ops"] = float64(scalarOps)
	layers["isa.ns_per_op"] = stats.Ratio(float64(interp), float64(scalarOps))
	layers["simt.merge_ns"] = float64(merge)
	layers["simt.batch_ops"] = float64(batchOps)
	layers["core.cold_ns"] = float64(cold)
	layers["core.warm_ns"] = float64(warm)
	// Batch formation runs in both passes, so it cancels out of prep;
	// what prep leaves after interpretation and the RPU merge is uop
	// build, the SMT-8 merge and cache bookkeeping.
	prep := cold - warm
	layers["core.prep_ns"] = float64(prep)
	layers["core.unattributed_ns"] = float64(prep - interp - merge)
	layers["pipeline.ns_per_uop"] = stats.Ratio(float64(warm), float64(warmUops))
	return nil
}

// Typed event kinds of the scheduler probes (any kind below 0xF0 reaches
// the Sim's Handle hook).
const (
	kindHold uint8 = iota + 1
	kindWork
	kindTimeout
)

// queuesimProbe times the tail engine and its scheduler: a RunTail
// point (engine set-up timed apart on a 1 ms horizon), a percentile over
// its latency sample, and hold-model and timer microbenchmarks through
// the public Sim API.
func queuesimProbe(sz sizing, seed int64, tr *tracer, root int, layers map[string]float64) error {
	cfg := queuesim.TailConfig{Config: queuesim.DefaultConfig(), Scale: sz.probeScale}
	cfg.QPS = 10000 * sz.probeScale // about two thirds of the CPU system's capacity
	cfg.Seed = seed
	setup := cfg
	setup.Seconds, setup.Warmup, setup.Drain = 1e-3, 0, 1e-6
	id := tr.begin("queuesim.compile", "", root)
	_, err := queuesim.RunTail(setup)
	compile := tr.end(id)
	if err != nil {
		return err
	}
	cfg.Seconds, cfg.Warmup, cfg.Drain = sz.probeSec, sz.probeSec/4, 1
	id = tr.begin("queuesim.runtail", "", root)
	m, err := queuesim.RunTail(cfg)
	total := tr.end(id)
	if err != nil {
		return err
	}
	run := total - compile
	layers["queuesim.compile_ns"] = float64(compile)
	layers["queuesim.run_ns"] = float64(run)
	layers["queuesim.events"] = float64(m.Events)
	layers["queuesim.ns_per_event"] = stats.Ratio(float64(run), float64(m.Events))
	id = tr.begin("stats.percentile", "", root)
	m.Latency.Percentile(99)
	layers["stats.percentile_ns"] = float64(tr.end(id))

	for _, h := range []struct {
		name string
		n    int
	}{{"queuesim.sched.hold_ns_1e4", sz.holdSmall}, {"queuesim.sched.hold_ns_1e6", sz.holdLarge}} {
		id := tr.begin("queuesim.hold", fmt.Sprint(h.n), root)
		layers[h.name] = holdProbe(seed, h.n, sz.holdOps)
		tr.end(id)
	}
	id = tr.begin("queuesim.timer", fmt.Sprint(sz.holdSmall), root)
	layers["queuesim.sched.timer_ns"] = timerProbe(seed, sz.holdSmall, sz.holdOps)
	tr.end(id)
	return nil
}

// holdProbe is the classic hold model on the calendar scheduler: n
// pending events, each of which on dispatch schedules its successor an
// exponential delay later. It returns host nanoseconds per dispatched
// event over about ops events.
func holdProbe(seed int64, n, ops int) float64 {
	const meanMs = 1.0
	sim := queuesim.NewSimSched(seed, queuesim.SchedCalendar)
	sim.Handle = func(kind uint8, a, b int32) { sim.AtEvent(sim.Exp(meanMs), kind, a, b) }
	for i := 0; i < n; i++ {
		sim.AtEvent(sim.Exp(meanMs), kindHold, int32(i), 0)
	}
	t0 := time.Now()
	sim.Run(float64(ops) / float64(n) * meanMs)
	return stats.Ratio(float64(time.Since(t0).Nanoseconds()), float64(sim.Events()))
}

// timerProbe is the hold model with a cancellable timeout per request,
// as the tail engine's policies use it: every dispatch cancels the
// request's armed timer, arms a new one and schedules the next dispatch.
// It returns host nanoseconds per dispatch.
func timerProbe(seed int64, n, ops int) float64 {
	const meanMs, timeoutMs = 1.0, 150.0
	sim := queuesim.NewSimSched(seed, queuesim.SchedCalendar)
	timers := make([]queuesim.TimerID, n)
	dispatches := 0
	sim.Handle = func(kind uint8, a, b int32) {
		if kind == kindTimeout {
			timers[a] = 0
			return
		}
		dispatches++
		sim.Cancel(timers[a])
		timers[a] = sim.AtTimer(timeoutMs, kindTimeout, a, 0)
		sim.AtEvent(sim.Exp(meanMs), kindWork, a, 0)
	}
	for i := 0; i < n; i++ {
		sim.AtEvent(sim.Exp(meanMs), kindWork, int32(i), 0)
	}
	t0 := time.Now()
	sim.Run(float64(ops) / float64(n) * meanMs)
	return stats.Ratio(float64(time.Since(t0).Nanoseconds()), float64(dispatches))
}
