package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"simr/internal/obs"
	"simr/internal/sample"
	"simr/internal/simt"
	"simr/internal/uservices"
)

// TestSamplingDeterminism is the sampled-simulation contract, checked
// for every service, reconvergence/spin variant and both multi-unit
// architectures:
//
//   - Period 1 engages the sampler but times every unit, so the Result
//     must be identical — field for field — to the unsampled run, with
//     no Sampled estimate attached.
//   - Period 4 times a quarter of the units and extrapolates; the
//     requests/joule and mean-latency errors against the full run must
//     stay within twice the estimate's own reported confidence interval
//     plus a small floor: with only ~3 timed units the normal 1.96σ/√n
//     interval understates the true 95% band (the t quantile at two
//     degrees of freedom is 4.30), so the raw CI is too tight a gate.
func TestSamplingDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"base", func(o *Options) {}},
		{"ipdom", func(o *Options) { o.UseIPDOM = true }},
		{"tightspin", func(o *Options) { o.Spin = &simt.SpinConfig{Window: 4, MinAtomics: 1, Grant: 4} }},
	}
	for _, svc := range suite.Services {
		reqs := genRequests(svc, 96, 7)
		for _, arch := range []Arch{ArchRPU, ArchSMT8} {
			for _, v := range variants {
				if v.name != "base" && arch != ArchRPU {
					continue // reconvergence/spin options only shape RPU runs
				}
				t.Run(fmt.Sprintf("%s/%v/%s", svc.Name, arch, v.name), func(t *testing.T) {
					mk := func(period int) *Result {
						opts := DefaultOptions()
						opts.BatchSize = 8 // 12 units: enough population to sample
						v.mutate(&opts)
						opts.Sample = sample.Config{Period: period, Warmup: 1}
						res, err := RunService(arch, svc, reqs, opts)
						if err != nil {
							t.Fatalf("period %d: %v", period, err)
						}
						return res
					}
					full := mk(0)
					p1 := mk(1)
					if p1.Sampled != nil {
						t.Fatal("period 1 attached a sampling estimate")
					}
					if !reflect.DeepEqual(full, p1) {
						t.Fatal("period 1 differs from the unsampled run")
					}

					p4 := mk(4)
					est := p4.Sampled
					if est == nil {
						t.Fatal("period 4 reported no sampling estimate")
					}
					if est.Timed >= est.Units || est.TimedRequests >= est.Requests {
						t.Fatalf("period 4 timed everything: %d/%d units, %d/%d requests",
							est.Timed, est.Units, est.TimedRequests, est.Requests)
					}
					checkErr := func(metric string, got, want, ci float64) {
						err := got/want - 1
						if err < 0 {
							err = -err
						}
						if bound := 2*ci + 0.05; err > bound {
							t.Errorf("%s: sampled %.4g vs full %.4g (%.1f%% error, CI bound %.1f%%)",
								metric, got, want, 100*err, 100*bound)
						}
					}
					checkErr("requests/joule", p4.ReqPerJoule(), full.ReqPerJoule(), est.MaxRelCI())
					cy := est.Metric("cycles")
					if cy.Name == "" {
						t.Fatal("no cycles metric in the estimate")
					}
					checkErr("mean latency", p4.AvgLatencySec(), full.AvgLatencySec(), cy.RelCI95)
				})
			}
		}
	}
}

// TestSamplingObsCounters: with the hub enabled, a sampled run
// populates the core.sample scope with a unit split consistent with
// the population and the configured period.
func TestSamplingObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()

	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 96, 7)
	opts := DefaultOptions()
	opts.BatchSize = 8
	opts.Sample = sample.Config{Period: 4, Warmup: 1}
	if _, err := RunService(ArchRPU, svc, reqs, opts); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, sc := range snap.Scopes {
		if sc.Name != "core.sample" {
			continue
		}
		c := sc.Counters
		if c["runs"] != 1 {
			t.Fatalf("runs %d, want 1", c["runs"])
		}
		total := c["timed_units"] + c["warmed_units"] + c["skipped_units"]
		if c["timed_units"] < 1 || total != 12 {
			t.Fatalf("unit split %d timed + %d warmed + %d skipped, want 12 total",
				c["timed_units"], c["warmed_units"], c["skipped_units"])
		}
		if c["warm_ns"] <= 0 {
			t.Fatalf("warm time not recorded: %+v", c)
		}
		if sc.Gauges["period_hwm"] != 4 {
			t.Fatalf("period gauge %d, want 4", sc.Gauges["period_hwm"])
		}
		return
	}
	t.Fatal("core.sample scope missing from the snapshot")
}

// TestSamplingDefaultPinned checks the process-wide default path the
// -sample flag uses: a pinned default applies to runs without an
// explicit Options.Sample and an explicit config overrides it.
func TestSamplingDefaultPinned(t *testing.T) {
	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 96, 7)
	opts := DefaultOptions()
	opts.BatchSize = 8

	sample.SetDefault(sample.Config{Period: 4, Warmup: 1})
	defer sample.SetDefault(sample.Config{})
	res, err := RunService(ArchRPU, svc, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil {
		t.Fatal("pinned default not picked up")
	}

	opts.Sample = sample.Config{Period: 1, Warmup: 1} // explicit wins
	res, err = RunService(ArchRPU, svc, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled != nil {
		t.Fatal("explicit Period 1 did not override the pinned default")
	}
}

// TestWriteSamplingSingleUnit: a run whose population is smaller than
// one period times a single unit, which gives no interval estimate, so
// its row reads n/a instead of a ±0.00% certainty. A run that timed
// several units keeps its intervals, and one whose only unit was timed
// measured it exactly.
func TestWriteSamplingSingleUnit(t *testing.T) {
	svc := uservices.NewSuite().Get("memc")
	reqs := genRequests(svc, 48, 7)
	run := func(arch Arch, cfg sample.Config) *Result {
		opts := DefaultOptions()
		opts.Sample = cfg
		res, err := RunService(arch, svc, reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := sample.Config{Period: 1<<32 + 1, Warmup: 1}
	row := ChipRow{Service: svc.Name, CPU: run(ArchCPU, one), SMT: run(ArchSMT8, one)}
	for _, res := range []*Result{row.CPU, row.SMT} {
		if res.Sampled == nil || res.Sampled.Timed != 1 {
			t.Fatalf("%v: want one timed unit, got estimate %+v", res.Arch, res.Sampled)
		}
	}
	var buf bytes.Buffer
	WriteSampling(&buf, []ChipRow{row})
	out := buf.String()
	if strings.Contains(out, "±") || strings.Count(out, "n/a") != 8 {
		t.Fatalf("single-unit rows must read n/a in every CI column:\n%s", out)
	}

	row = ChipRow{Service: svc.Name, CPU: run(ArchCPU, sample.Config{Period: 4, Warmup: 1})}
	buf.Reset()
	WriteSampling(&buf, []ChipRow{row})
	if out := buf.String(); strings.Contains(out, "n/a") || !strings.Contains(out, "±") {
		t.Fatalf("a run with %d timed units must print its CIs:\n%s", row.CPU.Sampled.Timed, out)
	}

	reqs = reqs[:smtWays] // one SMT-8 group
	row = ChipRow{Service: svc.Name, SMT: run(ArchSMT8, one)}
	if e := row.SMT.Sampled; e == nil || e.Units != 1 || e.Timed != 1 {
		t.Fatalf("want the one group timed, got estimate %+v", e)
	}
	buf.Reset()
	WriteSampling(&buf, []ChipRow{row})
	if out := buf.String(); strings.Contains(out, "n/a") || strings.Count(out, "±0.00%") != 4 {
		t.Fatalf("a run that timed its whole population must print exact CIs:\n%s", out)
	}
}
