package core

import (
	"testing"

	"simr/internal/obs"
	"simr/internal/uservices"
)

// TestPrepProbeDisabledAllocs: with no obs hub installed, the core.prep
// probe that every run's prep-then-time loop resolves once and calls
// per unit must not allocate.
func TestPrepProbeDisabledAllocs(t *testing.T) {
	obs.Disable()
	n := testing.AllocsPerRun(200, func() {
		po := prepProbe()
		for i := 0; i < 4; i++ {
			t0 := po.clock()
			po.unit(t0, po.clock())
		}
	})
	if n != 0 {
		t.Fatalf("disabled prep probe allocates %v allocs/op, want 0", n)
	}
}

// TestObsStudyCounters: with the hub enabled, a small study populates
// the runcells/prep scopes, the scalar-trace cache of a study that
// caches scalar traces populates the cache scope, and the snapshots
// carry coherent values. The chip study runs one cell per service and
// caches nothing, so it makes no trace-cache lookups.
func TestObsStudyCounters(t *testing.T) {
	defer obs.Disable()
	scopes := func(reg *obs.Registry) (obs.Snapshot, map[string]obs.ScopeSnapshot) {
		snap := reg.Snapshot()
		byName := map[string]obs.ScopeSnapshot{}
		for _, sc := range snap.Scopes {
			byName[sc.Name] = sc
		}
		return snap, byName
	}

	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	suite := uservices.NewSuite()
	if _, err := ChipStudyParallel(suite, 8, 7, false, 2); err != nil {
		t.Fatal(err)
	}
	snap, byName := scopes(reg)
	rc, ok := byName["core.runcells"]
	if !ok {
		t.Fatalf("core.runcells scope missing; scopes %v", names(snap))
	}
	cells := rc.Counters["cells"]
	if want := int64(len(suite.Services)); cells != want {
		t.Fatalf("cells %d, want %d", cells, want)
	}
	if rc.Counters["busy_ns"] <= 0 || rc.Counters["wall_ns"] <= 0 {
		t.Fatalf("runcells timing not recorded: %+v", rc.Counters)
	}
	pp, ok := byName["core.prep"]
	if !ok {
		t.Fatalf("core.prep scope missing; scopes %v", names(snap))
	}
	if pp.Counters["units"] <= 0 || pp.Counters["prep_ns"] <= 0 || pp.Counters["consume_ns"] <= 0 {
		t.Fatalf("prep loop timing not recorded: %+v", pp.Counters)
	}
	if tc := byName["trace.cache"]; tc.Counters["hits"]+tc.Counters["misses"]+tc.Counters["bypassed"] != 0 {
		t.Fatalf("no-GPU chip study consulted the scalar-trace cache: %+v", tc.Counters)
	}

	reg = obs.NewRegistry()
	obs.Enable(reg, nil)
	if _, err := EfficiencyStudyParallel(suite, 8, 7, 2); err != nil {
		t.Fatal(err)
	}
	snap, byName = scopes(reg)
	tc, ok := byName["trace.cache"]
	if !ok {
		t.Fatalf("trace.cache scope missing; scopes %v", names(snap))
	}
	if tc.Counters["hits"] <= 0 || tc.Counters["misses"] <= 0 {
		t.Fatalf("trace cache counters not recorded: %+v", tc.Counters)
	}
	if tc.Counters["drops"] < int64(len(suite.Services)) {
		t.Fatalf("drops %d, want >= one per service", tc.Counters["drops"])
	}
	if tc.Gauges["bytes_hwm"] <= 0 {
		t.Fatalf("bytes high-water mark not recorded: %+v", tc.Gauges)
	}
}

// TestObsDoesNotPerturbStudy: enabling observability must leave study
// results byte-identical.
func TestObsDoesNotPerturbStudy(t *testing.T) {
	suite := uservices.NewSuite()
	run := func() []ChipRow {
		rows, err := ChipStudyParallel(suite, 8, 7, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	obs.Disable()
	plain := run()
	obs.Enable(obs.NewRegistry(), obs.NewTraceSink())
	defer obs.Disable()
	observed := run()
	for i := range plain {
		a, b := plain[i], observed[i]
		if a.Service != b.Service ||
			a.CPU.Stats.Cycles != b.CPU.Stats.Cycles ||
			a.RPU.Stats.Cycles != b.RPU.Stats.Cycles ||
			a.CPU.Energy.Total() != b.CPU.Energy.Total() ||
			a.RPU.Energy.Total() != b.RPU.Energy.Total() {
			t.Fatalf("observability perturbed row %d: %+v vs %+v", i, a, b)
		}
	}
	if obs.Trace().Len() == 0 {
		t.Fatal("no trace events recorded while enabled")
	}
}

func names(s obs.Snapshot) []string {
	out := make([]string, len(s.Scopes))
	for i, sc := range s.Scopes {
		out[i] = sc.Name
	}
	return out
}
