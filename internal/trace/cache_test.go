package trace

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/obs"
	"simr/internal/uservices"
)

func testService(t testing.TB) (*uservices.Service, []uservices.Request) {
	t.Helper()
	svc := uservices.NewSuite().Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(11)), 24)
	return svc, reqs
}

func freshTrace(t testing.TB, svc *uservices.Service, req *uservices.Request, tid int, stackBase uint64, policy alloc.Policy, banks int) []isa.TraceOp {
	t.Helper()
	arena := alloc.NewArena(tid, policy, 64, banks)
	ops, err := svc.Trace(req, tid, stackBase, arena)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestCacheMatchesFreshInterpretation(t *testing.T) {
	svc, reqs := testService(t)
	c := NewCache(svc, nil)
	sg := alloc.NewStackGroup(0, len(reqs), true)
	for i := range reqs {
		want := freshTrace(t, svc, &reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 8)
		for pass := 0; pass < 2; pass++ { // miss, then hit
			got, err := c.Request(&reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 64, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("req %d pass %d: cached trace differs from fresh", i, pass)
			}
		}
	}
	st := c.Stats()
	if st.Misses != uint64(len(reqs)) || st.Hits != uint64(len(reqs)) {
		t.Fatalf("stats = %+v, want %d misses and hits", st, len(reqs))
	}
	if st.Bytes <= 0 {
		t.Fatalf("retained bytes = %d, want > 0", st.Bytes)
	}
}

func TestCacheKeySeparatesLayouts(t *testing.T) {
	svc, reqs := testService(t)
	c := NewCache(svc, nil)
	req := &reqs[0]
	sg := alloc.NewStackGroup(0, 8, true)
	// Same request under two allocation policies must give each policy
	// its fresh-interpretation trace, not a shared one.
	for _, policy := range []alloc.Policy{alloc.PolicyCPU, alloc.PolicySIMR} {
		want := freshTrace(t, svc, req, 3, sg.StackBase(3), policy, 8)
		got, err := c.Request(req, 3, sg.StackBase(3), policy, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %v: cached trace differs from fresh", policy)
		}
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (distinct keys)", st.Misses)
	}
}

func TestCacheBudgetBypass(t *testing.T) {
	svc, reqs := testService(t)
	// A budget of one op's bytes forces every real trace to bypass.
	c := NewCache(svc, NewBudget(traceOpBytes))
	sg := alloc.NewStackGroup(0, 2, true)
	for pass := 0; pass < 2; pass++ {
		want := freshTrace(t, svc, &reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 8)
		got, err := c.Request(&reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: bypassed trace differs from fresh", pass)
		}
	}
	st := c.Stats()
	if st.Bypassed == 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want bypasses and zero retained bytes", st)
	}
}

func TestCacheDropReleasesBudget(t *testing.T) {
	svc, reqs := testService(t)
	budget := NewBudget(DefaultBudgetBytes)
	c := NewCache(svc, budget)
	sg := alloc.NewStackGroup(0, len(reqs), true)
	for i := range reqs {
		if _, err := c.Request(&reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 64, 8); err != nil {
			t.Fatal(err)
		}
	}
	if got := budget.left.Load(); got >= DefaultBudgetBytes {
		t.Fatalf("budget untouched after %d inserts", len(reqs))
	}
	c.Drop()
	if got := budget.left.Load(); got != DefaultBudgetBytes {
		t.Fatalf("budget after Drop = %d, want %d returned in full", got, int64(DefaultBudgetBytes))
	}
	// A dropped cache keeps serving correct traces, fresh.
	want := freshTrace(t, svc, &reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 8)
	got, err := c.Request(&reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-Drop trace differs from fresh")
	}
}

// TestCacheConcurrentRequestAndDrop hammers one cache from many
// goroutines with overlapping keys while Drop fires midway; run under
// -race this is the cache's synchronization proof, and every returned
// trace must still equal the fresh interpretation.
func TestCacheConcurrentRequestAndDrop(t *testing.T) {
	svc, reqs := testService(t)
	budget := NewBudget(DefaultBudgetBytes)
	c := NewCache(svc, budget)
	sg := alloc.NewStackGroup(0, len(reqs), true)

	want := make([][]isa.TraceOp, len(reqs))
	for i := range reqs {
		want[i] = freshTrace(t, svc, &reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 8)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range reqs {
					got, err := c.Request(&reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 64, 8)
					if err != nil {
						errs[w] = err
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d round %d req %d: trace differs", w, round, i)
						return
					}
				}
				if w == 0 && round == 1 {
					c.Drop()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := budget.left.Load(); got != DefaultBudgetBytes {
		t.Fatalf("budget after concurrent Drop = %d, want %d (no leak, no double-release)", got, int64(DefaultBudgetBytes))
	}
}

// TestCacheScopeContract pins the registry scopes both caches report
// under while the obs hub is installed: "trace.cache" and
// "trace.batchcache" each carry the counters hits, misses, bypassed,
// drops and dropped_bytes and the gauge bytes_hwm, mirroring the
// cache's own Stats.
func TestCacheScopeContract(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()

	svc, reqs := testService(t)
	c := NewCache(svc, nil)
	for pass := 0; pass < 2; pass++ { // miss, then hit
		if _, err := c.Request(&reqs[0], 0, 1<<40, alloc.PolicySIMR, 64, 8); err != nil {
			t.Fatal(err)
		}
	}
	bc := NewBatchCache(nil)
	for pass := 0; pass < 2; pass++ {
		if _, err := bc.Get(testKey(1), func() (*BatchStream, error) { return testStream([]uint64{1, 2}), nil }); err != nil {
			t.Fatal(err)
		}
	}
	cst, bst := c.Stats(), bc.Stats()
	c.Drop()
	bc.Drop()

	want := map[string]Stats{
		"trace.cache":      {Hits: cst.Hits, Misses: cst.Misses, Drops: 1, BytesHWM: cst.BytesHWM},
		"trace.batchcache": {Hits: bst.Hits, Misses: bst.Misses, Drops: 1, BytesHWM: bst.BytesHWM},
	}
	for _, sc := range reg.Snapshot().Scopes {
		w, ok := want[sc.Name]
		if !ok {
			continue
		}
		delete(want, sc.Name)
		for name, v := range map[string]uint64{"hits": w.Hits, "misses": w.Misses, "bypassed": 0, "drops": w.Drops} {
			if got, ok := sc.Counters[name]; !ok || uint64(got) != v {
				t.Errorf("%s: counter %s = %d (present %v), want %d", sc.Name, name, got, ok, v)
			}
		}
		if got, ok := sc.Counters["dropped_bytes"]; !ok || got != w.BytesHWM {
			t.Errorf("%s: counter dropped_bytes = %d (present %v), want %d", sc.Name, got, ok, w.BytesHWM)
		}
		if got, ok := sc.Gauges["bytes_hwm"]; !ok || got != w.BytesHWM || got <= 0 {
			t.Errorf("%s: gauge bytes_hwm = %d (present %v), want %d > 0", sc.Name, got, ok, w.BytesHWM)
		}
	}
	for name := range want {
		t.Errorf("scope %s missing from the snapshot", name)
	}
}
