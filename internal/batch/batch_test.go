package batch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simr/internal/uservices"
)

func mkReqs(n int) []uservices.Request {
	r := rand.New(rand.NewSource(9))
	apis := []string{"get", "set", "del"}
	out := make([]uservices.Request, n)
	for i := range out {
		out[i] = uservices.Request{
			Service:  "t",
			API:      apis[r.Intn(len(apis))],
			ArgBytes: 8 * (1 + r.Intn(64)),
			Seed:     int64(i),
		}
	}
	return out
}

func total(bs []Batch) int {
	n := 0
	for _, b := range bs {
		n += len(b.Requests)
	}
	return n
}

func TestFormConservesRequests(t *testing.T) {
	reqs := mkReqs(333)
	for _, p := range Policies {
		bs := Form(reqs, 32, p)
		if got := total(bs); got != len(reqs) {
			t.Fatalf("policy %v lost requests: %d vs %d", p, got, len(reqs))
		}
		for _, b := range bs {
			if len(b.Requests) == 0 || len(b.Requests) > 32 {
				t.Fatalf("policy %v batch size %d", p, len(b.Requests))
			}
		}
	}
}

func TestNaivePreservesArrivalOrder(t *testing.T) {
	reqs := mkReqs(100)
	bs := Form(reqs, 32, Naive)
	idx := 0
	for _, b := range bs {
		for _, r := range b.Requests {
			if r.Seed != int64(idx) {
				t.Fatalf("arrival order broken at %d", idx)
			}
			idx++
		}
	}
	if len(bs) != 4 { // 100/32 -> 3 full + 1 partial
		t.Fatalf("naive formed %d batches", len(bs))
	}
}

func TestPerAPIHomogeneous(t *testing.T) {
	reqs := mkReqs(200)
	for _, p := range []Policy{PerAPI, PerAPIArgSize} {
		for _, b := range Form(reqs, 32, p) {
			for _, r := range b.Requests {
				if r.API != b.Requests[0].API {
					t.Fatalf("policy %v mixed APIs in one batch", p)
				}
			}
		}
	}
}

func TestPerAPIArgSizeSorted(t *testing.T) {
	reqs := mkReqs(200)
	for _, b := range Form(reqs, 32, PerAPIArgSize) {
		for i := 1; i < len(b.Requests); i++ {
			if b.Requests[i].ArgBytes < b.Requests[i-1].ArgBytes {
				t.Fatal("argument sizes not sorted within batch")
			}
		}
	}
}

func TestPartialBatchesAtMostOnePerBucket(t *testing.T) {
	reqs := mkReqs(500)
	seen := map[string]int{}
	for _, b := range Form(reqs, 32, PerAPIArgSize) {
		if len(b.Requests) < 32 {
			seen[b.Requests[0].API]++
		}
	}
	for api, n := range seen {
		if n > 1 {
			t.Fatalf("API %q has %d partial batches", api, n)
		}
	}
}

func TestSplitLongLatency(t *testing.T) {
	reqs := mkReqs(32)
	for i := range reqs {
		reqs[i].Args = []uint64{uint64(i % 2)} // half blocked
	}
	b := Batch{Requests: reqs, Key: "k"}
	fast, slow := SplitLongLatency(b, func(r *uservices.Request) bool { return r.Args[0] == 0 })
	if len(fast.Requests)+len(slow.Requests) != 32 {
		t.Fatal("split lost requests")
	}
	if len(slow.Requests) != 16 {
		t.Fatalf("slow group %d", len(slow.Requests))
	}
	for _, r := range fast.Requests {
		if r.Args[0] == 0 {
			t.Fatal("blocked request in fast group")
		}
	}
}

func TestSizeBucketMonotone(t *testing.T) {
	prev := -1
	for _, ab := range []int{0, 63, 64, 127, 128, 255, 256, 511, 512, 4096} {
		b := sizeBucket(ab)
		if b < prev {
			t.Fatalf("bucket not monotone at %d", ab)
		}
		prev = b
	}
}

// Property: conservation and bounded batch size hold for any input.
func TestQuickFormInvariants(t *testing.T) {
	f := func(ns []uint8, size uint8) bool {
		sz := int(size%63) + 1
		reqs := make([]uservices.Request, len(ns))
		for i, n := range ns {
			reqs[i] = uservices.Request{API: string(rune('a' + n%3)), ArgBytes: int(n) * 8}
		}
		for _, p := range Policies {
			bs := Form(reqs, sz, p)
			if total(bs) != len(reqs) {
				return false
			}
			for _, b := range bs {
				if len(b.Requests) > sz {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsolateOutliers(t *testing.T) {
	reqs := make([]uservices.Request, 33)
	for i := range reqs {
		reqs[i].ArgBytes = 64
	}
	reqs[32].ArgBytes = 1 << 20 // the malicious long query
	normal, out := IsolateOutliers(reqs, 4)
	if len(out) != 1 || out[0].ArgBytes != 1<<20 {
		t.Fatalf("outliers %v", out)
	}
	if len(normal) != 32 {
		t.Fatalf("normal %d", len(normal))
	}
	// Uniform sizes: nothing isolated.
	n2, o2 := IsolateOutliers(normal, 4)
	if len(o2) != 0 || len(n2) != 32 {
		t.Fatal("uniform requests wrongly isolated")
	}
	// Empty input.
	n3, o3 := IsolateOutliers(nil, 4)
	if n3 != nil || o3 != nil {
		t.Fatal("empty input")
	}
}

// TestFormAllocs: Form counts each bucket's requests before filling
// it and carves every bucket from one array, so forming one 2400-request
// service's batches costs a handful of allocations, however many
// requests there are, and each batch's capacity ends where it ends: an
// append to one batch cannot overwrite the next.
func TestFormAllocs(t *testing.T) {
	for _, name := range []string{"memc", "user"} {
		svc := uservices.NewSuite().Get(name)
		reqs := svc.Generate(rand.New(rand.NewSource(42)), 2400)
		for _, p := range Policies {
			var bs []Batch
			n := testing.AllocsPerRun(5, func() { bs = Form(reqs, svc.TunedBatch, p) })
			if n > 6 {
				t.Errorf("%s %v: Form allocates %v times for %d requests, want at most 6", name, p, n, len(reqs))
			}
			for i, b := range bs {
				if cap(b.Requests) != len(b.Requests) {
					t.Fatalf("%s %v: batch %d has capacity %d past its %d requests", name, p, i, cap(b.Requests), len(b.Requests))
				}
			}
		}
	}
}
