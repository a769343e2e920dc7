// Package batch implements the SIMR-aware HTTP/RPC batching server
// (paper §III-B1): requests are grouped into hardware batches by
// arrival order (naive), by API, or by API plus argument-size bucket,
// plus the system-level batch-splitting decision of §III-B5.
package batch

import (
	"cmp"
	"slices"

	"simr/internal/uservices"
)

// Policy selects how the server groups requests into batches.
type Policy uint8

// Batching policies, in increasing order of SIMT awareness.
const (
	// Naive batches strictly by arrival order.
	Naive Policy = iota
	// PerAPI groups requests invoking the same procedure.
	PerAPI
	// PerAPIArgSize additionally buckets by argument size so loop trip
	// counts within a batch are similar.
	PerAPIArgSize
)

func (p Policy) String() string {
	switch p {
	case Naive:
		return "naive"
	case PerAPI:
		return "per-api"
	case PerAPIArgSize:
		return "per-api+arg-size"
	default:
		return "invalid"
	}
}

// Policies lists all policies in paper Figure 11 order.
var Policies = []Policy{Naive, PerAPI, PerAPIArgSize}

// Batch is one group of requests launched together on an RPU core.
type Batch struct {
	// Requests are the grouped requests (len <= the requested size).
	Requests []uservices.Request
	// Key describes the grouping bucket ("" for naive).
	Key string
}

// sizeBucket maps an argument size to a coarse bucket so that requests
// with similar work land together. Buckets are powers of two of the
// 64-byte base: <64, <128, <256, <512, >=512.
func sizeBucket(argBytes int) int {
	b := 0
	for s := 64; s < 1024; s *= 2 {
		if argBytes < s {
			return b
		}
		b++
	}
	return b
}

// bucketKey computes the grouping key of a request under the policy.
// PerAPIArgSize groups by API only: the argument-size dimension is
// handled by sorting the API queue (see Form), which leaves at most one
// partial batch per API instead of one per size bucket.
func bucketKey(p Policy, r *uservices.Request) string {
	switch p {
	case PerAPI, PerAPIArgSize:
		return r.API
	default:
		return ""
	}
}

// Form groups requests into batches of at most size under the policy.
// Within a bucket, arrival order is preserved (the server dequeues in
// FIFO order per bucket) except under PerAPIArgSize, which additionally
// orders each API's queue by argument size so neighbouring requests
// have similar loop trip counts; buckets drain in first-arrival order,
// and a trailing partial batch is emitted per bucket (the timeout
// case).
func Form(reqs []uservices.Request, size int, p Policy) []Batch {
	if size <= 0 {
		size = 32
	}
	// Buckets are numbered in first-arrival order. A first pass counts
	// each bucket's requests, so that every bucket is carved from one
	// array with its capacity capped at its count: filling one can
	// never spill into the next.
	type bucket struct {
		key  string
		n    int
		reqs []uservices.Request
	}
	var buckets []bucket
	index := map[string]int{}
	for i := range reqs {
		k := bucketKey(p, &reqs[i])
		j, ok := index[k]
		if !ok {
			j = len(buckets)
			index[k] = j
			buckets = append(buckets, bucket{key: k})
		}
		buckets[j].n++
	}
	all := make([]uservices.Request, len(reqs))
	nb, off := 0, 0
	for j := range buckets {
		b := &buckets[j]
		b.reqs = all[off : off : off+b.n]
		off += b.n
		nb += (b.n + size - 1) / size
	}
	for i := range reqs {
		b := &buckets[index[bucketKey(p, &reqs[i])]]
		b.reqs = append(b.reqs, reqs[i])
	}
	if p == PerAPIArgSize {
		for _, b := range buckets {
			slices.SortStableFunc(b.reqs, func(x, y uservices.Request) int { return cmp.Compare(x.ArgBytes, y.ArgBytes) })
		}
	}

	out := make([]Batch, 0, nb)
	for _, b := range buckets {
		for off := 0; off < len(b.reqs); off += size {
			end := min(off+size, len(b.reqs))
			out = append(out, Batch{Requests: b.reqs[off:end:end], Key: b.key})
		}
	}
	return out
}

// SplitLongLatency partitions a batch into the fast-path group and the
// blocked group according to the predicate (e.g. the User service's
// cache-miss flag). It implements the §III-B5 batch split: the fast
// group continues past the reconvergence point and completes; the
// blocked group is context-switched out and re-batched at the storage
// tier. Either group may be empty.
func SplitLongLatency(b Batch, blocked func(*uservices.Request) bool) (fast, slow Batch) {
	fast.Key, slow.Key = b.Key+"/fast", b.Key+"/blocked"
	for i := range b.Requests {
		if blocked(&b.Requests[i]) {
			slow.Requests = append(slow.Requests, b.Requests[i])
		} else {
			fast.Requests = append(fast.Requests, b.Requests[i])
		}
	}
	return fast, slow
}

// IsolateOutliers implements the §VI-C QoS defence: a malicious or
// pathological request with a far-larger argument than its peers would
// drag a whole batch through its long loops (every other lane waits at
// the reconvergence point). Requests whose argument size exceeds
// factor × the median are quarantined for separate (smaller or scalar)
// batches.
func IsolateOutliers(reqs []uservices.Request, factor float64) (normal, outliers []uservices.Request) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if factor <= 1 {
		factor = 4
	}
	sizes := make([]int, len(reqs))
	for i := range reqs {
		sizes[i] = reqs[i].ArgBytes
	}
	slices.Sort(sizes)
	median := float64(sizes[len(sizes)/2])
	limit := median * factor
	for i := range reqs {
		if float64(reqs[i].ArgBytes) > limit {
			outliers = append(outliers, reqs[i])
		} else {
			normal = append(normal, reqs[i])
		}
	}
	return normal, outliers
}
