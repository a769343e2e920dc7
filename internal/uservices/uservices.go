// Package uservices implements the paper's 15-microservice social
// network suite (µSuite + DeathStarBench derived) as µISA programs:
// Memcached (mcrouter, memc, memc-backend), Search (mid, leaf),
// HDSearch (mid, leaf), Recommender (mid, leaf), Post (post, post-text,
// urlshort, uniqueid, usertag) and User. Each service exposes one or
// more APIs with request-dependent control flow and memory behaviour
// modelled on the originals: call-heavy, stack-dominated middle tiers;
// data-intensive leaves with large private heap footprints; shared
// read-mostly tables in the data segment.
package uservices

import (
	"fmt"
	"math/rand"

	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/seedrng"
)

// Request is one incoming RPC/HTTP request.
type Request struct {
	// Service names the target microservice.
	Service string
	// API is the invoked procedure (batching policy key #1).
	API string
	// ArgBytes is the request argument size (batching policy key #2).
	ArgBytes int
	// Args encodes the request for the program closures:
	// Args[0] = API index, Args[1] = primary length, Args[2+] extra.
	Args []uint64
	// Seed drives per-request data-dependent behaviour (hash values,
	// chain lengths, cache hit/miss).
	Seed int64
	// Arrival is the request arrival time (set by the system
	// simulator; zero for chip-level studies).
	Arrival float64
}

// Service is one microservice: its API programs plus a request
// generator.
type Service struct {
	// Name identifies the service (e.g. "search-leaf").
	Name string
	// Group is the application it belongs to (e.g. "Search").
	Group string
	// APIs lists the procedure names in Args[0] index order.
	APIs []string
	// TunedBatch is the offline-tuned RPU batch size: 8 for the
	// data-intensive leaves, 32 otherwise (paper §III-B3).
	TunedBatch int
	// DataIntensive marks services with large per-thread heap
	// footprints (HDSearch-leaf, Search-leaf).
	DataIntensive bool

	progs map[string]*isa.Program
	gen   func(r *rand.Rand) Request
}

// Program returns the program implementing the given API.
func (s *Service) Program(api string) *isa.Program {
	p, ok := s.progs[api]
	if !ok {
		panic(fmt.Sprintf("uservices: service %q has no API %q", s.Name, api))
	}
	return p
}

// BranchReconv merges the reconvergence tables of every API program.
func (s *Service) BranchReconv() map[uint64]uint64 {
	m := map[uint64]uint64{}
	for _, p := range s.progs {
		for k, v := range p.BranchReconv() {
			m[k] = v
		}
	}
	return m
}

// Generate produces n requests using the service's API and argument
// distributions.
func (s *Service) Generate(r *rand.Rand, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = s.gen(r)
		out[i].Service = s.Name
	}
	return out
}

// Trace executes the request's program for thread tid and returns the
// scalar dynamic trace. stackBase is the thread's stack segment top and
// heap its arena. The request's rng is a seedrng source, which emits
// exactly rand.New(rand.NewSource(req.Seed)) but computes each word of
// the source's seeded state only when a draw first reads it, instead
// of paying the source's full seeding warm-up on every interpretation.
func (s *Service) Trace(req *Request, tid int, stackBase uint64, heap isa.Heap) ([]isa.TraceOp, error) {
	return s.TraceInto(NewTraceCtx(), req, tid, stackBase, heap, nil)
}

// NewTraceCtx returns a reusable context for TraceInto. Its rng is a
// seedrng source, which TraceInto reseeds from each request's seed.
func NewTraceCtx() *isa.Ctx { return &isa.Ctx{Rand: seedrng.New(0)} }

// TraceInto is Trace on caller-owned state, for callers that interpret
// request after request: it reseeds ctx.Rand from req.Seed, reuses ctx
// (see isa.ExecuteBuf) and interprets into buf's backing array. With a
// context from NewTraceCtx the trace equals a fresh interpretation's,
// and once ctx and buf have grown to the service's largest request,
// tracing allocates nothing. The returned slice aliases buf when it had
// capacity.
func (s *Service) TraceInto(ctx *isa.Ctx, req *Request, tid int, stackBase uint64, heap isa.Heap, buf []isa.TraceOp) ([]isa.TraceOp, error) {
	ctx.Rand.Seed(req.Seed)
	ctx.Arg = req.Args
	ctx.StackBase = stackBase
	ctx.Heap = heap
	ctx.TID = tid
	return isa.ExecuteBuf(s.Program(req.API), ctx, 0, buf)
}

// TraceBatch traces every request of a batch with per-thread stacks and
// arenas. policy selects the heap allocator; interleave is ignored here
// (it is a physical mapping applied at access time).
func (s *Service) TraceBatch(reqs []Request, sg *alloc.StackGroup, policy alloc.Policy, lineBytes, banks int) ([][]isa.TraceOp, error) {
	traces := make([][]isa.TraceOp, len(reqs))
	for t := range reqs {
		arena := alloc.NewArena(t, policy, lineBytes, banks)
		tr, err := s.Trace(&reqs[t], t, sg.StackBase(t), arena)
		if err != nil {
			return nil, fmt.Errorf("uservices: tracing %s request %d: %w", s.Name, t, err)
		}
		traces[t] = tr
	}
	return traces, nil
}

// Suite is the full workload set with its shared data segment.
type Suite struct {
	Services []*Service
	byName   map[string]*Service
}

// Get returns a service by name; it panics on an unknown name (use
// Lookup for names from user input).
func (s *Suite) Get(name string) *Service {
	svc := s.Lookup(name)
	if svc == nil {
		panic(fmt.Sprintf("uservices: unknown service %q", name))
	}
	return svc
}

// Lookup returns the service with the given name, or nil.
func (s *Suite) Lookup(name string) *Service {
	return s.byName[name]
}

// Names lists the services in canonical (paper Figure) order.
func (s *Suite) Names() []string {
	names := make([]string, len(s.Services))
	for i, svc := range s.Services {
		names[i] = svc.Name
	}
	return names
}

// NewSuite constructs all 15 services, allocates their shared tables
// from one data segment and links every program into a disjoint PC
// space.
func NewSuite() *Suite {
	g := alloc.NewGlobals()
	builders := []func(*alloc.Globals) *Service{
		newMcRouter,
		newMemcBackend,
		newMemc,
		newSearchMid,
		newSearchLeaf,
		newHDSearchMid,
		newHDSearchLeaf,
		newRecommenderMid,
		newRecommenderLeaf,
		newPost,
		newPostText,
		newURLShort,
		newUniqueID,
		newUserTag,
		newUser,
	}
	suite := &Suite{byName: map[string]*Service{}}
	base := uint64(1 << 24)
	for _, build := range builders {
		svc := build(g)
		if svc.TunedBatch == 0 {
			svc.TunedBatch = 32
		}
		progs := make([]*isa.Program, 0, len(svc.progs))
		for _, api := range svc.APIs {
			progs = append(progs, svc.progs[api])
		}
		next, err := isa.Link(base, progs...)
		if err != nil {
			panic(err)
		}
		base = (next + (1 << 20)) &^ ((1 << 20) - 1)
		suite.Services = append(suite.Services, svc)
		suite.byName[svc.Name] = svc
	}
	return suite
}
