// Declarative service graphs for the tail-at-scale engine. A GraphSpec
// describes a microservice scenario as data: stations with capacity
// multipliers, request stages with service demands wired by
// coin-conditioned edges and sync/async fan-out, and an optional RPU
// batch path with a formation point and hit/miss divergence. Both paths
// are lists of the same StageSpec; one pass (compileStages) resolves
// and checks either, and the generic executor in exec.go walks the
// compiled form instead of a hand-coded dispatch switch. The social and
// compose-post graphs that used to be Go code are now specs (the social
// grid's outputs are frozen in testdata/golden_social.txt), and new
// DeathStarBench-style scenarios (hotel-reservation, media-service,
// IoT/edge) are just more specs, loadable from JSON; testdata/hotel.json
// pins the file format.
package queuesim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Reserved edge targets: "done" resolves the request (or completes the
// batch), "join" ends a fan-out leg.
const (
	edgeDone = "done"
	edgeJoin = "join"
)

// defaultNetHopMs is the wire delay of a hop edge (ms) in a graph
// that sets no net_hop_ms: the paper's 60 µs §V-B network hop.
const defaultNetHopMs = 0.06

// Compiled sentinels for the reserved targets.
const (
	cgDone int32 = -1
	cgJoin int32 = -2
)

// GraphSpec is a declarative service graph. Stage and station names
// are separate namespaces; "done" and "join" are reserved edge
// targets. Validate (or LoadGraph) reports structural errors instead
// of panicking at run time.
type GraphSpec struct {
	Name string `json:"name"`
	// Entry names the request stage every arrival enters first.
	Entry    string        `json:"entry"`
	Stations []StationSpec `json:"stations"`
	// Coins are per-request Bernoulli draws (hit/miss divergences).
	// Every request draws all coins once at issue time, in declaration
	// order; edges and batch divergences reference them by name.
	Coins  []CoinSpec  `json:"coins,omitempty"`
	Stages []StageSpec `json:"stages"`
	// Batch describes the RPU batch path; nil graphs run CPU-only.
	Batch *BatchSpec `json:"batch,omitempty"`
	// NetHopMs is the wire delay of hop edges; 0 (an omitted
	// net_hop_ms key) takes the default 0.06 ms, §V-B's 60 µs hop.
	NetHopMs float64 `json:"net_hop_ms,omitempty"`
	// UtilStation names the station whose utilisation is reported as
	// TailMetrics.UserUtil; empty defaults to the first BatchTier
	// station, else the first station.
	UtilStation string `json:"util_station,omitempty"`
}

// StationSpec declares a multi-server FIFO station. Server count is
// Cores×CoresMul×Scale (×5 in RPU mode); a BatchTier station instead
// gets ceil(Cores×CoresMul×5×1.2/BatchSize×Scale) servers in RPU mode
// (whole batches occupy a server); Infinite stations are pure delay.
type StationSpec struct {
	Name      string  `json:"name"`
	CoresMul  float64 `json:"cores_mul,omitempty"` // default 1
	BatchTier bool    `json:"batch_tier,omitempty"`
	Infinite  bool    `json:"infinite,omitempty"`
}

// CoinSpec is one per-request Bernoulli draw: Prob is the probability
// the coin lands "hit".
type CoinSpec struct {
	Name string  `json:"name"`
	Prob float64 `json:"prob"`
}

// StageSpec is one pipeline stage, on the request path or the batch
// path: service at Station for ~DemandMs (jittered ±20% and scaled by
// the RPU latency multiplier unless Fixed), then Next edges. A stage
// with Fanout edges spawns one leg per edge after service; sync legs
// must reach "join", and the stage's Next edges fire when the last sync
// leg joins. HoldMs and Diverge apply only on the batch path; a request
// stage that sets either is rejected.
type StageSpec struct {
	Name     string  `json:"name"`
	Station  string  `json:"station"`
	DemandMs float64 `json:"demand_ms"`
	// Fixed uses DemandMs verbatim: no jitter, no RPU latency
	// multiplier (the storage-latency model).
	Fixed bool `json:"fixed,omitempty"`
	// HoldMs adds a fixed on-core occupancy on top of the service
	// demand (the reconvergence wait of an unsplit batch).
	HoldMs float64 `json:"hold_ms,omitempty"`
	// Diverge replaces Next and Fanout: after service the batch splits
	// on a per-member coin.
	Diverge *DivergeSpec `json:"diverge,omitempty"`
	Next    []EdgeSpec   `json:"next,omitempty"`
	Fanout  []EdgeSpec   `json:"fanout,omitempty"`
}

// EdgeSpec is one transition. Hop inserts a network-hop delay; a
// non-hop edge enters the target directly. Coin conditions the edge:
// "name" takes it when the coin hit, "!name" when it missed; the last
// Next edge must be unconditional. Async marks a fan-out leg as
// fire-and-forget: it never joins and the parent does not wait for it.
type EdgeSpec struct {
	To    string `json:"to"`
	Hop   bool   `json:"hop,omitempty"`
	Coin  string `json:"coin,omitempty"`
	Async bool   `json:"async,omitempty"`
}

// BatchSpec is the RPU batch path: requests completing FormAfter join
// the forming batch (width Config.BatchSize, per-batch timeout
// Config.BatchTimeout), and launched batches enter Entry (crossing a
// network hop first when EntryHop). Its stages are a namespace of their
// own; next edges carry no coins (a batch diverges instead) and
// fan-out edges no conditions.
type BatchSpec struct {
	FormAfter string      `json:"form_after"`
	Entry     string      `json:"entry"`
	EntryHop  bool        `json:"entry_hop,omitempty"`
	Stages    []StageSpec `json:"stages"`
}

// DivergeSpec routes a batch-path stage's batch after a per-member
// hit/miss divergence on Coin: an all-hit batch follows Hit; with Split
// enabled, miss members follow Miss as a sub-batch (all-miss batches
// follow it whole) while hits follow Hit; with Split disabled the whole
// batch follows Hold when any member missed (or Miss, when Hold is
// nil). Its edges carry no coin and are never async.
type DivergeSpec struct {
	Coin string    `json:"coin"`
	Hit  EdgeSpec  `json:"hit"`
	Miss EdgeSpec  `json:"miss"`
	Hold *EdgeSpec `json:"hold,omitempty"`
}

// Validate reports the first structural error in the spec: unknown
// station/stage references, dangling or conditional-final edges,
// cycles, unreachable stages, invalid probabilities, malformed batch
// paths. A nil error means the graph compiles and can run.
func (g *GraphSpec) Validate() error {
	_, err := compileGraph(g)
	return err
}

// LoadGraph reads and validates a GraphSpec from a JSON file.
func LoadGraph(path string) (*GraphSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := decodeGraph(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// decodeGraph decodes and validates one JSON GraphSpec. Unknown fields
// and trailing data are errors: a misspelt key such as "demandMs"
// would otherwise load as a valid graph with a zero demand.
func decodeGraph(raw []byte) (*GraphSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var g GraphSpec
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("not a graph spec: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("not a graph spec: trailing data after the JSON object")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// GraphNames lists the bundled graphs in report order.
func GraphNames() []string {
	return []string{"social", "composepost", "hotel", "media", "iot"}
}

// GraphByName returns a bundled graph spec; each carries its own
// calibrated demands, hit rates and wire hop.
func GraphByName(name string) (*GraphSpec, error) {
	switch name {
	case "social":
		return SocialGraph(), nil
	case "composepost":
		return ComposePostGraph(), nil
	case "hotel":
		return HotelGraph(), nil
	case "media":
		return MediaGraph(), nil
	case "iot":
		return IoTGraph(), nil
	}
	return nil, fmt.Errorf("queuesim: unknown graph %q (bundled: %v, or a .json file)", name, GraphNames())
}

// --- compiled form ---

// cedge is a compiled edge: to is a stage index or a cg* sentinel,
// coin is -1 for unconditional edges or a coin index with the required
// outcome in want.
type cedge struct {
	to    int32
	coin  int8
	want  bool
	hop   bool
	async bool
}

// taken reports whether the edge's coin condition holds for a
// request's draws.
func (ed *cedge) taken(coins uint16) bool {
	return ed.coin < 0 || (coins>>uint8(ed.coin)&1 == 1) == ed.want
}

// pickEdge returns the first edge whose condition matches; compile
// guarantees the final edge is unconditional.
func pickEdge(edges []cedge, coins uint16) *cedge {
	for i := range edges {
		if edges[i].taken(coins) {
			return &edges[i]
		}
	}
	return &edges[len(edges)-1]
}

type cstation struct {
	name      string
	coresMul  float64
	batchTier bool
	infinite  bool
	batched   bool // referenced by a batch stage: serves batches in RPU mode
}

// cstage is a compiled stage of either path; hold and div are zero on
// request stages.
type cstage struct {
	station int32
	fixed   bool
	demand  float64
	hold    float64
	div     *cbdiv
	next    []cedge
	fanout  []cedge
}

// succ returns the edges a stage continues along after service, its
// fan-out aside: its next edges, or the edges its divergence can take.
func (s *cstage) succ() []cedge {
	if s.div == nil {
		return s.next
	}
	out := []cedge{s.div.hit, s.div.miss}
	if s.div.hold != nil {
		out = append(out, *s.div.hold)
	}
	return out
}

type cbdiv struct {
	coin uint8
	hit  cedge
	miss cedge
	hold *cedge // nil: an unsplit batch with a miss follows miss
}

type cgraph struct {
	name        string
	netHop      float64 // wire delay of hop edges (ms), always positive
	stations    []cstation
	coins       []float64
	stages      []cstage
	bstages     []cstage // the batch path, empty when the graph has none
	entry       int32
	utilStation int32
	formAfter   int32 // -1 when the graph has no batch path
	bentry      int32 // -1 when the graph has no batch path
	bentryHop   bool
}

// nonNegFinite reports whether v is a usable duration or multiplier:
// neither negative, NaN nor infinite.
func nonNegFinite(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

// compileGraph validates a spec and resolves it to index-addressed
// tables the executor walks.
func compileGraph(g *GraphSpec) (*cgraph, error) {
	errf := func(format string, a ...any) error {
		return fmt.Errorf("graph %q: %s", g.Name, fmt.Sprintf(format, a...))
	}
	fail := func(format string, a ...any) (*cgraph, error) {
		return nil, errf(format, a...)
	}
	if len(g.Stages) == 0 {
		return fail("empty graph: no stages")
	}
	if len(g.Stations) == 0 {
		return fail("empty graph: no stations")
	}
	if len(g.Coins) > 16 {
		return fail("too many coins (max 16)")
	}

	if !nonNegFinite(g.NetHopMs) {
		return fail("net_hop_ms %v", g.NetHopMs)
	}
	c := &cgraph{name: g.Name, netHop: g.NetHopMs, utilStation: -1, formAfter: -1, bentry: -1}
	if c.netHop == 0 {
		c.netHop = defaultNetHopMs
	}

	stations := map[string]int32{}
	for i, s := range g.Stations {
		if s.Name == "" {
			return fail("station %d has no name", i)
		}
		if _, dup := stations[s.Name]; dup {
			return fail("duplicate station %q", s.Name)
		}
		mul := s.CoresMul
		if mul == 0 {
			mul = 1
		}
		if !nonNegFinite(mul) {
			return fail("station %q: cores_mul %v", s.Name, s.CoresMul)
		}
		stations[s.Name] = int32(i)
		c.stations = append(c.stations, cstation{
			name: s.Name, coresMul: mul, batchTier: s.BatchTier, infinite: s.Infinite})
		if s.BatchTier && c.utilStation < 0 {
			c.utilStation = int32(i)
		}
	}
	if c.utilStation < 0 {
		c.utilStation = 0
	}
	if g.UtilStation != "" {
		si, ok := stations[g.UtilStation]
		if !ok {
			return fail("util_station %q is not a station", g.UtilStation)
		}
		c.utilStation = si
	}

	coins := map[string]int8{}
	for i, cs := range g.Coins {
		if cs.Name == "" {
			return fail("coin %d has no name", i)
		}
		if _, dup := coins[cs.Name]; dup {
			return fail("duplicate coin %q", cs.Name)
		}
		if cs.Prob < 0 || cs.Prob > 1 || math.IsNaN(cs.Prob) {
			return fail("coin %q: probability %v outside [0,1]", cs.Name, cs.Prob)
		}
		coins[cs.Name] = int8(i)
		c.coins = append(c.coins, cs.Prob)
	}

	// compileEdge resolves one edge against a stage namespace.
	compileEdge := func(where string, e EdgeSpec, idx map[string]int32, allowJoin bool) (cedge, error) {
		ce := cedge{coin: -1, hop: e.Hop, async: e.Async}
		switch e.To {
		case "":
			return ce, errf("%s: edge with no target", where)
		case edgeDone:
			ce.to = cgDone
		case edgeJoin:
			if !allowJoin {
				return ce, errf("%s: %q outside a fan-out leg", where, edgeJoin)
			}
			ce.to = cgJoin
		default:
			to, ok := idx[e.To]
			if !ok {
				return ce, errf("%s: edge to unknown stage %q", where, e.To)
			}
			ce.to = to
		}
		if e.Coin != "" {
			name, want := e.Coin, true
			if name[0] == '!' {
				name, want = name[1:], false
			}
			ci, ok := coins[name]
			if !ok {
				return ce, errf("%s: unknown coin %q", where, e.Coin)
			}
			ce.coin, ce.want = ci, want
		}
		return ce, nil
	}

	// compileStages resolves one pipeline — the request path, or the
	// batch path when batch — in its own stage namespace, and checks
	// its topology from the stage named entry. The batch path's edges
	// carry no coins: a batch diverges per member instead.
	compileStages := func(kind string, specs []StageSpec, entry string, batch bool) ([]cstage, map[string]int32, error) {
		if len(specs) > 100 {
			return nil, nil, errf("too many %ss (max 100)", kind)
		}
		idx := map[string]int32{}
		for i, s := range specs {
			if s.Name == "" || s.Name == edgeDone || s.Name == edgeJoin {
				return nil, nil, errf("%s %d: invalid name %q", kind, i, s.Name)
			}
			if _, dup := idx[s.Name]; dup {
				return nil, nil, errf("duplicate %s %q", kind, s.Name)
			}
			idx[s.Name] = int32(i)
		}
		out := make([]cstage, len(specs))
		for i := range specs {
			s, cs := &specs[i], &out[i]
			where := fmt.Sprintf("%s %q", kind, s.Name)
			si, ok := stations[s.Station]
			if !ok {
				return nil, nil, errf("%s: unknown station %q", where, s.Station)
			}
			if !batch && (s.HoldMs != 0 || s.Diverge != nil) {
				return nil, nil, errf("%s: hold_ms and diverge apply only on the batch path", where)
			}
			if !nonNegFinite(s.DemandMs) {
				return nil, nil, errf("%s: demand %v", where, s.DemandMs)
			}
			if !nonNegFinite(s.HoldMs) {
				return nil, nil, errf("%s: hold %v", where, s.HoldMs)
			}
			if batch {
				c.stations[si].batched = true
			}
			*cs = cstage{station: si, demand: s.DemandMs, fixed: s.Fixed, hold: s.HoldMs}
			if dv := s.Diverge; dv != nil {
				if len(s.Next) > 0 || len(s.Fanout) > 0 {
					return nil, nil, errf("%s: diverge excludes next/fanout edges", where)
				}
				ci, ok := coins[dv.Coin]
				if !ok {
					return nil, nil, errf("%s: diverge on unknown coin %q", where, dv.Coin)
				}
				cs.div = &cbdiv{coin: uint8(ci)}
				hold := new(cedge)
				for _, leg := range []struct {
					label string
					e     *EdgeSpec
					dst   *cedge
				}{{"hit", &dv.Hit, &cs.div.hit}, {"miss", &dv.Miss, &cs.div.miss}, {"hold", dv.Hold, hold}} {
					if leg.e == nil {
						continue
					}
					ce, err := compileEdge(where+" diverge "+leg.label, *leg.e, idx, false)
					if err != nil {
						return nil, nil, err
					}
					if ce.coin >= 0 || ce.async {
						return nil, nil, errf("%s: diverge %s edge must be plain", where, leg.label)
					}
					*leg.dst = ce
				}
				if dv.Hold != nil {
					cs.div.hold = hold
				}
				continue
			}
			if len(s.Next) == 0 {
				return nil, nil, errf("%s has no next edges", where)
			}
			for j, e := range s.Next {
				ce, err := compileEdge(where, e, idx, true)
				if err != nil {
					return nil, nil, err
				}
				switch {
				case batch && ce.coin >= 0:
					return nil, nil, errf("%s: next edges cannot carry coins (use diverge)", where)
				case j == len(s.Next)-1 && ce.coin >= 0:
					return nil, nil, errf("%s: final next edge must be unconditional", where)
				case j < len(s.Next)-1 && ce.coin < 0:
					return nil, nil, errf("%s: next edge to %q is unconditional, so the edges after it are never taken", where, e.To)
				case ce.async:
					return nil, nil, errf("%s: async is only valid on fan-out edges", where)
				}
				cs.next = append(cs.next, ce)
			}
			for _, e := range s.Fanout {
				ce, err := compileEdge(where+" fan-out", e, idx, false)
				if err != nil {
					return nil, nil, err
				}
				switch {
				case ce.to < 0:
					return nil, nil, errf("%s: fan-out edge must target a stage", where)
				case batch && ce.coin >= 0:
					return nil, nil, errf("%s: fan-out edge must target a stage unconditionally", where)
				}
				cs.fanout = append(cs.fanout, ce)
			}
		}
		ei, ok := idx[entry]
		if !ok {
			return nil, nil, errf("entry %q is not a %s", entry, kind)
		}
		if err := checkTopology(g.Name, kind, specs, out, ei); err != nil {
			return nil, nil, err
		}
		return out, idx, nil
	}

	stages, stageIdx, err := compileStages("stage", g.Stages, g.Entry, false)
	if err != nil {
		return nil, err
	}
	c.stages, c.entry = stages, stageIdx[g.Entry]

	if b := g.Batch; b != nil {
		fa, ok := stageIdx[b.FormAfter]
		if !ok {
			return fail("batch form_after %q is not a request stage", b.FormAfter)
		}
		if len(c.stages[fa].fanout) > 0 {
			return fail("batch form_after %q cannot be a fan-out stage", b.FormAfter)
		}
		if len(b.Stages) == 0 {
			return fail("batch path has no stages")
		}
		bstages, bIdx, err := compileStages("batch stage", b.Stages, b.Entry, true)
		if err != nil {
			return nil, err
		}
		c.bstages, c.bentry, c.bentryHop, c.formAfter = bstages, bIdx[b.Entry], b.EntryHop, fa
		// Stations requests reach before the formation point serve
		// requests even in RPU mode and must not also serve batches.
		for _, si := range c.preFormStations() {
			if c.stations[si].batched {
				return fail("station %q serves batches but request stage(s) before batch formation use it",
					c.stations[si].name)
			}
		}
	}
	return c, nil
}

// checkTopology enforces the structural invariants shared by the
// request and batch pipelines: the stage graph is acyclic, every stage
// is reachable from the entry, the main chain never targets "join",
// fan-out legs never target "done", fan out again or diverge, and no
// stage is shared between the main chain and a leg.
func checkTopology(graph, kind string, specs []StageSpec, stages []cstage, entry int32) error {
	fail := func(format string, a ...any) error {
		return fmt.Errorf("graph %q: %s", graph, fmt.Sprintf(format, a...))
	}
	// Cycle check over all edges (tri-colour DFS).
	const (
		white = iota
		grey
		black
	)
	colour := make([]int, len(stages))
	var visit func(int32) error
	visit = func(i int32) error {
		colour[i] = grey
		for _, edges := range [][]cedge{stages[i].succ(), stages[i].fanout} {
			for _, e := range edges {
				if e.to < 0 {
					continue
				}
				switch colour[e.to] {
				case grey:
					return fail("cycle through %s %q", kind, specs[e.to].Name)
				case white:
					if err := visit(e.to); err != nil {
						return err
					}
				}
			}
		}
		colour[i] = black
		return nil
	}
	for i := range stages {
		if colour[i] == white {
			if err := visit(int32(i)); err != nil {
				return err
			}
		}
	}

	// Main chain: BFS from entry over next edges only.
	main := make([]bool, len(stages))
	queue := []int32{entry}
	main[entry] = true
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, e := range stages[i].succ() {
			if e.to == cgJoin {
				return fail("%s %q: %q outside a fan-out leg", kind, specs[i].Name, edgeJoin)
			}
			if e.to >= 0 && !main[e.to] {
				main[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}

	// Legs: BFS from every fan-out target of a main-chain stage.
	leg := make([]bool, len(stages))
	for i := range stages {
		if !main[i] {
			continue
		}
		for _, e := range stages[i].fanout {
			if e.to >= 0 && !leg[e.to] {
				leg[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if main[i] {
			return fail("%s %q shared between the main path and a fan-out leg", kind, specs[i].Name)
		}
		if len(stages[i].fanout) > 0 {
			return fail("%s %q: nested fan-out", kind, specs[i].Name)
		}
		if stages[i].div != nil {
			return fail("%s %q: diverge inside a fan-out leg, whose batch has no members", kind, specs[i].Name)
		}
		for _, e := range stages[i].succ() {
			if e.to == cgDone {
				return fail("%s %q: fan-out leg cannot target %q (use %q)", kind, specs[i].Name, edgeDone, edgeJoin)
			}
			if e.to >= 0 && !leg[e.to] {
				leg[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}

	for i := range stages {
		if !main[i] && !leg[i] {
			return fail("%s %q unreachable from the entry", kind, specs[i].Name)
		}
	}
	return nil
}

// preFormStations returns the stations used by request stages (and
// their fan-out legs) reachable from the entry without passing the
// batch-formation point.
func (c *cgraph) preFormStations() []int32 {
	seen := make([]bool, len(c.stages))
	queue := []int32{c.entry}
	seen[c.entry] = true
	var out []int32
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		out = append(out, c.stages[i].station)
		if i == c.formAfter {
			continue // batches take over past the formation point
		}
		for _, edges := range [][]cedge{c.stages[i].next, c.stages[i].fanout} {
			for _, e := range edges {
				if e.to >= 0 && !seen[e.to] {
					seen[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
	}
	return out
}

// --- bundled graphs ---

// SocialGraph is the declarative form of the Figure 22 User-path
// social-network scenario. It compiles to the exact event and RNG
// sequence of the hand-coded dispatch it replaced; the golden social
// grid (testdata/golden_social.txt, written by that dispatch) checks
// spec-driven runs stay byte-identical to it. The web demand and the
// per-request User demand (2.4 ms over two phases) are the calibration
// constants that reproduce uqSim's ≈15 kQPS CPU saturation on 3×40
// cores; the 100/20/25/1000/60 µs figures from §V-B are the no-load
// latency floors of the respective hops. Memcached hits 90 % of the
// time (the paper's hit rate).
func SocialGraph() *GraphSpec {
	return &GraphSpec{
		Name:     "social",
		Entry:    "web",
		NetHopMs: defaultNetHopMs,
		Stations: []StationSpec{
			{Name: "web"},
			{Name: "user", BatchTier: true},
			{Name: "mcrouter", CoresMul: 0.5},
			{Name: "memcached", CoresMul: 0.5},
			{Name: "storage", Infinite: true},
		},
		Coins: []CoinSpec{{Name: "cache", Prob: 0.9}},
		Stages: []StageSpec{
			{Name: "web", Station: "web", DemandMs: 0.25,
				Next: []EdgeSpec{{To: "user1", Hop: true}}},
			{Name: "user1", Station: "user", DemandMs: 1.5,
				Next: []EdgeSpec{{To: "mcrouter", Hop: true}}},
			{Name: "mcrouter", Station: "mcrouter", DemandMs: 0.02,
				Next: []EdgeSpec{{To: "memcached"}}},
			{Name: "memcached", Station: "memcached", DemandMs: 0.025,
				Next: []EdgeSpec{
					{To: "user2", Hop: true, Coin: "cache"},
					{To: "storage"},
				}},
			{Name: "storage", Station: "storage", DemandMs: 1.0, Fixed: true,
				Next: []EdgeSpec{{To: "user2", Hop: true}}},
			{Name: "user2", Station: "user", DemandMs: 0.9,
				Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
		},
		Batch: &BatchSpec{
			FormAfter: "web", Entry: "buser1", EntryHop: true,
			Stages: []StageSpec{
				{Name: "buser1", Station: "user", DemandMs: 1.5,
					Next: []EdgeSpec{{To: "bmcrouter", Hop: true}}},
				{Name: "bmcrouter", Station: "mcrouter", DemandMs: 0.02,
					Next: []EdgeSpec{{To: "bmemcached"}}},
				{Name: "bmemcached", Station: "memcached", DemandMs: 0.025,
					Diverge: &DivergeSpec{
						Coin: "cache",
						Hit:  EdgeSpec{To: "buser2", Hop: true},
						Miss: EdgeSpec{To: "bstorage"},
						Hold: &EdgeSpec{To: "buser2hold", Hop: true},
					}},
				{Name: "bstorage", Station: "storage", DemandMs: 1.0, Fixed: true,
					Next: []EdgeSpec{{To: "buser2", Hop: true}}},
				{Name: "buser2", Station: "user", DemandMs: 0.9,
					Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
				{Name: "buser2hold", Station: "user", DemandMs: 0.9,
					HoldMs: 1.0,
					Next:   []EdgeSpec{{To: edgeDone, Hop: true}}},
			},
		},
	}
}

// ComposePostGraph is the declarative form of the Figure 3
// compose-post path: orchestrator fan-out to four nanoservices, join,
// then persist through storage and the cache tier. Its demands are
// calibrated so the CPU system saturates in the same regime as the
// Figure 22 study; the RPU path batches at the orchestrator, sends
// the four RPCs per batch and joins when the slowest leg returns (the
// fan-out analogue of reconvergence waiting).
func ComposePostGraph() *GraphSpec {
	return &GraphSpec{
		Name:     "composepost",
		Entry:    "web",
		NetHopMs: defaultNetHopMs,
		Stations: []StationSpec{
			{Name: "web"},
			{Name: "post-orch", BatchTier: true},
			{Name: "uniqueid", CoresMul: 0.25},
			{Name: "urlshort", CoresMul: 0.25},
			{Name: "post-text", CoresMul: 0.5},
			{Name: "usertag", CoresMul: 0.25},
			{Name: "storage", Infinite: true},
			{Name: "memcached", CoresMul: 0.25},
		},
		Stages: []StageSpec{
			{Name: "web", Station: "web", DemandMs: 0.25,
				Next: []EdgeSpec{{To: "orch", Hop: true}}},
			{Name: "orch", Station: "post-orch", DemandMs: 1.2,
				Fanout: []EdgeSpec{{To: "uniq", Hop: true}, {To: "urls", Hop: true},
					{To: "text", Hop: true}, {To: "tags", Hop: true}},
				Next: []EdgeSpec{{To: "store"}}},
			{Name: "store", Station: "storage", DemandMs: 1.0, Fixed: true,
				Next: []EdgeSpec{{To: "cache"}}},
			{Name: "cache", Station: "memcached", DemandMs: 0.05,
				Next: []EdgeSpec{{To: edgeDone}}},
			{Name: "uniq", Station: "uniqueid", DemandMs: 0.15,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "urls", Station: "urlshort", DemandMs: 0.25,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "text", Station: "post-text", DemandMs: 0.8,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "tags", Station: "usertag", DemandMs: 0.4,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
		},
		Batch: &BatchSpec{
			// Logic-tier batching: the web tier acknowledges each request
			// individually and the batch enters the orchestrator directly
			// (no entry hop).
			FormAfter: "web", Entry: "borch",
			Stages: []StageSpec{
				{Name: "borch", Station: "post-orch", DemandMs: 1.2,
					Fanout: []EdgeSpec{{To: "buniq", Hop: true}, {To: "burls", Hop: true},
						{To: "btext", Hop: true}, {To: "btags", Hop: true}},
					Next: []EdgeSpec{{To: "bstore"}}},
				{Name: "bstore", Station: "storage", DemandMs: 1.0, Fixed: true,
					Next: []EdgeSpec{{To: "bcache"}}},
				{Name: "bcache", Station: "memcached", DemandMs: 0.05,
					Next: []EdgeSpec{{To: edgeDone}}},
				{Name: "buniq", Station: "uniqueid", DemandMs: 0.15,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "burls", Station: "urlshort", DemandMs: 0.25,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "btext", Station: "post-text", DemandMs: 0.8,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "btags", Station: "usertag", DemandMs: 0.4,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			},
		},
	}
}

// HotelGraph is a DeathStarBench hotel-reservation scenario: frontend
// → search, which fans out to geo and rate in parallel, joins, then a
// profile lookup that hits its cache 80% of the time and otherwise
// pays a reservation-DB round trip. The RPU path batches at the search
// tier.
func HotelGraph() *GraphSpec {
	return &GraphSpec{
		Name:     "hotel",
		Entry:    "frontend",
		NetHopMs: defaultNetHopMs,
		Stations: []StationSpec{
			{Name: "frontend"},
			{Name: "search", BatchTier: true},
			{Name: "geo", CoresMul: 0.5},
			{Name: "rate", CoresMul: 0.5},
			{Name: "profile", CoresMul: 0.5},
			{Name: "reservedb", Infinite: true},
		},
		Coins: []CoinSpec{{Name: "profilecache", Prob: 0.8}},
		Stages: []StageSpec{
			{Name: "frontend", Station: "frontend", DemandMs: 0.3,
				Next: []EdgeSpec{{To: "search", Hop: true}}},
			{Name: "search", Station: "search", DemandMs: 1.1,
				Fanout: []EdgeSpec{{To: "geo", Hop: true}, {To: "rate", Hop: true}},
				Next:   []EdgeSpec{{To: "profile", Hop: true}}},
			{Name: "geo", Station: "geo", DemandMs: 0.35,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "rate", Station: "rate", DemandMs: 0.45,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "profile", Station: "profile", DemandMs: 0.6,
				Next: []EdgeSpec{
					{To: edgeDone, Hop: true, Coin: "profilecache"},
					{To: "reservedb"},
				}},
			{Name: "reservedb", Station: "reservedb", DemandMs: 2.0, Fixed: true,
				Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
		},
		Batch: &BatchSpec{
			FormAfter: "frontend", Entry: "bsearch", EntryHop: true,
			Stages: []StageSpec{
				{Name: "bsearch", Station: "search", DemandMs: 1.1,
					Fanout: []EdgeSpec{{To: "bgeo", Hop: true}, {To: "brate", Hop: true}},
					Next:   []EdgeSpec{{To: "bprofile", Hop: true}}},
				{Name: "bgeo", Station: "geo", DemandMs: 0.35,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "brate", Station: "rate", DemandMs: 0.45,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "bprofile", Station: "profile", DemandMs: 0.6,
					Diverge: &DivergeSpec{
						Coin: "profilecache",
						Hit:  EdgeSpec{To: "bdone", Hop: true},
						Miss: EdgeSpec{To: "breservedb"},
						Hold: &EdgeSpec{To: "bprofilehold", Hop: true},
					}},
				{Name: "breservedb", Station: "reservedb", DemandMs: 2.0, Fixed: true,
					Next: []EdgeSpec{{To: "bdone", Hop: true}}},
				// Unsplit batches hold a profile server for the DB round
				// trip at the reconvergence point.
				{Name: "bprofilehold", Station: "profile", DemandMs: 0, Fixed: true,
					HoldMs: 2.0,
					Next:   []EdgeSpec{{To: "bdone", Hop: true}}},
				// Reply aggregation back at the search tier before the
				// batch completes.
				{Name: "bdone", Station: "search", DemandMs: 0.1,
					Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
			},
		},
	}
}

// MediaGraph is a DeathStarBench media-service scenario: a sequential
// review pipeline (frontend → API → review compose → movie info) with
// a movie-info cache divergence into storage, then the rating tier.
// The RPU path batches at the API tier.
func MediaGraph() *GraphSpec {
	return &GraphSpec{
		Name:     "media",
		Entry:    "frontend",
		NetHopMs: defaultNetHopMs,
		Stations: []StationSpec{
			{Name: "frontend"},
			{Name: "api", BatchTier: true},
			{Name: "review", CoresMul: 0.5},
			{Name: "movieinfo", CoresMul: 0.5},
			{Name: "rating", CoresMul: 0.25},
			{Name: "moviedb", Infinite: true},
		},
		Coins: []CoinSpec{{Name: "moviecache", Prob: 0.7}},
		Stages: []StageSpec{
			{Name: "frontend", Station: "frontend", DemandMs: 0.25,
				Next: []EdgeSpec{{To: "api", Hop: true}}},
			{Name: "api", Station: "api", DemandMs: 1.0,
				Next: []EdgeSpec{{To: "review", Hop: true}}},
			{Name: "review", Station: "review", DemandMs: 0.7,
				Next: []EdgeSpec{{To: "movieinfo", Hop: true}}},
			{Name: "movieinfo", Station: "movieinfo", DemandMs: 0.5,
				Next: []EdgeSpec{
					{To: "rating", Hop: true, Coin: "moviecache"},
					{To: "moviedb"},
				}},
			{Name: "moviedb", Station: "moviedb", DemandMs: 1.5, Fixed: true,
				Next: []EdgeSpec{{To: "rating", Hop: true}}},
			{Name: "rating", Station: "rating", DemandMs: 0.3,
				Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
		},
		Batch: &BatchSpec{
			FormAfter: "frontend", Entry: "bapi", EntryHop: true,
			Stages: []StageSpec{
				{Name: "bapi", Station: "api", DemandMs: 1.0,
					Next: []EdgeSpec{{To: "breview", Hop: true}}},
				{Name: "breview", Station: "review", DemandMs: 0.7,
					Next: []EdgeSpec{{To: "bmovieinfo", Hop: true}}},
				{Name: "bmovieinfo", Station: "movieinfo", DemandMs: 0.5,
					Diverge: &DivergeSpec{
						Coin: "moviecache",
						Hit:  EdgeSpec{To: "brating", Hop: true},
						Miss: EdgeSpec{To: "bmoviedb"},
						Hold: &EdgeSpec{To: "bratinghold", Hop: true},
					}},
				{Name: "bmoviedb", Station: "moviedb", DemandMs: 1.5, Fixed: true,
					Next: []EdgeSpec{{To: "brating", Hop: true}}},
				{Name: "brating", Station: "rating", DemandMs: 0.3,
					Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
				{Name: "bratinghold", Station: "rating", DemandMs: 0.3,
					HoldMs: 1.5,
					Next:   []EdgeSpec{{To: edgeDone, Hop: true}}},
			},
		},
	}
}

// IoTGraph is an IoT/edge pipeline: gateway → decode → analytics,
// which raises a synchronous alert and fires an asynchronous archive
// write that nobody waits for (the async-edge showcase). The RPU path
// batches at the analytics tier.
func IoTGraph() *GraphSpec {
	return &GraphSpec{
		Name:     "iot",
		Entry:    "gateway",
		NetHopMs: defaultNetHopMs,
		Stations: []StationSpec{
			{Name: "gateway"},
			{Name: "analytics", BatchTier: true},
			{Name: "decode", CoresMul: 0.5},
			{Name: "alert", CoresMul: 0.25},
			{Name: "archive", Infinite: true},
		},
		Stages: []StageSpec{
			{Name: "gateway", Station: "gateway", DemandMs: 0.2,
				Next: []EdgeSpec{{To: "decode", Hop: true}}},
			{Name: "decode", Station: "decode", DemandMs: 0.6,
				Next: []EdgeSpec{{To: "analytics", Hop: true}}},
			{Name: "analytics", Station: "analytics", DemandMs: 1.3,
				Fanout: []EdgeSpec{
					{To: "alert", Hop: true},
					{To: "archive", Hop: true, Async: true},
				},
				Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
			{Name: "alert", Station: "alert", DemandMs: 0.3,
				Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
			{Name: "archive", Station: "archive", DemandMs: 4.0, Fixed: true,
				Next: []EdgeSpec{{To: edgeJoin}}},
		},
		Batch: &BatchSpec{
			FormAfter: "gateway", Entry: "bdecode", EntryHop: true,
			Stages: []StageSpec{
				{Name: "bdecode", Station: "decode", DemandMs: 0.6,
					Next: []EdgeSpec{{To: "banalytics", Hop: true}}},
				{Name: "banalytics", Station: "analytics", DemandMs: 1.3,
					Fanout: []EdgeSpec{
						{To: "balert", Hop: true},
						{To: "barchive", Hop: true, Async: true},
					},
					Next: []EdgeSpec{{To: edgeDone, Hop: true}}},
				{Name: "balert", Station: "alert", DemandMs: 0.3,
					Next: []EdgeSpec{{To: edgeJoin, Hop: true}}},
				{Name: "barchive", Station: "archive", DemandMs: 4.0, Fixed: true,
					Next: []EdgeSpec{{To: edgeJoin}}},
			},
		},
	}
}
