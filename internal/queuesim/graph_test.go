package queuesim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"simr/internal/stats"
)

// TestGraphValidatorErrors: malformed specs are rejected with errors
// naming the defect, never panics.
func TestGraphValidatorErrors(t *testing.T) {
	st := func(names ...string) []StationSpec {
		out := make([]StationSpec, len(names))
		for i, n := range names {
			out[i] = StationSpec{Name: n}
		}
		return out
	}
	stage := func(name string, next ...EdgeSpec) StageSpec {
		return StageSpec{Name: name, Station: "s", DemandMs: 1, Next: next}
	}
	bstage := func(name string, next ...EdgeSpec) StageSpec {
		return StageSpec{Name: name, Station: "b", DemandMs: 1, Next: next}
	}
	// batch wraps batch stages in a one-stage request path that forms
	// batches after "a" and enters them at "ba"; edit is applied to the
	// result before it is validated.
	batch := func(edit func(*GraphSpec), stages ...StageSpec) GraphSpec {
		g := GraphSpec{Name: "g", Entry: "a", Stations: st("s", "b"),
			Coins:  []CoinSpec{{Name: "c", Prob: 0.5}},
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})},
			Batch:  &BatchSpec{FormAfter: "a", Entry: "ba", Stages: stages}}
		if edit != nil {
			edit(&g)
		}
		return g
	}
	done, join := EdgeSpec{To: "done"}, EdgeSpec{To: "join"}
	diverge := &DivergeSpec{Coin: "c", Hit: done, Miss: done}
	for _, tc := range []struct {
		label string
		spec  GraphSpec
		want  string
	}{
		{"empty graph", GraphSpec{Name: "g"}, "empty graph"},
		{"no stations", GraphSpec{Name: "g", Entry: "a",
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "empty graph"},
		{"unknown entry", GraphSpec{Name: "g", Entry: "nope", Stations: st("s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "entry"},
		{"unknown station", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{{Name: "a", Station: "ghost", DemandMs: 1,
				Next: []EdgeSpec{{To: "done"}}}}}, "unknown station"},
		{"dangling edge", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "ghost"})}}, "unknown stage"},
		{"cycle", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				stage("a", EdgeSpec{To: "b"}),
				stage("b", EdgeSpec{To: "a"}),
			}}, "cycle"},
		{"bad probability", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Coins:  []CoinSpec{{Name: "c", Prob: 1.5}},
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "probability"},
		{"unknown coin", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a",
				EdgeSpec{To: "done", Coin: "ghost"}, EdgeSpec{To: "done"})}}, "unknown coin"},
		{"conditional final edge", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Coins:  []CoinSpec{{Name: "c", Prob: 0.5}},
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done", Coin: "c"})}}, "unconditional"},
		{"unconditional next edge before the last", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a", done, done)}}, "never taken"},
		{"unreachable stage", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				stage("a", EdgeSpec{To: "done"}),
				stage("orphan", EdgeSpec{To: "done"}),
			}}, "unreachable"},
		{"join outside a leg", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "join"})}}, "join"},
		{"leg reaching done", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				{Name: "a", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "leg"}},
					Next:   []EdgeSpec{{To: "done"}}},
				stage("leg", EdgeSpec{To: "done"}),
			}}, "fan-out leg"},
		{"nested fan-out", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				{Name: "a", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "leg"}},
					Next:   []EdgeSpec{{To: "done"}}},
				{Name: "leg", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "leg2"}},
					Next:   []EdgeSpec{{To: "join"}}},
				stage("leg2", EdgeSpec{To: "join"}),
			}}, "nested fan-out"},
		{"stage shared between main and leg", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				{Name: "a", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "b"}},
					Next:   []EdgeSpec{{To: "b"}}},
				stage("b", EdgeSpec{To: "done"}),
			}}, "shared"},
		{"duplicate station", GraphSpec{Name: "g", Entry: "a", Stations: st("s", "s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "duplicate station"},
		{"duplicate stage", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				stage("a", EdgeSpec{To: "done"}),
				stage("a", EdgeSpec{To: "done"}),
			}}, "duplicate stage"},
		{"negative demand", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{{Name: "a", Station: "s", DemandMs: -1,
				Next: []EdgeSpec{{To: "done"}}}}}, "demand"},
		{"batch form_after unknown", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})},
			Batch: &BatchSpec{FormAfter: "ghost", Entry: "ba",
				Stages: []StageSpec{{Name: "ba", Station: "s", DemandMs: 1,
					Next: []EdgeSpec{{To: "done"}}}}}}, "form_after"},
		{"batch diverge unknown coin", GraphSpec{Name: "g", Entry: "a", Stations: st("s", "b"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})},
			Batch: &BatchSpec{FormAfter: "a", Entry: "ba",
				Stages: []StageSpec{{Name: "ba", Station: "b", DemandMs: 1,
					Diverge: &DivergeSpec{Coin: "ghost",
						Hit:  EdgeSpec{To: "done"},
						Miss: EdgeSpec{To: "done"}}}}}}, "unknown coin"},
		{"batch station shared with pre-form stage", GraphSpec{Name: "g", Entry: "a",
			Stations: st("s"),
			Stages:   []StageSpec{stage("a", EdgeSpec{To: "done"})},
			Batch: &BatchSpec{FormAfter: "a", Entry: "ba",
				Stages: []StageSpec{{Name: "ba", Station: "s", DemandMs: 1,
					Next: []EdgeSpec{{To: "done"}}}}}}, "serves batches"},
		{"empty batch path", batch(nil), "batch path has no stages"},
		{"duplicate batch stage", batch(nil, bstage("ba", done), bstage("ba", done)),
			`duplicate batch stage "ba"`},
		{"unknown batch entry", batch(func(g *GraphSpec) { g.Batch.Entry = "ghost" },
			bstage("ba", done)), `"ghost" is not a batch stage`},
		{"batch stage without next edges", batch(nil, bstage("ba")),
			`batch stage "ba" has no next edges`},
		{"coin on a batch next edge", batch(nil,
			bstage("ba", EdgeSpec{To: "done", Coin: "c"}, done)), "next edges cannot carry coins"},
		{"batch diverge with next edges", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: 1, Diverge: diverge,
				Next: []EdgeSpec{done}}), "diverge excludes next/fanout edges"},
		{"batch diverge with fan-out edges", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: 1, Diverge: diverge,
				Fanout: []EdgeSpec{{To: "bl"}}},
			bstage("bl", join)), "diverge excludes next/fanout edges"},
		{"coin on a diverge edge", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: 1, Diverge: &DivergeSpec{Coin: "c",
				Hit: EdgeSpec{To: "done", Coin: "c"}, Miss: done}}), "diverge hit edge must be plain"},
		{"async diverge edge", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: 1, Diverge: &DivergeSpec{Coin: "c",
				Hit: done, Miss: EdgeSpec{To: "done", Async: true}}}), "diverge miss edge must be plain"},
		{"conditional batch fan-out edge", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: 1,
				Fanout: []EdgeSpec{{To: "bl", Coin: "c"}}, Next: []EdgeSpec{done}},
			bstage("bl", join)), "fan-out edge must target a stage unconditionally"},
		{"second batch next edge", batch(nil, bstage("ba", done, EdgeSpec{To: "bx"}), bstage("bx", done)),
			`next edge to "done" is unconditional, so the edges after it are never taken`},
		{"diverge on a batch fan-out leg", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: 1,
				Fanout: []EdgeSpec{{To: "bl"}}, Next: []EdgeSpec{done}},
			StageSpec{Name: "bl", Station: "b", DemandMs: 1, Diverge: &DivergeSpec{Coin: "c",
				Hit: EdgeSpec{To: "bj"}, Miss: EdgeSpec{To: "bj"}}},
			bstage("bj", join)), `batch stage "bl": diverge inside a fan-out leg`},
		{"batch cycle", batch(nil, bstage("ba", EdgeSpec{To: "bb"}), bstage("bb", EdgeSpec{To: "ba"})),
			"cycle through batch stage"},
		{"unreachable batch stage", batch(nil, bstage("ba", done), bstage("bx", done)),
			`batch stage "bx" unreachable`},
		{"batch form_after on a fan-out stage", batch(func(g *GraphSpec) {
			g.Stages = []StageSpec{
				{Name: "a", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "leg"}}, Next: []EdgeSpec{done}},
				stage("leg", join),
			}
		}, bstage("ba", done)), "cannot be a fan-out stage"},
		{"negative batch hold", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: 1, HoldMs: -1, Next: []EdgeSpec{done}}),
			"hold -1"},
		{"infinite batch demand", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: math.Inf(1), Next: []EdgeSpec{done}}),
			`batch stage "ba": demand +Inf`},
		{"infinite batch hold", batch(nil,
			StageSpec{Name: "ba", Station: "b", DemandMs: 1, HoldMs: math.Inf(1), Next: []EdgeSpec{done}}),
			`batch stage "ba": hold +Inf`},
		{"hold_ms on a request stage", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{{Name: "a", Station: "s", DemandMs: 1, HoldMs: 1,
				Next: []EdgeSpec{done}}}}, "hold_ms"},
		{"diverge on a request stage", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Coins:  []CoinSpec{{Name: "c", Prob: 0.5}},
			Stages: []StageSpec{{Name: "a", Station: "s", DemandMs: 1, Diverge: diverge}}}, "diverge"},
		{"too many coins", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Coins: func() []CoinSpec {
				out := make([]CoinSpec, 17)
				for i := range out {
					out[i] = CoinSpec{Name: fmt.Sprintf("c%d", i), Prob: 0.5}
				}
				return out
			}(),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "coins"},
		{"NaN net hop", GraphSpec{Name: "g", Entry: "a", Stations: st("s"), NetHopMs: math.NaN(),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done", Hop: true})}}, "net_hop_ms"},
		{"infinite net hop", GraphSpec{Name: "g", Entry: "a", Stations: st("s"), NetHopMs: math.Inf(1),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done", Hop: true})}}, "net_hop_ms"},
		{"negative net hop", GraphSpec{Name: "g", Entry: "a", Stations: st("s"), NetHopMs: -0.1,
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done", Hop: true})}}, "net_hop_ms"},
	} {
		err := tc.spec.Validate()
		if err == nil {
			t.Fatalf("%s: validated clean, want error containing %q", tc.label, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.label, err, tc.want)
		}
	}
	// Rows only a JSON file can express, through LoadGraph.
	const valid = `{"name":"g","entry":"a","stations":[{"name":"s"}],` +
		`"stages":[{"name":"a","station":"s","demand_ms":1,"next":[{"to":"done"}]}]}`
	for _, tc := range []struct{ label, raw, want string }{
		{"misspelt field", strings.Replace(valid, "demand_ms", "demandMs", 1), "unknown field"},
		{"trailing data", valid + ` {}`, "trailing data"},
		{"hold_ms on a request stage", strings.Replace(valid, `"demand_ms":1`, `"demand_ms":1,"hold_ms":1`, 1),
			"hold_ms"},
		{"diverge on a request stage", strings.Replace(valid, `"next":[{"to":"done"}]`,
			`"diverge":{"coin":"c","hit":{"to":"done"},"miss":{"to":"done"}}`, 1), "diverge"},
	} {
		path := filepath.Join(t.TempDir(), "g.json")
		if err := os.WriteFile(path, []byte(tc.raw), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadGraph(path)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: LoadGraph error %v, want one containing %q", tc.label, err, tc.want)
		}
	}
	if _, err := decodeGraph([]byte(valid)); err != nil {
		t.Fatalf("the well-formed base spec failed to load: %v", err)
	}
}

// TestBuiltinGraphsValidate: every bundled spec validates and runs
// end-to-end in CPU and RPU modes with request conservation.
func TestBuiltinGraphsValidate(t *testing.T) {
	for _, name := range GraphNames() {
		spec, err := GraphByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rpu := range []bool{false, true} {
			c := DefaultConfig()
			c.QPS = 5000
			c.Seconds = 1
			c.Warmup = 0.25
			c.Drain = 5
			c.Seed = 7
			c.RPU = rpu
			c.Split = rpu
			m := mustTail(t, TailConfig{Config: c, Scale: 1, Graph: spec})
			label := fmt.Sprintf("%s/rpu=%v", name, rpu)
			checkConservation(t, m, label)
			if rpu && m.Batches == 0 {
				t.Fatalf("%s: RPU run formed no batches", label)
			}
		}
	}
	if _, err := GraphByName("nope"); err == nil {
		t.Fatal("unknown graph name resolved")
	}
}

// fixedDemands marks every request and batch stage of g Fixed: no
// jitter and no RPU latency multiplier, so a request that never queues
// takes exactly the sum of its path's demands and hops.
func fixedDemands(g *GraphSpec) *GraphSpec {
	for i := range g.Stages {
		g.Stages[i].Fixed = true
	}
	for i := range g.Batch.Stages {
		g.Batch.Stages[i].Fixed = true
	}
	return g
}

// stageDemands maps each request stage of g to its DemandMs.
func stageDemands(g *GraphSpec) map[string]float64 {
	d := map[string]float64{}
	for _, st := range g.Stages {
		d[st.Name] = st.DemandMs
	}
	return d
}

// closedFormModes are the Figure 22 systems with batches of one, so an
// RPU request launches the moment it leaves the web tier and the batch
// path adds no formation wait.
var closedFormModes = []struct {
	label      string
	rpu, split bool
}{{"cpu", false, false}, {"rpu-nosplit", true, false}, {"rpu-split", true, true}}

// checkClosedForm asserts that every latency sample equals want, up to
// the rounding of event times accumulated on the simulated clock.
func checkClosedForm(t *testing.T, m *TailMetrics, want float64, label string) {
	t.Helper()
	checkConservation(t, m, label)
	lo, hi := m.Latency.Percentile(0), m.Latency.Percentile(100)
	if math.Abs(lo-want) > 1e-9 || math.Abs(hi-want) > 1e-9 {
		t.Fatalf("%s: latency spans [%.12f, %.12f] ms, closed form %.12f ms", label, lo, hi, want)
	}
}

// TestSocialClosedForm: far under capacity with fixed demands, every
// social-graph request takes exactly its path time — web, user phase 1,
// mcrouter, memcached, user phase 2 and four hops, plus the storage
// round trip on a miss — in every mode, split or not. With the default
// jittered demands the CPU mean lands on the hit-rate-weighted path
// time (3.035 ms at the defaults).
func TestSocialClosedForm(t *testing.T) {
	spec := SocialGraph()
	demand := stageDemands(spec)
	hit := demand["web"] + demand["user1"] + demand["mcrouter"] + demand["memcached"] +
		demand["user2"] + 4*spec.NetHopMs
	for _, mode := range closedFormModes {
		for _, hitRate := range []float64{1, 0} {
			c := DefaultConfig()
			c.QPS = 500
			c.Seconds = 2
			c.Warmup = 0.5
			c.RPU, c.Split = mode.rpu, mode.split
			c.BatchSize = 1
			g := fixedDemands(SocialGraph())
			g.Coins[0].Prob = hitRate
			m := mustTail(t, TailConfig{Config: c, Scale: 1, Graph: g})
			want := hit
			if hitRate == 0 {
				want += demand["storage"]
			}
			checkClosedForm(t, m, want, fmt.Sprintf("%s/hit=%v", mode.label, hitRate))
		}
	}

	c := DefaultConfig()
	c.QPS = 500
	want := hit + (1-spec.Coins[0].Prob)*demand["storage"]
	if mean := runSocial(t, c).Latency.Mean(); math.Abs(mean-want) > 0.01*want {
		t.Fatalf("jittered CPU mean %.4f ms, want %.4f ms ±1%%", mean, want)
	}
}

// TestComposePostClosedForm: far under capacity with fixed demands,
// every compose-post request takes web, the hop to the orchestrator,
// the orchestrator, the slowest fan-out leg (two hops around its
// demand), the storage write and the cache write — the join waits for
// the last leg and nothing else.
func TestComposePostClosedForm(t *testing.T) {
	spec := ComposePostGraph()
	demand := stageDemands(spec)
	hop := spec.NetHopMs
	slowest := math.Max(math.Max(demand["uniq"], demand["urls"]), math.Max(demand["text"], demand["tags"]))
	for _, mode := range closedFormModes {
		if mode.split {
			continue // the compose-post path has no divergence to split
		}
		tc := composePost(500, 2, mode.rpu)
		tc.Warmup = 0.5
		tc.BatchSize = 1
		tc.Graph = fixedDemands(ComposePostGraph())
		want := demand["web"] + hop + demand["orch"] + (hop + slowest + hop) +
			demand["store"] + demand["cache"]
		if mode.rpu {
			// A launched batch enters the orchestrator straight from
			// formation (no entry hop), one hop short of the CPU path.
			want -= hop
		}
		checkClosedForm(t, mustTail(t, tc), want, mode.label)
	}
}

// sampleValues returns a sample's observations in insertion order,
// read back from its GobEncode wire format.
func sampleValues(t *testing.T, s *stats.Sample) []float64 {
	t.Helper()
	enc, err := s.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, (len(enc)-9)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(enc[9+8*i:]))
	}
	return vals
}

// TestPollaczekKhinchineClosedForm: one station, one server, Poisson
// arrivals and no hops is an M/G/1 queue, whose mean sojourn is
// E[T] = E[S] + λE[S²]/(2(1−ρ)). The check runs at ρ = 0.5 and 0.8
// with fixed demands (M/D/1, E[S²] = D²) and with the default ±20 %
// uniform jitter (E[S²] = D²(1 + 0.4²/12)). The tolerance is four
// standard errors from batch means over the measured window, which
// must itself be tight (under 2 % of E[T]) for the check to mean
// anything.
func TestPollaczekKhinchineClosedForm(t *testing.T) {
	const (
		demand  = 1.0 // ms
		batches = 30
	)
	for _, fixed := range []bool{true, false} {
		for _, rho := range []float64{0.5, 0.8} {
			label := fmt.Sprintf("fixed=%v/rho=%v", fixed, rho)
			c := DefaultConfig()
			c.QPS = rho / demand * 1000
			c.Seconds = 300
			c.Warmup = 5
			c.Drain = 1
			c.Cores = 1
			spec := &GraphSpec{Name: "mg1", Entry: "serve",
				Stations: []StationSpec{{Name: "server"}},
				Stages: []StageSpec{{Name: "serve", Station: "server", DemandMs: demand, Fixed: fixed,
					Next: []EdgeSpec{{To: edgeDone}}}}}
			m := mustTail(t, TailConfig{Config: c, Scale: 1, Graph: spec})
			checkConservation(t, m, label)

			es2 := demand * demand
			if !fixed {
				es2 *= 1 + 0.4*0.4/12
			}
			lambda := c.QPS / 1000
			want := demand + lambda*es2/(2*(1-rho))

			vals := sampleValues(t, m.Latency)
			per := len(vals) / batches
			var sum, sumSq float64
			for b := 0; b < batches; b++ {
				bm := 0.0
				for _, v := range vals[b*per : (b+1)*per] {
					bm += v
				}
				bm /= float64(per)
				sum += bm
				sumSq += bm * bm
			}
			mean := sum / batches
			se := math.Sqrt((sumSq/batches - mean*mean) * batches / (batches - 1) / batches)
			if se > 0.02*want {
				t.Fatalf("%s: batch-means standard error %.4f ms is over 2%% of E[T] %.4f ms", label, se, want)
			}
			t.Logf("%s: mean sojourn %.4f ms, Pollaczek-Khinchine %.4f ms, SE %.4f ms", label, mean, want, se)
			if math.Abs(mean-want) > 4*se {
				t.Fatalf("%s: mean sojourn %.4f ms, Pollaczek-Khinchine %.4f ms ± %.4f (4 SE)", label, mean, want, 4*se)
			}
		}
	}
}

// TestGraphScenarios: the three new DSB scenarios behave like
// saturating queueing systems — RPU capacity moves the knee past CPU
// saturation at the calibrated loads.
func TestGraphScenarios(t *testing.T) {
	for _, name := range []string{"hotel", "media", "iot"} {
		spec, err := GraphByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run := func(qps float64, rpu bool) *TailMetrics {
			c := DefaultConfig()
			c.QPS = qps
			c.Seconds = 1
			c.Warmup = 0.25
			c.Drain = 5
			c.Seed = 7
			c.RPU = rpu
			c.Split = rpu
			return mustTail(t, TailConfig{Config: c, Scale: 1, Graph: spec})
		}
		// Low load: both systems keep up; these runs set the baseline
		// p99 for the saturation heuristic.
		low := 4000.0
		cpu, rpuM := run(low, false), run(low, true)
		for label, m := range map[string]*TailMetrics{"cpu": cpu, "rpu": rpuM} {
			if got := float64(m.Completed) / float64(m.Arrived); got < 0.95 {
				t.Fatalf("%s/%s at %.0f qps: completion %.3f < 0.95", name, label, low, got)
			}
		}
		if rpuM.Batches == 0 {
			t.Fatalf("%s: RPU run formed no batches", name)
		}
		// High load: CPU saturates where RPU still keeps up.
		high := 40000.0
		cpuHi, rpuHi := run(high, false), run(high, true)
		if !cpuHi.Saturated(cpu.Latency.Percentile(99)) {
			t.Fatalf("%s/cpu at %.0f qps: p99 %.2f ms (baseline %.2f) — expected CPU saturation",
				name, high, cpuHi.Latency.Percentile(99), cpu.Latency.Percentile(99))
		}
		if rpuHi.Saturated(rpuM.Latency.Percentile(99)) {
			t.Fatalf("%s/rpu at %.0f qps: p99 %.2f ms (baseline %.2f) — RPU should still keep up",
				name, high, rpuHi.Latency.Percentile(99), rpuM.Latency.Percentile(99))
		}
	}
}

// TestGraphJSONRoundTrip: every bundled spec survives JSON marshal →
// LoadGraph (the path syssim -graph file.json takes) and runs a CPU and
// an RPU point to the same metrics as the in-memory original, and so
// does a copy without net_hop_ms, which takes the default wire hop.
func TestGraphJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range GraphNames() {
		spec, err := GraphByName(name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["net_hop_ms"]; !ok {
			t.Fatalf("%s: the bundled spec sets no net_hop_ms", name)
		}
		delete(fields, "net_hop_ms")
		noHop, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		var loaded []*GraphSpec
		for i, form := range [][]byte{raw, noHop} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, i))
			if err := os.WriteFile(path, form, 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := LoadGraph(path)
			if err != nil {
				t.Fatal(err)
			}
			loaded = append(loaded, g)
		}
		for _, rpu := range []bool{false, true} {
			c := DefaultConfig()
			c.QPS = 3000
			c.Seconds = 0.3
			c.Warmup = 0.05
			c.Drain = 3
			c.Seed = 11
			c.RPU, c.Split = rpu, rpu
			want := mustTail(t, TailConfig{Config: c, Scale: 1, Graph: spec})
			for i, g := range loaded {
				if got := mustTail(t, TailConfig{Config: c, Scale: 1, Graph: g}); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s file %d rpu=%v: JSON round trip changed the run:\nmem:  %s\nfile: %s",
						name, i, rpu, goldenLine(want), goldenLine(got))
				}
			}
		}
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadGraph of a missing file succeeded")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","entry":"a"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGraph(bad); err == nil {
		t.Fatal("LoadGraph of an invalid spec succeeded")
	}
}

// TestGraphJSONSchema pins the graph file format: testdata/hotel.json,
// a marshalled HotelGraph (fan-out, a coin, a diverge with hit, miss
// and hold edges, hold_ms, entry_hop and a batch-only stage), loads to
// the bundled spec, and marshalling the spec reproduces the file byte
// for byte.
func TestGraphJSONSchema(t *testing.T) {
	const path = "testdata/hotel.json"
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, HotelGraph()) {
		t.Fatalf("%s loads to a spec other than HotelGraph()", path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(HotelGraph(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("HotelGraph() marshals to bytes other than %s:\n%s", path, got)
	}
}

// TestGraphDeterminism: spec-driven runs are bit-stable and concurrent
// engines (as a sweep driver runs them) do not interfere — run under
// -race in CI alongside the other determinism gates.
func TestGraphDeterminism(t *testing.T) {
	names := GraphNames()
	mk := func(i int) TailConfig {
		c := DefaultConfig()
		c.QPS = 8000
		c.Seconds = 0.6
		c.Warmup = 0.15
		c.Drain = 5
		c.Seed = int64(i + 3)
		c.RPU = i%2 == 1
		c.Split = c.RPU
		spec, err := GraphByName(names[i%len(names)])
		if err != nil {
			t.Fatalf("%s: %v", names[i%len(names)], err)
		}
		return TailConfig{Config: c, Scale: 1, Graph: spec,
			Policy: PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 20}}
	}
	const n = 5
	seq := make([]string, n)
	for i := range seq {
		seq[i] = goldenLine(mustTail(t, mk(i)))
	}
	par := make([]string, n)
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := RunTail(mk(i))
			if err != nil {
				par[i] = err.Error()
				return
			}
			par[i] = goldenLine(m)
		}(i)
	}
	wg.Wait()
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("graph %s: parallel run diverged:\nseq %s\npar %s", names[i%len(names)], seq[i], par[i])
		}
	}
}

// TestGraphKnees pins the Figure 22-style saturation knee of every
// bundled graph, on the CPU system and on the RPU with batch splitting:
// the last load of a shared 12-point grid before the first point that
// Saturated flags against the p99 at the grid's lowest load. The RPU
// sustains 4x (fan-out-heavy hotel and iot, capped by their unoffloaded
// front ends) to 8x (composepost and media) the CPU's load, the
// paper's "requests sustained per machine" result over each graph.
// Each mode's sweep stops at its first saturated point.
func TestGraphKnees(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every graph's load grid up to its knee in two modes")
	}
	loads := []float64{2000, 4000, 8000, 12000, 16000, 24000, 32000,
		48000, 64000, 96000, 128000, 192000}
	// Knee QPS per graph: {cpu, rpu-split}.
	want := map[string][2]float64{
		"social":      {16000, 64000},
		"composepost": {24000, 192000},
		"hotel":       {32000, 128000},
		"media":       {24000, 192000},
		"iot":         {32000, 128000},
	}
	if len(want) != len(GraphNames()) {
		t.Fatalf("knees pinned for %d graphs, %d bundled", len(want), len(GraphNames()))
	}
	for _, name := range GraphNames() {
		for mode, rpu := range []bool{false, true} {
			var base, knee float64
			for j, qps := range loads {
				spec, err := GraphByName(name)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				c := DefaultConfig()
				c.QPS = qps
				c.Seconds = 0.5
				c.Warmup = 0.125
				c.Drain = 5
				c.Seed = 42
				c.RPU = rpu
				c.Split = rpu
				m := mustTail(t, TailConfig{Config: c, Scale: 1, Graph: spec})
				if j == 0 {
					base = m.Latency.Percentile(99)
				}
				if m.Saturated(base) {
					break
				}
				knee = qps
			}
			if knee != want[name][mode] {
				t.Errorf("%s rpu=%v: knee %v QPS, want %v", name, rpu, knee, want[name][mode])
			}
		}
	}
}

// TestFanoutRejectionConservation: queue-cap rejections inside fan-out
// legs abandon the parent try without losing or double-counting the
// logical request — the rejectLeg/legEnd path under real load.
func TestFanoutRejectionConservation(t *testing.T) {
	c := DefaultConfig()
	c.QPS = 25000 // far past the compose-post CPU knee
	c.Seconds = 1
	c.Warmup = 0.25
	c.Drain = 5
	c.Seed = 7
	cfg := TailConfig{Config: c, Scale: 1, Graph: ComposePostGraph(),
		Policy: PolicyConfig{TimeoutMs: 30, MaxRetries: 2, BackoffMs: 1, QueueCap: 50}}
	m := mustTail(t, cfg)
	if m.Rejected == 0 {
		t.Fatal("overloaded fan-out with QueueCap=50 rejected nothing")
	}
	checkConservation(t, m, "fanout-reject")
	// And with hedging layered on top.
	cfg.Policy.HedgeMs = 5
	m = mustTail(t, cfg)
	if m.Hedged == 0 {
		t.Fatal("no hedges under overload")
	}
	checkConservation(t, m, "fanout-reject-hedge")
}

// FuzzGraphSpec: arbitrary bytes either fail to decode or validate
// with an error, or load a spec that runs a 50 ms load point in CPU and
// RPU mode — an error or a result, never a panic. The corpus seeds
// with the bundled graphs and a social graph whose user1 demand
// (1e19 ms) lies past the scheduler's int64 day range.
func FuzzGraphSpec(f *testing.F) {
	for _, name := range GraphNames() {
		g, err := GraphByName(name)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	far := SocialGraph()
	for i := range far.Stages {
		if far.Stages[i].Name == "user1" {
			far.Stages[i].DemandMs = 1e19
		}
	}
	raw, err := json.Marshal(far)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, err := decodeGraph(raw)
		if err != nil {
			return
		}
		for _, rpu := range []bool{false, true} {
			c := DefaultConfig()
			c.QPS = 2000
			c.Seconds = 0.05
			c.Warmup = 0
			c.Drain = 0.05
			c.RPU = rpu
			c.Split = rpu
			m, err := RunTail(TailConfig{Config: c, Scale: 1, Graph: g})
			if err != nil {
				continue
			}
			if m.Completed+m.Failed > m.Arrived {
				t.Fatalf("rpu=%v: %d completed + %d failed of %d arrived", rpu, m.Completed, m.Failed, m.Arrived)
			}
		}
	})
}
