package queuesim

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"simr/internal/stats"
)

// goldenCell is one load point of a golden grid: the fixture label and
// the configuration that reproduces it.
type goldenCell struct {
	label string
	seed  int64
	cfg   TailConfig
}

// goldenLine renders every TailMetrics field by name, floats in
// shortest round-trip form and the latency sample as the sha256 of its
// GobEncode (a flag byte that is always 0, the count, then every
// observation's bits, in insertion order because nothing has queried a
// percentile of a fresh result), so two runs with equal lines are equal
// under reflect.DeepEqual. Walking the fields by reflection means a field
// added to TailMetrics changes every line until the fixtures carry it.
func goldenLine(m *TailMetrics) string {
	var b strings.Builder
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.Type().Field(i).Name)
		b.WriteByte('=')
		switch f := v.Field(i).Interface().(type) {
		case *stats.Sample:
			enc, err := f.GobEncode()
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&b, "%x", sha256.Sum256(enc))
		default:
			fmt.Fprint(&b, f)
		}
	}
	return b.String()
}

// readGolden loads a fixture: one "label fingerprint" line per cell.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		label, line, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[label] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return want
}

// checkGolden runs every cell and compares the result with its
// fixture line. Under -short only the cells whose seed passes keep
// run; otherwise every fixture line must be covered.
func checkGolden(t *testing.T, path string, cells []goldenCell, keep func(seed int64) bool) {
	t.Helper()
	want := readGolden(t, path)
	ran := 0
	for _, c := range cells {
		if testing.Short() && !keep(c.seed) {
			continue
		}
		w, ok := want[c.label]
		if !ok {
			t.Fatalf("%s: no fixture line for %s", path, c.label)
		}
		m := mustTail(t, c.cfg)
		if got := goldenLine(m); got != w {
			t.Fatalf("%s diverged from %s:\nwant %s\ngot  %s", c.label, path, w, got)
		}
		// Every cell drains fully, so every arrival resolves once.
		if m.Completed+m.Failed != m.Arrived {
			t.Fatalf("%s: %d completed + %d failed of %d arrived", c.label, m.Completed, m.Failed, m.Arrived)
		}
		ran++
	}
	if !testing.Short() && ran != len(want) {
		t.Fatalf("%s holds %d lines, the grid has %d cells", path, len(want), ran)
	}
}

// schedGoldenCells is the scheduler grid: all five bundled graphs ×
// 4 seeds × {poisson, mmpp, closed} × {no policy, timeout+retry+
// hedge+qcap} × {cpu, rpu, rpu-split}, on a small, fast scenario with
// enough load for queueing, hedges and retries.
func schedGoldenCells(t *testing.T) []goldenCell {
	arrivals := []struct {
		label string
		ac    ArrivalConfig
	}{
		{"poisson", ArrivalConfig{Process: ArrPoisson}},
		{"mmpp", ArrivalConfig{Process: ArrMMPP}},
		{"closed", ArrivalConfig{Process: ArrClosed, Users: 150, ThinkMs: 10}},
	}
	policies := []struct {
		label string
		pc    PolicyConfig
	}{
		{"nopol", PolicyConfig{}},
		{"fullpol", PolicyConfig{TimeoutMs: 20, MaxRetries: 2, BackoffMs: 1,
			HedgeMs: 10, QueueCap: 400}},
	}
	modes := []struct {
		label      string
		rpu, split bool
	}{{"cpu", false, false}, {"rpu", true, false}, {"rpu-split", true, true}}
	var cells []goldenCell
	for _, gname := range GraphNames() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, arr := range arrivals {
				for _, pol := range policies {
					for _, mode := range modes {
						c := DefaultConfig()
						c.QPS = 3000
						c.Seconds = 0.3
						c.Warmup = 0.05
						c.Drain = 3
						c.Seed = seed
						c.RPU = mode.rpu
						c.Split = mode.split
						g, err := GraphByName(gname)
						if err != nil {
							t.Fatalf("%s: %v", gname, err)
						}
						cells = append(cells, goldenCell{
							label: fmt.Sprintf("%s/seed%d/%s/%s/%s", gname, seed, arr.label, pol.label, mode.label),
							seed:  seed,
							cfg: TailConfig{Config: c, Scale: 1, Arrivals: arr.ac,
								Policy: pol.pc, Graph: g},
						})
					}
				}
			}
		}
	}
	return cells
}

// socialGoldenCells is the Figure 22 social-network grid: 4 seeds ×
// {poisson, mmpp, closed} × {no policy, timeout+retry+hedge+qcap} ×
// {cpu, rpu-nosplit, rpu-split} at a load that queues, on the default
// graph (a nil Graph runs SocialGraph).
func socialGoldenCells() []goldenCell {
	arrivals := []struct {
		label string
		ac    ArrivalConfig
	}{
		{"poisson", ArrivalConfig{Process: ArrPoisson}},
		{"mmpp", ArrivalConfig{Process: ArrMMPP}},
		{"closed", ArrivalConfig{Process: ArrClosed, Users: 1500, ThinkMs: 10}},
	}
	policies := []struct {
		label string
		pc    PolicyConfig
	}{
		{"nopol", PolicyConfig{}},
		{"fullpol", PolicyConfig{TimeoutMs: 20, MaxRetries: 2, BackoffMs: 0.5,
			HedgeMs: 10, QueueCap: 512}},
	}
	modes := []struct {
		label      string
		rpu, split bool
	}{{"cpu", false, false}, {"rpu-nosplit", true, false}, {"rpu-split", true, true}}
	var cells []goldenCell
	for _, seed := range []int64{1, 7, 13, 42} {
		for _, arr := range arrivals {
			for _, pol := range policies {
				for _, mode := range modes {
					c := DefaultConfig()
					c.QPS = 12000
					c.Seconds = 0.8
					c.Warmup = 0.2
					c.Drain = 5
					c.Seed = seed
					c.RPU = mode.rpu
					c.Split = mode.split
					cells = append(cells, goldenCell{
						label: fmt.Sprintf("social/seed%d/%s/%s/%s", seed, arr.label, pol.label, mode.label),
						seed:  seed,
						cfg:   TailConfig{Config: c, Scale: 1, Arrivals: arr.ac, Policy: pol.pc},
					})
				}
			}
		}
	}
	return cells
}

// The fixtures were written at commit 887e018 by the two oracles this
// package has since dropped: golden_sched.txt by the binary-heap
// scheduler (the calendar queue + timer wheel matched it cell for
// cell), golden_social.txt by the hand-coded social-network dispatch
// (the spec executor matched it). They are frozen: a change that
// moves a line changes simulation output and must say why. The four
// social/seed*/closed/fullpol/cpu lines have since moved once: the
// oracle hedged a first try that the queue cap had rejected inline
// (and freed), resolving some requests twice; those lines broke
// conservation and the rest of both grids did not change.

// TestGoldenSchedulerGrid: every cell of the scheduler grid reproduces
// its frozen fixture line — same events in the same order, same RNG
// stream, same metrics to the last bit.
func TestGoldenSchedulerGrid(t *testing.T) {
	checkGolden(t, "testdata/golden_sched.txt", schedGoldenCells(t),
		func(int64) bool { return true })
}

// TestGoldenSocialGrid: the generic executor walking SocialGraph
// reproduces the frozen output of the hand-coded social dispatch it
// replaced. Under -short only seeds 1 and 7 run.
func TestGoldenSocialGrid(t *testing.T) {
	checkGolden(t, "testdata/golden_social.txt", socialGoldenCells(),
		func(seed int64) bool { return seed == 1 || seed == 7 })
}
