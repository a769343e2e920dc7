package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process:
// the parent re-executes os.Executable, which under go test is this
// binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// strictDecode decodes raw into v, rejecting fields v does not declare.
func strictDecode(t *testing.T, raw []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the limits it must
// meet and against the metric and workload tables this package reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	strictDecode(t, raw, &keys)
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("unexpected key %q", k)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	strictDecode(t, raw, &b)

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(b.Workloads))
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	checkMetric := func(name, unit, better string, want metricDef) {
		checkName(name)
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %s", name, unit, unitRE)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
		if name != want.name || unit != want.unit || better != want.better {
			t.Errorf("BENCHMARK.json has %s %s %s where the package reports %s %s %s",
				name, unit, better, want.name, want.unit, want.better)
		}
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the package", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the package reports %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		checkMetric(m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range b.PerLayer {
		checkMetric(m.Name, m.Unit, m.Better, perLayer[i])
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound")
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	for _, arg := range b.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

// resultLineOf parses the last line of a run's standard output.
func resultLineOf(t *testing.T, stdout string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return line
}

// TestQuickRuns runs every workload twice at the quick sizing with
// tracing on. Every declared metric must be emitted with its unit, the
// two runs must agree on digests and on every simulated per-layer value,
// and the spans must nest.
func TestQuickRuns(t *testing.T) {
	dir := t.TempDir()
	var reps [2]*report
	var outs [2]string
	for i := range reps {
		o := options{workloads: workloads, seed: 42, reps: 1, trace: true, quick: true,
			out:   filepath.Join(dir, fmt.Sprintf("run%d.json", i)),
			spans: filepath.Join(dir, fmt.Sprintf("spans%d.json", i))}
		var stdout, stderr bytes.Buffer
		if code := execute(o, &stdout, &stderr); code != 0 {
			t.Fatalf("run %d exited %d:\n%s\n%s", i, code, stdout.String(), stderr.String())
		}
		r, err := readReport(o.out)
		if err != nil {
			t.Fatal(err)
		}
		reps[i], outs[i] = r, stdout.String()
	}

	traced := resultLineOf(t, outs[0])
	untraced := newResultLine(reps[0], false)
	for _, w := range workloads {
		for _, d := range endToEnd {
			got, ok := untraced.Metrics[w.name+"/"+d.name]
			if !ok || got.Unit != d.unit || got.Value <= 0 {
				t.Errorf("%s %s: got %+v, want a positive value in %s", w.name, d.name, got, d.unit)
			}
		}
	}
	// Workload metrics carry their workload's prefix; the probes' are
	// measured once and carry none.
	for _, d := range perLayer {
		names := []string{d.name}
		if !d.probe {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name+"/"+d.name)
			}
		}
		for _, name := range names {
			got, ok := traced.Metrics[name]
			if !ok || got.Unit != d.unit {
				t.Errorf("%s: got %+v, want unit %s", name, got, d.unit)
			}
			// Every probe host time is measured; unattributed time is
			// a difference of two.
			if d.probe && d.unit == "ns" && d.name != "core.unattributed_ns" && got.Value <= 0 {
				t.Errorf("%s: host time %v, want > 0", name, got.Value)
			}
		}
	}
	if len(traced.Metrics) != len(workloads)*(len(perLayer)-probeCount())+probeCount() {
		t.Errorf("result line has %d metrics", len(traced.Metrics))
	}
	if !traced.Correct || traced.Failed != 0 || traced.Attempted == 0 {
		t.Errorf("result line %+v, want correct with no failed ops", traced)
	}

	for i, a := range reps[0].Workloads {
		b := reps[1].Workloads[i]
		if !a.DigestsMatch || a.Digest != b.Digest {
			t.Errorf("%s: digests %s and %s (match within run: %v)", a.Name, a.Digest, b.Digest, a.DigestsMatch)
		}
		for _, d := range perLayer {
			if d.sim && !d.probe && a.Layers[d.name] != b.Layers[d.name] {
				t.Errorf("%s %s: simulated value %v then %v", a.Name, d.name, a.Layers[d.name], b.Layers[d.name])
			}
		}
	}
	for _, d := range perLayer {
		a, b := reps[0].Probes.Layers[d.name], reps[1].Probes.Layers[d.name]
		if d.sim && d.probe && a != b {
			t.Errorf("probes %s: simulated value %v then %v", d.name, a, b)
		}
	}
	if fig19 := reps[0].Workloads[0]; fig19.Sim["accuracy.reqj_x_err"] == 0 {
		t.Errorf("%s reports no accuracy error: %v", fig19.Name, fig19.Sim)
	}

	var cmp bytes.Buffer
	if err := compare(filepath.Join(dir, "run0.json"), filepath.Join(dir, "run1.json"), &cmp); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(cmp.String(), "digests match"); n != len(workloads) {
		t.Errorf("compare reported %d matching digests, want %d:\n%s", n, len(workloads), cmp.String())
	}
	// chip-fig19's two errors and the probes' two held-out ones.
	if n := strings.Count(cmp.String(), "_err "); n != 4 || strings.Count(cmp.String(), "within bound (bound 0.001 absolute)") != 4 {
		t.Errorf("compare judged %d accuracy errors, want 4 within bound:\n%s", n, cmp.String())
	}

	checkSpans(t, filepath.Join(dir, "spans0.json"))
}

// checkSpans verifies that every span lies inside its parent and has a
// non-negative self time, and that the layer calls were recorded.
func checkSpans(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sets []spanSet
	if err := json.Unmarshal(raw, &sets); err != nil {
		t.Fatal(err)
	}
	if len(sets) != len(workloads)+1 {
		t.Fatalf("%d span sets, want %d", len(sets), len(workloads)+1)
	}
	for i, set := range sets {
		names := map[string]bool{}
		for _, s := range set.Spans {
			names[s.Name] = true
			if s.End < s.Start || s.Self < 0 {
				t.Errorf("%s: span %+v has negative duration or self time", set.Set, s)
			}
			if s.Parent < 0 {
				continue
			}
			p := set.Spans[s.Parent]
			if s.Parent >= s.ID || s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %+v not inside parent %+v", set.Set, s, p)
			}
		}
		want := []string{"phaseA", "measured"}
		if i == len(workloads) {
			want = []string{"phaseB", "uservices.generate", "batch.form", "isa.interp", "simt.merge",
				"core.cold", "core.warm", "core.chipstudy", "queuesim.hold", "queuesim.timer", "stats.percentile"}
		}
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: no %s span", set.Set, n)
			}
		}
	}
}

func probeCount() int {
	n := 0
	for _, d := range perLayer {
		if d.probe {
			n++
		}
	}
	return n
}

// TestInjectedFailure checks that a failed op check is counted and makes
// the run exit non-zero.
func TestInjectedFailure(t *testing.T) {
	w, _ := lookupWorkload("chip-fig19")
	o := options{workloads: []workload{w}, seed: 42, reps: 1, quick: true, failOp: true}
	var stdout, stderr bytes.Buffer
	if code := execute(o, &stdout, &stderr); code == 0 {
		t.Fatalf("exit code 0 with an injected failure:\n%s", stdout.String())
	}
	line := resultLineOf(t, stdout.String())
	if line.Correct || line.Failed == 0 {
		t.Errorf("result line %+v, want failed ops and correct=false", line)
	}
}

// TestQuartiles pins the quartile definition to Python's
// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestVerdict(t *testing.T) {
	base := summary{Median: 1, Q1: 0.99, Q3: 1.01}
	setup := summary{Median: 0.001, Q1: 0.0009, Q3: 0.0012}
	for _, c := range []struct {
		better         string
		slack          float64
		parent, change summary
		want           string
	}{
		{"lower", 0, base, summary{Median: 1.05, Q1: 1.04, Q3: 1.06}, "within bound"},
		{"lower", 0, base, summary{Median: 1.2, Q1: 1.19, Q3: 1.21}, "worse"},
		{"lower", 0, base, summary{Median: 0.8, Q1: 0.79, Q3: 0.81}, "better"},
		{"higher", 0, base, summary{Median: 0.8, Q1: 0.79, Q3: 0.81}, "worse"},
		{"lower", 0, base, summary{Median: 1, Q1: 0.8, Q3: 1.2}, "unresolved"},
		// setup_s: 25 % plus 0.05 s.
		{"lower", 0.05, setup, summary{Median: 0.03, Q1: 0.02, Q3: 0.04}, "within bound"},
		{"lower", 0.05, setup, summary{Median: 0.06, Q1: 0.055, Q3: 0.065}, "worse"},
	} {
		if got := verdict(c.better, 0.1, c.slack, c.parent, c.change); got != c.want {
			t.Errorf("verdict(%s, %+v) = %q, want %q", c.better, c.change, got, c.want)
		}
	}
	// Accuracy errors: a seed-fixed value against an absolute bound.
	for _, c := range []struct {
		delta float64
		want  string
	}{{0.0005, "within bound"}, {0.002, "worse"}, {-0.002, "better"}} {
		if got := judge("lower", c.delta, accuracyBound); got != c.want {
			t.Errorf("judge(lower, %v, %v) = %q, want %q", c.delta, accuracyBound, got, c.want)
		}
	}
}
