package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// summary describes one metric's samples over a workload's reps.
// Quartiles follow Python's statistics.quantiles(n=4) (the exclusive
// method), so spreads computed here match ones computed from the -out
// samples in Python.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sm := summary{Unit: unit, N: len(s), Samples: xs}
	if len(s) == 0 {
		return sm
	}
	sm.Median = median(s)
	sm.Q1, sm.Q3 = quartiles(s)
	sm.Min, sm.Max = s[0], s[len(s)-1]
	return sm
}

// median of sorted, non-empty xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles of sorted, non-empty xs by the exclusive method.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := m - 4*j
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// workloadReport is one workload's measurement.
type workloadReport struct {
	Name      string `json:"name"`
	Reps      int    `json:"reps"`
	Ops       int    `json:"ops"`
	OpsFailed int    `json:"ops_failed"`
	// Digest hashes the rendered simulated output of the first rep;
	// DigestsMatch reports whether every rep (the traced one included)
	// rendered the same output.
	Digest       string             `json:"digest"`
	DigestsMatch bool               `json:"digests_match"`
	Metrics      map[string]summary `json:"metrics"`
	// Sim holds the first rep's per-layer values fixed by the seed, the
	// accuracy errors among them; the digest covers every rep's.
	Sim    map[string]float64 `json:"sim,omitempty"`
	Layers map[string]float64 `json:"per_layer,omitempty"`
	Errors []string           `json:"errors,omitempty"`
	spans  []span
}

func (w *workloadReport) correct() bool {
	return w.OpsFailed == 0 && w.DigestsMatch && len(w.Errors) == 0
}

// probeReport is a traced run's one Phase B child.
type probeReport struct {
	Ops       int                `json:"ops"`
	OpsFailed int                `json:"ops_failed"`
	Wall      float64            `json:"wall_s"`
	Layers    map[string]float64 `json:"per_layer"`
	Errors    []string           `json:"errors,omitempty"`
	spans     []span
}

// host records what the numbers were measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if h.Commit != "unknown" {
			h.Commit += dirty
		}
	}
	return h
}

// report is the -out file: every workload's samples, summaries,
// digests and, for a traced run, per-layer metrics.
type report struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick"`
	MinReps   int              `json:"min_reps"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
	Probes    *probeReport     `json:"probes,omitempty"`
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// valueUnit is one metric of the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: end-to-end medians,
// or with tracing every per-layer metric. With several workloads each
// workload's metric is prefixed by its name; the probes' are not.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// newResultLine reduces a run to its result line; traced selects the
// per-layer metrics of a traced run.
func newResultLine(rep *report, traced bool) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	ws := rep.Workloads
	for _, w := range ws {
		line.Correct = line.Correct && w.correct()
		line.Attempted += w.Ops
		line.Failed += w.OpsFailed
		prefix := ""
		if len(ws) > 1 {
			prefix = w.Name + "/"
		}
		if traced {
			for _, d := range perLayer {
				if !d.probe {
					line.Metrics[prefix+d.name] = valueUnit{w.Layers[d.name], d.unit}
				}
			}
			continue
		}
		for _, d := range endToEnd {
			line.Metrics[prefix+d.name] = valueUnit{w.Metrics[d.name].Median, d.unit}
		}
	}
	if p := rep.Probes; p != nil {
		line.Correct = line.Correct && p.OpsFailed == 0 && len(p.Errors) == 0
		line.Attempted += p.Ops
		line.Failed += p.OpsFailed
		for _, d := range perLayer {
			if d.probe && traced {
				line.Metrics[d.name] = valueUnit{p.Layers[d.name], d.unit}
			}
		}
	}
	return line
}

// printWorkload writes a workload's human-readable summary.
func printWorkload(out io.Writer, w *workloadReport) {
	same := "identical across reps"
	if !w.DigestsMatch {
		same = "DIFFERS across reps"
	}
	fmt.Fprintf(out, "%s: %d reps, ops %d, ops_failed %d, digest %.16s (%s)\n",
		w.Name, w.Reps, w.Ops, w.OpsFailed, w.Digest, same)
	for _, e := range w.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	for _, ds := range [][]metricDef{endToEnd, hostTimes} {
		for _, d := range ds {
			s := w.Metrics[d.name]
			fmt.Fprintf(out, "  %-15s %12.6g %-5s q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g n %d\n",
				d.name, s.Median, d.unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
	}
	if w.Layers == nil {
		return
	}
	for _, d := range perLayer {
		if !d.probe {
			fmt.Fprintf(out, "  %-38s %16.6g %s\n", d.name, w.Layers[d.name], d.unit)
		}
	}
}

// printProbes writes the Phase B probes' human-readable summary.
func printProbes(out io.Writer, p *probeReport) {
	fmt.Fprintf(out, "probes: %.3g s, ops %d, ops_failed %d\n", p.Wall, p.Ops, p.OpsFailed)
	for _, e := range p.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	for _, d := range perLayer {
		if d.probe {
			fmt.Fprintf(out, "  %-38s %16.6g %s\n", d.name, p.Layers[d.name], d.unit)
		}
	}
}
