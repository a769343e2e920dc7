package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readBenchmarkFile reads BENCHMARK.json from the current directory, or from
// its parent when run inside bench/.
func readBenchmarkFile() (*benchmarkFile, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var c benchmarkFile
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// absSlack is an absolute allowance added to a metric's relative bound.
// setup_s is about a millisecond (process start and input set-up), so
// a share of it is far below what a user would notice; a change counts
// against it only beyond 25 % plus 0.05 s.
var absSlack = map[string]float64{"setup_s": 0.05}

// accuracyBound is the absolute bound on an accuracy error, |simulated
// RPU/CPU ratio ÷ the paper's − 1|. The errors are fixed by the seed, so
// any change beyond it is the model's, never the host's.
const accuracyBound = 0.001

// verdict compares one metric's parent and change summaries against its
// tolerance, bound × the median plus slack: "unresolved" when either
// side's interquartile range exceeds its own tolerance, otherwise
// "worse" or "better" when the medians differ by more than the parent's
// tolerance in that direction, and "within bound" when they do not.
func verdict(better string, bound, slack float64, parent, change summary) string {
	tol := func(s summary) float64 { return bound*math.Abs(s.Median) + slack }
	if parent.Median == 0 || parent.Q3-parent.Q1 > tol(parent) || change.Q3-change.Q1 > tol(change) {
		return "unresolved"
	}
	return judge(better, change.Median-parent.Median, tol(parent))
}

// judge classifies a change of delta against a tolerance.
func judge(better string, delta, tol float64) string {
	if better == "higher" {
		delta = -delta
	}
	switch {
	case delta > tol:
		return "worse"
	case delta < -tol:
		return "better"
	default:
		return "within bound"
	}
}

// compare prints, per workload and end-to-end metric, both runs'
// medians and quartiles with a verdict, whether the digests match, and
// a verdict on every accuracy error both runs report.
func compare(parentPath, changePath string, out io.Writer) error {
	c, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	parent, err := readReport(parentPath)
	if err != nil {
		return err
	}
	change, err := readReport(changePath)
	if err != nil {
		return err
	}
	changed := map[string]*workloadReport{}
	for i := range change.Workloads {
		changed[change.Workloads[i].Name] = &change.Workloads[i]
	}
	for i := range parent.Workloads {
		p := &parent.Workloads[i]
		ch, ok := changed[p.Name]
		if !ok {
			fmt.Fprintf(out, "%s: missing from %s\n", p.Name, changePath)
			continue
		}
		digests := "digests match"
		if p.Digest != ch.Digest {
			digests = "DIGESTS DIFFER: simulated output changed"
		}
		fmt.Fprintf(out, "%s: %s\n", p.Name, digests)
		for _, m := range c.EndToEnd {
			ps, cs := p.Metrics[m.Name], ch.Metrics[m.Name]
			slack := absSlack[m.Name]
			fmt.Fprintf(out, "  %-14s parent %-12.6g [%.6g, %.6g]  change %-12.6g [%.6g, %.6g] %-4s  %s (bound %g",
				m.Name, ps.Median, ps.Q1, ps.Q3, cs.Median, cs.Q1, cs.Q3, m.Unit,
				verdict(m.Better, m.Bound, slack, ps, cs), m.Bound)
			if slack > 0 {
				fmt.Fprintf(out, " + %g %s", slack, m.Unit)
			}
			fmt.Fprintln(out, ")")
		}
		compareAccuracy(out, false, p.Sim, ch.Sim)
	}
	if parent.Probes != nil && change.Probes != nil {
		fmt.Fprintln(out, "probes:")
		compareAccuracy(out, true, parent.Probes.Layers, change.Probes.Layers)
	}
	return nil
}

// compareAccuracy prints a verdict on every accuracy error, of the
// probes' or of a workload's, that both runs report.
func compareAccuracy(out io.Writer, probes bool, parent, change map[string]float64) {
	for _, d := range perLayer {
		if d.probe != probes || !strings.HasPrefix(d.name, "accuracy.") || !strings.HasSuffix(d.name, "_err") {
			continue
		}
		p, okP := parent[d.name]
		c, okC := change[d.name]
		if !okP || !okC {
			continue
		}
		fmt.Fprintf(out, "  %-30s parent %-12.6g change %-12.6g  %s (bound %g absolute)\n",
			d.name, p, c, judge(d.better, c-p, accuracyBound), accuracyBound)
	}
}
