// Command bench is the repository's benchmark: five named workloads
// across the chip simulator and the queuesim tail engine, each run in a
// fresh child process per rep, with host-time, allocation and set-up
// metrics, output digests and correctness checks, a traced per-layer
// split, and a comparison of two recorded runs. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME] [-seed 42] [-reps 3] [-seconds S] [-out bench.json]
//	bash bench/run.sh -trace 1 [-spans .bench_build/spans.json]
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parent's settings.
type options struct {
	workloads []workload
	seed      int64
	reps      int     // minimum reps per workload
	seconds   float64 // time box per workload; more reps run while they fit
	trace     bool
	spans     string
	out       string
	quick     bool
	// failOp makes every child fail one op's check (tests only).
	failOp bool
}

// run parses the command line and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 42, "workload seed")
	reps := fs.Int("reps", 3, "minimum reps per workload, each in a fresh child process")
	seconds := fs.Float64("seconds", 0, "keep starting reps while one more fits in this many seconds per workload")
	trace := fs.Int("trace", 0, "1 adds a traced rep per workload and one probe run, and reports per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans.json"), "where a traced run writes its spans")
	out := fs.String("out", "", "write every sample, summary, seed-fixed value and digest to this JSON file")
	quickSize := fs.Bool("quick", false, "run the small sizing the package tests use")
	cmp := fs.Bool("compare", false, "compare two -out files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare parent.json change.json")
			return 2
		}
		if err := compare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	o := options{workloads: workloads, seed: *seed, reps: *reps, seconds: *seconds,
		trace: *trace == 1, spans: *spans, out: *out, quick: *quickSize}
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		o.workloads = []workload{w}
	}
	return execute(o, stdout, stderr)
}

// execute measures every selected workload, prints the summaries and the
// result line, writes the requested files and returns the exit code:
// non-zero when any op failed or any output differed between reps.
func execute(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep := report{Host: thisHost(), Seed: o.seed, Quick: o.quick, MinReps: o.reps,
		Seconds: o.seconds, Traced: o.trace}
	clock := newRefClock(o.quick)
	for _, w := range o.workloads {
		wr := measureWorkload(exe, o, w, clock, stderr)
		printWorkload(stdout, &wr)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if o.trace {
		rep.Probes = runProbes(exe, o, stderr)
		printProbes(stdout, rep.Probes)
	}
	h := rep.Host
	fmt.Fprintf(stdout, "host: nproc %d, gomaxprocs %d, %s, %s/%s, commit %s\n",
		h.NProc, h.GOMAXPROCS, h.Go, h.OS, h.Arch, h.Commit)
	if o.trace {
		if err := writeSpans(o.spans, &rep); err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeJSONFile(o.out, rep); err != nil {
			fmt.Fprintln(stderr, "bench: writing report:", err)
			return 1
		}
	}
	line := newResultLine(&rep, o.trace)
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !line.Correct {
		return 1
	}
	return 0
}

// measureWorkload runs the workload's reps, each in a fresh child
// process and one after another: at least o.reps, then more while
// another rep at the slowest pace seen still fits in o.seconds (half of
// it when a traced run follows). The traced run is one more child.
// clock times the reference loop around every rep (see ref.go).
func measureWorkload(exe string, o options, w workload, clock *refClock, stderr io.Writer) workloadReport {
	wr := workloadReport{Name: w.name, DigestsMatch: true, Metrics: map[string]summary{}}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10)}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.failOp {
		args = append(args, "-fail-op")
	}
	// A quick-sized rep first warms the host: the freshly built binary
	// and its page cache. Its checks count; its timings and digest do not.
	if rec, _, err := spawn(exe, append(args, "-quick"), stderr); err != nil {
		wr.fail(err.Error())
	} else {
		wr.addChecks(rec)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	samples := map[string][]float64{}
	start := time.Now()
	var slowest time.Duration
	clock.start()
	for i := 0; i < o.reps || time.Since(start)+slowest <= budget; i++ {
		t0 := time.Now()
		rec, setup, err := spawn(exe, args, stderr)
		ref := clock.next()
		slowest = max(slowest, time.Since(t0))
		if err != nil {
			wr.fail(err.Error())
			break
		}
		wr.addRep(rec)
		wr.Reps++
		samples["wall_ref"] = append(samples["wall_ref"], rec.Wall/ref)
		samples["sim_req_per_ref"] = append(samples["sim_req_per_ref"], rec.SimReqs*ref/rec.Wall)
		samples["setup_s"] = append(samples["setup_s"], setup)
		samples["alloc_mb"] = append(samples["alloc_mb"], rec.AllocMB)
		samples["wall_s"] = append(samples["wall_s"], rec.Wall)
		samples["ref_s"] = append(samples["ref_s"], ref)
		samples["sim_req_per_s"] = append(samples["sim_req_per_s"], rec.SimReqs/rec.Wall)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], rec.PeakRSSMB)
		samples["gc_cycles"] = append(samples["gc_cycles"], rec.GCCycles)
		samples["gc_cpu_s"] = append(samples["gc_cpu_s"], rec.GCCPU)
	}
	for _, ds := range [][]metricDef{endToEnd, hostTimes} {
		for _, d := range ds {
			wr.Metrics[d.name] = summarize(d.unit, samples[d.name])
		}
	}
	if !o.trace {
		return wr
	}
	rec, _, err := spawn(exe, append(args, "-traced"), stderr)
	ref := clock.next()
	if err != nil {
		wr.fail("traced run: " + err.Error())
		return wr
	}
	wr.addRep(rec)
	wr.Layers = rec.Layers
	wr.spans = rec.Spans
	if wr.Layers == nil {
		wr.Layers = map[string]float64{}
	}
	for _, name := range []string{"wall_s", "ref_s"} {
		wr.Layers["bench."+name] = wr.Metrics[name].Median
	}
	for _, name := range []string{"peak_rss_mb", "gc_cycles", "gc_cpu_s"} {
		wr.Layers["runtime."+name] = summarize("", samples[name]).Median
	}
	if m := wr.Metrics["wall_ref"].Median; m > 0 {
		wr.Layers["bench.trace_overhead_pct"] = 100 * (rec.Wall/ref - m) / m
	}
	return wr
}

// runProbes runs the Phase B probes once, in a child of their own.
func runProbes(exe string, o options, stderr io.Writer) *probeReport {
	args := []string{"-probes", "-seed", strconv.FormatInt(o.seed, 10)}
	if o.quick {
		args = append(args, "-quick")
	}
	p := &probeReport{Ops: 1}
	rec, _, err := spawn(exe, args, stderr)
	switch {
	case err != nil:
		p.OpsFailed, p.Errors = 1, []string{err.Error()}
	case rec.Error != "":
		p.OpsFailed, p.Errors = rec.Failed, []string{rec.Error}
	}
	p.Layers, p.Wall, p.spans = rec.Layers, rec.Wall, rec.Spans
	return p
}

// fail records an op that failed without a result.
func (w *workloadReport) fail(msg string) {
	w.Errors = append(w.Errors, msg)
	w.Ops++
	w.OpsFailed++
}

// addChecks folds one rep's ops and checks into the report.
func (w *workloadReport) addChecks(rec repRecord) {
	w.Ops += rec.Ops
	w.OpsFailed += rec.Failed
	if rec.Error != "" {
		w.Errors = append(w.Errors, rec.Error)
	}
}

// addRep folds one rep's ops, checks and digest into the report. A rep
// whose output differs from the first rep's fails all of its ops.
func (w *workloadReport) addRep(rec repRecord) {
	w.addChecks(rec)
	if rec.Error != "" {
		return
	}
	if w.Digest == "" {
		w.Digest, w.Sim = rec.Digest, rec.Sim
		return
	}
	if rec.Digest != w.Digest {
		w.DigestsMatch = false
		w.OpsFailed += rec.Ops - rec.Failed
	}
}

// spawn runs one child rep and returns its record and its set-up time:
// from starting the process to the child's ready line, which it prints
// just before the measured call.
func spawn(exe string, args []string, stderr io.Writer) (repRecord, float64, error) {
	var rec repRecord
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return rec, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return rec, 0, err
	}
	var setup float64
	var last []byte
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 256<<20)
	for sc.Scan() {
		if setup == 0 && sc.Text() == readyLine {
			setup = time.Since(t0).Seconds()
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return rec, 0, fmt.Errorf("child %v: %w", args, err)
	}
	if scanErr != nil {
		return rec, 0, scanErr
	}
	if setup == 0 || len(last) == 0 {
		return rec, 0, errors.New("child printed no result")
	}
	if err := json.Unmarshal(last, &rec); err != nil {
		return rec, 0, fmt.Errorf("child result: %w", err)
	}
	return rec, setup, nil
}

// spanSet is one child's spans in the spans file: a workload's traced
// rep (Phase A), or the probes (Phase B) under the name "probes".
type spanSet struct {
	Set   string `json:"set"`
	Spans []span `json:"spans"`
}

// writeSpans writes the traced run's spans to path.
func writeSpans(path string, rep *report) error {
	var sets []spanSet
	for _, w := range rep.Workloads {
		sets = append(sets, spanSet{w.Name, w.spans})
	}
	sets = append(sets, spanSet{"probes", rep.Probes.spans})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeJSONFile(path, sets)
}
