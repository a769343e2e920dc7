package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"simr/internal/core"
	"simr/internal/obs"
	"simr/internal/queuesim"
	"simr/internal/uservices"
)

// start registers the shared flags on a fresh flag set, parses args
// and starts it.
func start(t *testing.T, args ...string) (context.Context, func(), error) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Start()
}

// TestFirstSet: only flags given on the command line count, an
// explicit default among them, and the first is in lexical order.
func TestFirstSet(t *testing.T) {
	for _, c := range []struct {
		args  []string
		names []string
		want  string
	}{
		{nil, []string{"a", "b"}, ""},
		{[]string{"-c", "1"}, []string{"a", "b"}, ""},
		{[]string{"-b", "0"}, []string{"a", "b"}, "b"},
		{[]string{"-c", "1", "-b", "2", "-a", "3"}, []string{"b", "c"}, "b"},
		{[]string{"-a", "3"}, nil, ""},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		for _, name := range []string{"a", "b", "c"} {
			fs.Int(name, 0, "")
		}
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if got := FirstSet(fs, c.names...); got != c.want {
			t.Errorf("args %q, names %q: got %q, want %q", c.args, c.names, got, c.want)
		}
	}
}

// TestNoArgs: a parsed command line with no positional arguments
// passes; one with any fails naming the first, including the value a
// bool flag was given after a space, which ends flag parsing.
func TestNoArgs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-b", "-n", "2"}, ""},
		{[]string{"-b=false", "-n", "2"}, ""},
		{[]string{"extra"}, `"extra"`},
		{[]string{"-b", "false", "-n", "2"}, `"false"`},
		{[]string{"-n", "2", "x", "y"}, `"x"`},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Bool("b", false, "")
		fs.Int("n", 0, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		err := NoArgs(fs)
		if c.want == "" && err != nil {
			t.Errorf("args %q rejected: %v", c.args, err)
		} else if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("args %q: got error %v, want one naming %s", c.args, err, c.want)
		}
	}
}

func TestMetricsDisabledByDefault(t *testing.T) {
	_, stop, err := start(t)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Fatal("hub enabled with neither flag given")
	}
	stop()
}

func TestStartWritesMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	tPath := filepath.Join(dir, "t.json")
	_, stop, err := start(t, "-metrics", mPath, "-trace", tPath)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Enabled() {
		t.Fatal("hub not enabled")
	}
	obs.Default().Scope("s").Counter("c").Add(3)
	obs.Trace().Complete("e", "cat", 0, 0, 1, 2)
	stop()
	if obs.Enabled() {
		t.Fatal("hub still enabled after stop")
	}
	stop() // a second stop must not rewrite or re-disable anything

	var snap struct {
		Scopes []struct {
			Name     string           `json:"name"`
			Counters map[string]int64 `json:"counters"`
		} `json:"scopes"`
	}
	raw, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file invalid: %v", err)
	}
	if len(snap.Scopes) != 1 || snap.Scopes[0].Counters["c"] != 3 {
		t.Fatalf("metrics content wrong: %s", raw)
	}

	var evs []map[string]any
	raw, err = os.ReadFile(tPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &evs); err != nil || len(evs) != 1 {
		t.Fatalf("trace file invalid: %v %s", err, raw)
	}
}

// TestStudyArtifactsWellFormed runs a small chip study and a two-point
// Figure 22 sweep under -metrics and -trace, as chipsim and syssim do,
// and checks both files: a snapshot with named scopes (the chip
// sweep's and every sweep cell's station scopes among them),
// non-negative counters and histograms whose buckets sum to their
// count, and a trace that is a JSON array of events, each with a
// string name, a phase and a numeric timestamp (the shape
// chrome://tracing and Perfetto load).
func TestStudyArtifactsWellFormed(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	tPath := filepath.Join(dir, "t.json")
	_, stop, err := start(t, "-metrics", mPath, "-trace", tPath)
	if err != nil {
		t.Fatal(err)
	}
	_, chipErr := core.ChipStudyParallel(uservices.NewSuite(), 24, 7, false, 0)
	loads := []float64{5000, 10000}
	_, sweepErr := core.RunCells(len(loads), 0, func(i int) (*queuesim.TailMetrics, error) {
		cfg := queuesim.DefaultConfig()
		cfg.QPS = loads[i]
		cfg.Seconds = 0.5
		cfg.Warmup = 0.125
		cfg.Seed = 7
		cfg.Monitor = &queuesim.Monitor{Reg: obs.Default(), Sink: obs.Trace(),
			Label: queuesim.CellLabel("cpu", cfg.QPS), PID: 100 + i, MinDT: 1}
		return queuesim.RunTail(queuesim.TailConfig{Config: cfg, Scale: 1})
	})
	stop()
	if chipErr != nil || sweepErr != nil {
		t.Fatalf("chip study: %v; sweep: %v", chipErr, sweepErr)
	}

	var snap struct {
		Scopes []struct {
			Name       string           `json:"name"`
			Counters   map[string]int64 `json:"counters"`
			Histograms map[string]struct {
				Bounds []float64 `json:"bounds"`
				Counts []int64   `json:"counts"`
				Count  int64     `json:"count"`
			} `json:"histograms"`
		} `json:"scopes"`
	}
	raw, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not a snapshot: %v", err)
	}
	if len(snap.Scopes) == 0 {
		t.Fatal("no scopes recorded")
	}
	scopes := map[string]bool{}
	for _, sc := range snap.Scopes {
		if sc.Name == "" {
			t.Fatal("scope with empty name")
		}
		scopes[sc.Name] = true
		for name, v := range sc.Counters {
			if name == "" || v < 0 {
				t.Errorf("scope %s: counter %q = %d", sc.Name, name, v)
			}
		}
		for name, h := range sc.Histograms {
			if len(h.Counts) != len(h.Bounds)+1 {
				t.Errorf("scope %s: histogram %s has %d counts for %d bounds",
					sc.Name, name, len(h.Counts), len(h.Bounds))
			}
			var total int64
			for i, c := range h.Counts {
				if c < 0 {
					t.Errorf("scope %s: histogram %s bucket %d is %d", sc.Name, name, i, c)
				}
				total += c
			}
			if total != h.Count {
				t.Errorf("scope %s: histogram %s buckets sum to %d, count says %d",
					sc.Name, name, total, h.Count)
			}
		}
	}
	want := []string{"core.prep", "core.runcells"}
	for _, qps := range loads {
		for _, station := range []string{"run", "web", "user", "mcrouter", "memcached", "storage"} {
			want = append(want, queuesim.ScopeName(queuesim.CellLabel("cpu", qps), station))
		}
	}
	for _, name := range want {
		if !scopes[name] {
			t.Errorf("scope %s missing", name)
		}
	}

	var evs []map[string]any
	raw, err = os.ReadFile(tPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("trace file is not a JSON array of events: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace holds no events")
	}
	for i, e := range evs {
		_, name := e["name"].(string)
		ph, _ := e["ph"].(string)
		_, ts := e["ts"].(float64)
		if !name || ph == "" || !ts {
			t.Fatalf("event %d lacks a string name, a phase or a numeric ts: %v", i, e)
		}
	}
}

// TestStartErrorReturnsNoopStop pins the documented contract: stop is
// never nil, so a caller that defers it before checking the error must
// not panic even when the profile path is unwritable, and the setup
// Start did before failing (here the interrupt context) is undone.
func TestStartErrorReturnsNoopStop(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "cpu.prof")
	_, stop, err := start(t, "-cpuprofile", bad)
	if err == nil {
		t.Fatalf("Start with -cpuprofile %q succeeded, want error", bad)
	}
	if stop == nil {
		t.Fatal("Start returned nil stop on error; defer stop() would panic")
	}
	stop() // must be a safe no-op
	if _, err := core.RunCells(2, 1, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatalf("interrupt context left installed after a failed Start: %v", err)
	}
}

func TestStartSuccessWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	_, stop, err := start(t, "-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = make([]byte, 1024)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestStartEmptyPathsNoop: with every flag at its default, Start
// leaves the obs hub off and its context live until stop.
func TestStartEmptyPathsNoop(t *testing.T) {
	ctx, stop, err := start(t)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil || obs.Enabled() {
		t.Fatal("context done or obs hub enabled before any signal or flag")
	}
	stop()
	if ctx.Err() == nil {
		t.Fatal("context still live after stop")
	}
}

// TestInterruptCancelsSweeps sends the process SIGINT after Start: the
// returned context must be done, sweeps must then abort with
// context.Canceled, and after stop they run normally again.
func TestInterruptCancelsSweeps(t *testing.T) {
	ctx, stop, err := start(t)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("context not done 10s after SIGINT")
	}
	cell := func(i int) (int, error) { return i, nil }
	if _, err := core.RunCells(2, 1, cell); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep after SIGINT: err = %v", err)
	}
	stop()
	if _, err := core.RunCells(2, 1, cell); err != nil {
		t.Fatalf("after stop: %v", err)
	}
}
