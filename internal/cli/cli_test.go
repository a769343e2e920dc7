package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"simr/internal/core"
	"simr/internal/obs"
)

// start registers groups on a fresh flag set, parses args and starts
// it.
func start(t *testing.T, groups Group, args ...string) (context.Context, func(), error) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs, groups)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Start()
}

// TestRegisterOnlyRequestedGroups pins each group's flag names, so a
// command registers exactly the flags it honours.
func TestRegisterOnlyRequestedGroups(t *testing.T) {
	for _, c := range []struct {
		groups Group
		want   string
	}{
		{0, ""},
		{Interrupt, ""},
		{Profile, "cpuprofile memprofile"},
		{Metrics, "metrics trace"},
		{Profile | Metrics | Interrupt, "cpuprofile memprofile metrics trace"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		Register(fs, c.groups)
		var names []string
		fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
		sort.Strings(names)
		if got := strings.Join(names, " "); got != c.want {
			t.Fatalf("groups %b: registered %q, want %q", c.groups, got, c.want)
		}
	}
}

func TestMetricsDisabledByDefault(t *testing.T) {
	_, stop, err := start(t, Metrics)
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
	_, stop, err := start(t, Metrics, "-metrics", mPath, "-trace", tPath)
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

// TestStartErrorReturnsNoopStop pins the documented contract: stop is
// never nil, so a caller that defers it before checking the error must
// not panic even when the profile path is unwritable, and the setup
// Start did before failing (here the interrupt context) is undone.
func TestStartErrorReturnsNoopStop(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "cpu.prof")
	_, stop, err := start(t, Profile|Interrupt, "-cpuprofile", bad)
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
	_, stop, err := start(t, Profile, "-cpuprofile", cpu, "-memprofile", mem)
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

func TestStartEmptyPathsNoop(t *testing.T) {
	ctx, stop, err := start(t, Profile|Metrics)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if ctx.Err() != nil {
		t.Fatal("context done without the Interrupt group")
	}
}

// TestInterruptCancelsSweeps sends the process SIGINT under the
// Interrupt group: the returned context must be done, sweeps must then
// abort with context.Canceled, and after stop they run normally again.
func TestInterruptCancelsSweeps(t *testing.T) {
	ctx, stop, err := start(t, Interrupt)
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
