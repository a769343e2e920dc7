package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"simr/internal/alloc"
	"simr/internal/uservices"
)

func TestRunCellsOrderAndBounds(t *testing.T) {
	for _, workers := range []int{1, 3, 4, 100} {
		got, err := RunCells(17, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 17 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
	if out, err := RunCells(0, 4, func(i int) (int, error) { return 0, nil }); err != nil || out != nil {
		t.Fatalf("n=0: got %v, %v", out, err)
	}
}

func TestRunCellsError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		out, err := RunCells(32, workers, func(i int) (int, error) {
			if i == 5 {
				return 0, fmt.Errorf("cell %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: expected nil results on error", workers)
		}
	}
}

// TestRunCellsInterrupt covers the commands' SIGINT/SIGTERM path: an
// installed context that is done aborts RunCells with its error before
// any cell runs, a cancel seen mid-sweep lets no later cell start (at
// most the cells other workers already took may still run), and
// SetInterrupt(nil) restores normal runs.
func TestRunCellsInterrupt(t *testing.T) {
	defer SetInterrupt(nil)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		SetInterrupt(ctx)
		var ran atomic.Int64
		out, err := RunCells(16, workers, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("workers=%d, cancelled before the sweep: got %v, %v", workers, out, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("workers=%d: %d cells ran under a cancelled context", workers, n)
		}

		const n, at = 64, 10
		ctx, cancel = context.WithCancel(context.Background())
		SetInterrupt(ctx)
		var late atomic.Int64
		out, err = RunCells(n, workers, func(i int) (int, error) {
			if ctx.Err() != nil {
				late.Add(1)
			}
			if i == at {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("workers=%d, cancelled at cell %d: got %v, %v", workers, at, out, err)
		}
		// A worker checks the context before taking its cell, so only
		// a cell another worker claimed just before the cancel may
		// start after it.
		if got := late.Load(); got > int64(workers-1) {
			t.Fatalf("workers=%d: %d cells started after the cancel", workers, got)
		}

		SetInterrupt(nil)
		out, err = RunCells(n, workers, func(i int) (int, error) { return i, nil })
		if err != nil || len(out) != n || out[n-1] != n-1 {
			t.Fatalf("workers=%d after SetInterrupt(nil): got %d results, %v", workers, len(out), err)
		}
	}
}

// TestChipStudyParallelDeterminism is the tentpole guarantee: the
// worker-pool sweep renders every figure byte-identically to the
// sequential path for the same seed.
func TestChipStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	render := func(rows []ChipRow) []byte {
		var buf bytes.Buffer
		WriteFig10(&buf, rows)
		WriteFig14(&buf, rows)
		WriteFig19(&buf, rows)
		WriteFig20(&buf, rows)
		WriteFig21(&buf, rows)
		if err := WriteJSON(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, err := ChipStudyParallel(suite, 32, 3, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ChipStudyParallel(suite, 32, 3, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(seq), render(par)) {
		t.Fatal("parallel chip study output differs from sequential")
	}
}

func TestEfficiencyStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq, err := EfficiencyStudyParallel(suite, 64, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := EfficiencyStudyParallel(suite, 64, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row count: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

func TestMPKIStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq, err := MPKIStudyParallel(suite, 32, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MPKIStudyParallel(suite, 32, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel MPKI study differs from sequential")
	}
}

func TestSensitivityStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	var seq, par bytes.Buffer
	if err := SensitivityStudyParallel(&seq, suite, []string{"urlshort", "memc"}, 64, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := SensitivityStudyParallel(&par, suite, []string{"urlshort", "memc"}, 64, 3, 4); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatal("parallel sensitivity report differs from sequential")
	}
}

func TestMultiBatchSweepDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq, err := MultiBatchSweep(suite, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MultiBatchSweep(suite, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel multi-batch sweep differs from sequential")
	}
}

func TestBatchSweepDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 64, 3)
	sizes := []int{32, 8}

	cpuSeq, seq, err := BatchSweep(svc, reqs, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	cpuPar, par, err := BatchSweep(svc, reqs, sizes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cpuSeq, cpuPar) || !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel batch sweep differs from sequential")
	}
	for i, row := range seq {
		if row.Size != sizes[i] || row.Res == nil {
			t.Fatalf("row %d: size %d, res %v", i, row.Size, row.Res)
		}
	}
}

// TestStudyBadInputs: every study that takes a per-service request
// count rejects one below 1, and the sensitivity study rejects an
// unknown service by name, each with an error (never a panic or a
// table of NaN) and before any cell runs.
func TestStudyBadInputs(t *testing.T) {
	suite := uservices.NewSuite()
	type study struct {
		name string
		run  func(requests int) error
	}
	studies := []study{
		{"chip", func(n int) error { _, err := ChipStudyParallel(suite, n, 3, false, 2); return err }},
		{"efficiency", func(n int) error { _, err := EfficiencyStudyParallel(suite, n, 3, 2); return err }},
		{"mpki", func(n int) error { _, err := MPKIStudyParallel(suite, n, 3, 2); return err }},
		{"sensitivity", func(n int) error {
			return SensitivityStudyParallel(io.Discard, suite, []string{"memc"}, n, 3, 2)
		}},
		{"timing", func(n int) error { _, err := TimingSweepParallel(suite, n, 3, 2); return err }},
	}
	type bad struct {
		name, want string
		run        func() error
	}
	var cases []bad
	for _, s := range studies {
		for _, n := range []int{0, -1} {
			cases = append(cases, bad{fmt.Sprintf("%s/requests=%d", s.name, n), "requests", func() error { return s.run(n) }})
		}
	}
	cases = append(cases, bad{"sensitivity/unknown service", `"nosuch"`, func() error {
		return SensitivityStudyParallel(io.Discard, suite, []string{"memc", "nosuch"}, 16, 3, 2)
	}})

	defer func() { sweepBuilt = nil }()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ran := false
			sweepBuilt = func(*sweepCaches) { ran = true }
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				err = c.run()
			}()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want an error naming %s", err, c.want)
			}
			if ran {
				t.Fatal("the study built its sweep before rejecting the input")
			}
		})
	}
}

// TestSweepCachesAbort is the regression test for the error-path leak:
// cells abandoned by RunCells never call done, so without abort a
// failed sweep strands its cache bytes against the shared budget.
func TestSweepCachesAbort(t *testing.T) {
	suite := uservices.NewSuite()
	svcs := []*uservices.Service{suite.Get("memc"), suite.Get("user")}
	sw := newSweepCaches(svcs, 2, true, true)
	for s := range svcs {
		reqs := sw.requests(s, 8, 3)
		sg := alloc.NewStackGroup(0, len(reqs), true)
		for i := range reqs {
			if _, err := sw.cache(s).Request(&reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 32, 8); err != nil {
				t.Fatal(err)
			}
		}
		if sw.cache(s).Stats().Bytes == 0 {
			t.Fatalf("service %d cached nothing", s)
		}
	}
	// One of service 0's two cells finishes before the sweep fails; the
	// other cells are abandoned and never call done.
	sw.done(0)
	sw.abort()
	for s := range svcs {
		if got := sw.cache(s).Stats().Bytes; got != 0 {
			t.Fatalf("service %d still holds %d bytes after abort", s, got)
		}
	}
}
