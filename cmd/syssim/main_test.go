package main

import (
	"bytes"
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

// plan parses args as syssim's command line and plans the sweep.
func plan(t *testing.T, args ...string) (*table, []float64, error) {
	t.Helper()
	fs := flag.NewFlagSet("syssim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o.plan(fs)
}

// TestFlagRules checks accepted command lines (want is a substring of
// the chosen table's first title line) and rejected ones (want is a
// substring of the error).
func TestFlagRules(t *testing.T) {
	const fig22, compose, analog = "Figure 22: end-to-end", "Compose-post path", "Figure 22 analog at 100x"
	accepted := []struct {
		args []string
		want string
	}{
		{nil, fig22},
		{[]string{"-seconds", "1", "-max", "100", "-points", "2", "-seed", "3", "-parallel", "2"}, fig22},
		{[]string{"-composepost"}, compose},
		{[]string{"-composepost", "-seconds", "1", "-max", "100", "-points", "2", "-seed", "3"}, compose},
		{[]string{"-tail"}, analog},
		{[]string{"-tail", "-scale", "2", "-arrivals", "closed", "-users", "10", "-think", "50",
			"-timeout", "5", "-retries", "1", "-backoff", "2", "-hedge", "3", "-qcap", "9", "-drain", "1"},
			"Figure 22 analog at 2x scale (tail-at-scale engine, closed arrivals)"},
		{[]string{"-graph", "hotel"}, `Service graph "hotel" at 100x`},
		{[]string{"-graph", "iot", "-arrivals", "mmpp", "-scale", "3"}, `Service graph "iot" at 3x scale (tail-at-scale engine, mmpp arrivals)`},
	}
	for _, c := range accepted {
		tab, _, err := plan(t, c.args...)
		if err != nil {
			t.Errorf("%q rejected: %v", c.args, err)
		} else if !strings.Contains(tab.title[0], c.want) {
			t.Errorf("%q: title %q, want one containing %q", c.args, tab.title[0], c.want)
		}
	}

	const notTail, both = "applies only to the tail table", "takes neither -tail nor -graph"
	rejected := []struct {
		args []string
		want string
	}{
		{[]string{"-composepost", "-tail"}, both},
		{[]string{"-composepost", "-graph", "hotel"}, both},
		{[]string{"-composepost", "-scale", "2"}, "-scale " + notTail},
		{[]string{"-timeout", "5", "-scale", "7", "-arrivals", "closed"}, "-arrivals " + notTail},
		{[]string{"-graph", "nosuch"}, "unknown graph"},
		{[]string{"-tail", "-arrivals", "bursty"}, "unknown arrival process"},
		{[]string{"-points", "0"}, "-points 0"},
		{[]string{"-tail", "-seconds", "NaN"}, "-seconds NaN"},
		{[]string{"-composepost", "-max", "-1"}, "-max -1"},
		{[]string{"-points", "1", "-seconds", "0.1", "-composepost", "false", "-points", "2"}, `unexpected argument "false"`},
		{[]string{"-tail", "extra"}, `unexpected argument "extra"`},
	}
	for _, name := range tailOnly {
		rejected = append(rejected, struct {
			args []string
			want string
		}{[]string{"-" + name, "1"}, "-" + name + " " + notTail})
	}
	for _, c := range rejected {
		if _, _, err := plan(t, c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: got error %v, want one containing %q", c.args, err, c.want)
		}
	}
}

// TestTailCeiling: the tail table's default ceiling is 70 kQPS per
// machine set, and an explicit -max overrides it.
func TestTailCeiling(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []float64
	}{
		{[]string{"-points", "2"}, []float64{35000, 70000}},
		{[]string{"-tail", "-scale", "2", "-points", "2"}, []float64{70000, 140000}},
		{[]string{"-tail", "-max", "1000", "-points", "2"}, []float64{500, 1000}},
	} {
		_, qps, err := plan(t, c.args...)
		if err != nil || !slices.Equal(qps, c.want) {
			t.Errorf("%q: load points %v (err %v), want %v", c.args, qps, err, c.want)
		}
	}
}

// TestRejectedLoadPointFails: a load point the engine rejects (too
// many arrivals, or a run too long for the millisecond clock) fails
// the sweep in every table, and nothing is printed.
func TestRejectedLoadPointFails(t *testing.T) {
	for _, args := range [][]string{
		{"-points", "1", "-max", "1e12"},
		{"-points", "1", "-seconds", "1e300"},
		{"-composepost", "-points", "1", "-max", "1e12"},
		{"-tail", "-points", "1", "-max", "1e12"},
	} {
		tab, qps, err := plan(t, args...)
		if err != nil {
			t.Fatalf("%q: plan: %v", args, err)
		}
		var out bytes.Buffer
		if err := sweep(&out, tab, qps, 1); err == nil {
			t.Errorf("%q: sweep succeeded, want the engine's rejection", args)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q after a rejected load point", args, out.String())
		}
	}
}
