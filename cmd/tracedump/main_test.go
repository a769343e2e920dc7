package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGoldenDumps pins one small dump of each view: the scalar traces,
// the lock-step batch stream and the static listing.
func TestGoldenDumps(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"testdata/scalar.txt", []string{"-service", "memc", "-n", "2", "-limit", "4"}},
		{"testdata/batch.txt", []string{"-service", "memc", "-n", "2", "-limit", "4", "-batch"}},
		{"testdata/static.txt", []string{"-static", "-service", "uniqueid"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d: %s", c.args, code, stderr.String())
		}
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%q: dump differs from %s:\n%s", c.args, c.file, got)
		}
	}
}

// TestRejectedCommandLines: each command line exits 1 with an error
// naming the fault and prints nothing to stdout.
func TestRejectedCommandLines(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-static", "-batch"}, "-batch is not read by -static"},
		{[]string{"-static", "-n", "2"}, "-n is not read by -static"},
		{[]string{"-static", "-seed", "3"}, "-seed is not read by -static"},
		{[]string{"-static", "-limit", "5"}, "-limit is not read by -static"},
		{[]string{"-limit", "-5"}, "-limit must not be negative"},
		{[]string{"-n", "0"}, "-n must be at least 1"},
		{[]string{"-service", "nosuch"}, `unknown service "nosuch"`},
		{[]string{"extra"}, `unexpected argument "extra"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 1 {
			t.Errorf("%q: exit %d, want 1", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr %q, want one containing %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %d bytes to stdout", c.args, stdout.Len())
		}
	}
}
