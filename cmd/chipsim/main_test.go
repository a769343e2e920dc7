package main

import (
	"flag"
	"strings"
	"testing"
)

// given parses args on a flag set holding the flags that only some
// selections read, as chipsim registers them.
func given(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("chipsim", flag.ContinueOnError)
	fs.Int("requests", 2400, "")
	fs.Int64("seed", 42, "")
	fs.Int("parallel", 0, "")
	fs.Bool("gpu", true, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSelectorRules checks every accepted single selector and every
// rejected combination; want is a substring of the rejection's error.
func TestSelectorRules(t *testing.T) {
	accepted := []selectors{
		{}, {fig: 4}, {fig: 5}, {fig: 10}, {fig: 11}, {fig: 14}, {fig: 15}, {fig: 19}, {fig: 20}, {fig: 21},
		{table: 4}, {table: 5}, {table: 6}, {table: 7},
		{sensitivity: true}, {sensitivity: true, services: "memc,urlshort"},
		{ispc: true, requests: 1}, {multiprocess: true}, {multibatch: true}, {timing: true},
		{gpgpu: true, requests: 1},
		{json: true}, {json: true, fig: 10}, {json: true, fig: 14},
		{json: true, fig: 19}, {json: true, fig: 20}, {json: true, fig: 21},
	}
	for _, s := range accepted {
		if err := s.check(given(t)); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	// Each flag that only some selections read, with a selection that
	// reads it.
	acceptedFlags := []struct {
		s    selectors
		args []string
	}{
		{selectors{}, []string{"-requests", "8", "-seed", "3", "-parallel", "2", "-gpu=false"}},
		{selectors{fig: 19, json: true}, []string{"-gpu=false", "-parallel", "1"}},
		{selectors{fig: 4}, []string{"-requests", "8", "-seed", "3", "-parallel", "2"}},
		{selectors{fig: 15}, []string{"-requests", "8", "-parallel", "2"}},
		{selectors{sensitivity: true}, []string{"-requests", "8", "-seed", "3", "-parallel", "2"}},
		{selectors{timing: true}, []string{"-requests", "8", "-parallel", "2"}},
		{selectors{ispc: true, requests: 8}, []string{"-requests", "8", "-seed", "3"}},
		{selectors{gpgpu: true, requests: 8}, []string{"-requests", "8", "-seed", "3"}},
		{selectors{multiprocess: true}, []string{"-seed", "3"}},
		{selectors{multibatch: true}, []string{"-seed", "3", "-parallel", "2"}},
	}
	for _, c := range acceptedFlags {
		if err := c.s.check(given(t, c.args...)); err != nil {
			t.Errorf("%+v with %q rejected: %v", c.s, c.args, err)
		}
	}

	const many, json = "choose at most one selector", "-json prints only the chip study"
	rejected := []struct {
		s    selectors
		want string
	}{
		{selectors{fig: 99}, "unknown -fig 99"},
		{selectors{table: 3}, "unknown -table 3"},
		{selectors{fig: 19, table: 5}, many},
		{selectors{fig: 15, multiprocess: true}, many},
		{selectors{fig: 4, gpgpu: true, requests: 1}, many},
		{selectors{table: 4, sensitivity: true}, many},
		{selectors{ispc: true, gpgpu: true, requests: 1}, many},
		{selectors{multibatch: true, timing: true}, many},
		{selectors{json: true, fig: 4}, json},
		{selectors{json: true, fig: 5}, json},
		{selectors{json: true, fig: 11}, json},
		{selectors{json: true, fig: 15}, json},
		{selectors{json: true, table: 5}, json},
		{selectors{json: true, sensitivity: true}, json},
		{selectors{json: true, ispc: true, requests: 1}, json},
		{selectors{json: true, multiprocess: true}, json},
		{selectors{json: true, multibatch: true}, json},
		{selectors{json: true, timing: true}, json},
		{selectors{json: true, gpgpu: true, requests: 1}, json},
		{selectors{fig: 19, services: "nosuch"}, "-services applies only to -sensitivity"},
		{selectors{services: "memc"}, "-services applies only to -sensitivity"},
		{selectors{gpgpu: true, requests: 0}, "at least 1, got 0"},
		{selectors{gpgpu: true, requests: -2}, "at least 1, got -2"},
		{selectors{ispc: true, requests: 0}, "at least 1, got 0"},
	}
	for _, c := range rejected {
		if err := c.s.check(given(t)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got error %v, want one containing %q", c.s, err, c.want)
		}
	}

	// A flag set on the command line that the selection does not read.
	rejectedFlags := []struct {
		s    selectors
		args []string
		want string
	}{
		{selectors{table: 5, requests: -3}, []string{"-requests", "-3"}, "-requests is not read by -table 5"},
		{selectors{multibatch: true, requests: 0}, []string{"-requests", "0"}, "-requests is not read by -multibatch"},
		{selectors{gpgpu: true, requests: 8}, []string{"-gpu=false", "-requests", "8"}, "-gpu is not read by -gpgpu"},
		{selectors{table: 4}, []string{"-parallel", "3"}, "-parallel is not read by -table 4"},
		{selectors{fig: 5}, []string{"-seed", "3"}, "-seed is not read by -fig 5"},
		{selectors{fig: 15}, []string{"-gpu"}, "-gpu is not read by -fig 15"},
		{selectors{sensitivity: true}, []string{"-gpu=false"}, "-gpu is not read by -sensitivity"},
		{selectors{ispc: true, requests: 8}, []string{"-parallel", "2"}, "-parallel is not read by -ispc"},
		{selectors{gpgpu: true, requests: 8}, []string{"-parallel", "2"}, "-parallel is not read by -gpgpu"},
		{selectors{multiprocess: true}, []string{"-parallel", "1"}, "-parallel is not read by -multiprocess"},
		{selectors{multiprocess: true}, []string{"-requests", "32"}, "-requests is not read by -multiprocess"},
		{selectors{table: 7}, []string{"-seed", "1", "-gpu", "-requests", "1", "-parallel", "1"}, "-gpu is not read by -table 7"},
	}
	for _, c := range rejectedFlags {
		if err := c.s.check(given(t, c.args...)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v with %q: got error %v, want one containing %q", c.s, c.args, err, c.want)
		}
	}
}
