package main

import (
	"strings"
	"testing"
)

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
		if err := s.check(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
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
		if err := c.s.check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got error %v, want one containing %q", c.s, err, c.want)
		}
	}
}
