package sample

import (
	"math"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Config
		err  bool
	}{
		{"", Config{}, false},
		{"off", Config{}, false},
		{"0", Config{}, false},
		{"1", Config{Period: 1, Warmup: 1}, false},
		{"4", Config{Period: 4, Warmup: 1}, false},
		{"4:0", Config{Period: 4, Warmup: 0}, false},
		{"8:3", Config{Period: 8, Warmup: 3}, false},
		{" 4:2 ", Config{Period: 4, Warmup: 2}, false},
		{"-1", Config{}, true},
		{"4:-1", Config{}, true},
		{"x", Config{}, true},
		{"4:x", Config{}, true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if (err != nil) != c.err {
			t.Fatalf("Parse(%q): err=%v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestRolePartition(t *testing.T) {
	// Period 4, warmup 1: timed at 3,7,11,... warm at 2,6,10,... skip
	// the rest — except the initial window (units 0..2), which is
	// warmed in full so the first measurement never starts cold.
	c := Config{Period: 4, Warmup: 1}
	want := []Role{RoleWarm, RoleWarm, RoleWarm, RoleTimed, RoleSkip, RoleSkip, RoleWarm, RoleTimed,
		RoleSkip, RoleSkip, RoleWarm, RoleTimed}
	for i, w := range want {
		if got := c.Role(i); got != w {
			t.Fatalf("Role(%d) = %v, want %v", i, got, w)
		}
	}
	// Large periods cap the initial warm window at initialWarmUnits:
	// the first timed unit gets a deep warmup without paying to warm
	// the whole leading window, and steady-state windows use Warmup.
	c = Config{Period: 8, Warmup: 1}
	want = []Role{RoleSkip, RoleSkip, RoleSkip, RoleWarm, RoleWarm, RoleWarm, RoleWarm, RoleTimed,
		RoleSkip, RoleSkip, RoleSkip, RoleSkip, RoleSkip, RoleSkip, RoleWarm, RoleTimed}
	for i, w := range want {
		if got := c.Role(i); got != w {
			t.Fatalf("period 8: Role(%d) = %v, want %v", i, got, w)
		}
	}
	// Warmup >= Period-1 warms every non-timed unit.
	c = Config{Period: 3, Warmup: 2}
	for i := 0; i < 12; i++ {
		if got := c.Role(i); got == RoleSkip {
			t.Fatalf("Role(%d) = skip with full warmup", i)
		}
	}
	// Period 1 times everything; Period 0 too (sampler off).
	for _, c := range []Config{{Period: 1}, {}} {
		for i := 0; i < 8; i++ {
			if got := c.Role(i); got != RoleTimed {
				t.Fatalf("cfg %+v: Role(%d) = %v, want timed", c, i, got)
			}
		}
	}
}

func TestDefaultPin(t *testing.T) {
	defer SetDefault(Config{})
	if got := Default(); got.Active() {
		t.Fatalf("unset default = %+v, want inactive", got)
	}
	SetDefault(Config{Period: 8, Warmup: 3})
	if got := Default(); got != (Config{Period: 8, Warmup: 3}) {
		t.Fatalf("Default() = %+v after SetDefault(8:3)", got)
	}
	SetDefault(Config{Period: 4, Warmup: 0})
	if got := Default(); got != (Config{Period: 4, Warmup: 0}) {
		t.Fatalf("Default() = %+v after SetDefault(4:0)", got)
	}
	SetDefault(Config{})
	if got := Default(); got.Active() {
		t.Fatalf("Default() = %+v after reset, want inactive", got)
	}
}

// TestDefaultRoundTrip: Default returns exactly the Config SetDefault
// installed, including fields past 32 bits (a packed encoding once
// turned -sample 4:4294967296 into period 5, warmup 0, and ran
// -sample 4294967297 unsampled).
func TestDefaultRoundTrip(t *testing.T) {
	defer SetDefault(Config{})
	for _, spec := range []string{"1", "4", "8:3", "4:0", "4:4294967295", "4:4294967296", "4294967296", "4294967297", "9223372036854775807:9223372036854775807"} {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		SetDefault(c)
		if got := Default(); got != c {
			t.Fatalf("-sample %s: Default() = %+v after SetDefault(%+v)", spec, got, c)
		}
	}
}

func TestMeterEstimate(t *testing.T) {
	// 8 units, period 4, warmup 1: units 0 and 4 timed, 3 and 7
	// warmed, 4 skipped.
	cfg := Config{Period: 4, Warmup: 1}
	m := NewMeter(cfg, 8, 80, []string{"cycles", "uops"})
	m.Observe(10, 100, 50)
	m.Warmed()
	m.Observe(10, 120, 50)
	m.Warmed()
	e := m.Estimate()
	if e.Timed != 2 || e.Warmed != 2 || e.Skipped != 4 || e.Units != 8 {
		t.Fatalf("partition = %d/%d/%d of %d", e.Timed, e.Warmed, e.Skipped, e.Units)
	}
	if e.TimedRequests != 20 || e.Requests != 80 {
		t.Fatalf("requests = %d/%d", e.TimedRequests, e.Requests)
	}
	cy := e.Metric("cycles")
	if cy.Mean != 110 {
		t.Fatalf("cycles mean = %v, want 110", cy.Mean)
	}
	// sd = sqrt(200) over n=2, FPC sqrt(6/7).
	wantCI := 1.96 * math.Sqrt(200.0/2) * math.Sqrt(6.0/7) / 110
	if math.Abs(cy.RelCI95-wantCI) > 1e-12 {
		t.Fatalf("cycles relCI = %v, want %v", cy.RelCI95, wantCI)
	}
	// A constant metric has zero CI.
	if u := e.Metric("uops"); u.RelCI95 != 0 || u.Mean != 50 {
		t.Fatalf("uops = %+v, want mean 50 ci 0", u)
	}
	if e.MaxRelCI() != cy.RelCI95 {
		t.Fatalf("MaxRelCI = %v, want %v", e.MaxRelCI(), cy.RelCI95)
	}
	if e.Metric("absent") != (Metric{}) {
		t.Fatalf("absent metric should be zero")
	}
}

func TestConfigString(t *testing.T) {
	if s := (Config{}).String(); s != "off" {
		t.Fatalf("zero config String = %q", s)
	}
	if s := (Config{Period: 4, Warmup: 1}).String(); s != "4:1" {
		t.Fatalf("String = %q, want 4:1", s)
	}
	// String round-trips through Parse.
	c := Config{Period: 8, Warmup: 2}
	got, err := Parse(c.String())
	if err != nil || got != c {
		t.Fatalf("round trip %+v -> %q -> %+v err %v", c, c.String(), got, err)
	}
}
