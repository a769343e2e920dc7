package simr_test

import (
	"testing"
	"time"

	"simr"
)

// TestRunSystemRejectedIsEmpty: RunSystem turns a configuration the
// engine rejects into the empty measurement the benchmark's Figure 22
// sweep reads (Completed 0, Offered the configured rate, no latency
// samples), and a non-positive rate neither hangs in a zero-delay
// arrival loop nor divides by zero.
func TestRunSystemRejectedIsEmpty(t *testing.T) {
	cases := []struct {
		name string
		edit func(*simr.SystemConfig)
	}{
		{"zero-qps", func(c *simr.SystemConfig) { c.QPS = 0 }},
		{"negative-qps", func(c *simr.SystemConfig) { c.QPS = -5 }},
		{"negative-drain", func(c *simr.SystemConfig) { c.Drain = -1 }},
		{"negative-warmup", func(c *simr.SystemConfig) { c.Warmup = -1 }},
	}
	for _, tc := range cases {
		cfg := simr.DefaultSystemConfig()
		cfg.Seconds = 1
		tc.edit(&cfg)
		done := make(chan *simr.SystemMetrics, 1)
		go func() { done <- simr.RunSystem(cfg) }()
		select {
		case m := <-done:
			if m.Completed != 0 || m.Offered != cfg.QPS || m.Latency == nil || m.Latency.Len() != 0 {
				t.Fatalf("%s: got Completed %d, Offered %v (want %v), latency %v; want the empty measurement",
					tc.name, m.Completed, m.Offered, cfg.QPS, m.Latency)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: RunSystem hung (zero-delay arrival loop)", tc.name)
		}
	}
}
