// Command syssim reproduces Figure 22: the system-level QPS sweep of
// end-to-end p99 tail and average latency for the CPU-based system and
// the RPU-based system with and without batch splitting, on the User
// microservice path (WebServer → User → McRouter → Memcached →
// Storage). With -graph the tail engine instead sweeps any declarative
// service graph — a bundled scenario (social, composepost, hotel,
// media, iot) or a GraphSpec JSON file.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"

	"simr/internal/cli"
	"simr/internal/core"
	"simr/internal/obs"
	"simr/internal/queuesim"
)

// checkGrid rejects a sweep with no load points, or a non-positive or
// non-finite -seconds or -max: those would print only the table
// headers, or rows of zeros, and exit 0.
func checkGrid(points int, seconds, maxQPS float64) error {
	if points < 1 {
		return fmt.Errorf("-points %d: need at least one load point", points)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"seconds", seconds}, {"max", maxQPS}} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("-%s %v: need a positive, finite value", f.name, f.v)
		}
	}
	return nil
}

func main() {
	seconds := flag.Float64("seconds", 4, "simulated seconds per load point")
	seed := flag.Int64("seed", 1, "simulation seed")
	maxQPS := flag.Float64("max", 70000, "highest offered load")
	points := flag.Int("points", 12, "number of load points")
	composePost := flag.Bool("composepost", false, "sweep the Figure 3 compose-post path instead of the User path")
	parallel := flag.Int("parallel", 0, "worker goroutines for the sweep (0 = one per CPU, 1 = sequential)")
	tail := flag.Bool("tail", false, "sweep at data-center scale with p50/p99/p999 and overload-policy columns instead of the 1x Figure 22 table")
	graphName := flag.String("graph", "", "tail mode: service graph to sweep — a bundled name (social|composepost|hotel|media|iot) or a GraphSpec .json file (implies -tail)")
	scale := flag.Float64("scale", 100, "tail mode: station-capacity multiplier (100 = the 100x Figure 22 analog)")
	arrivals := flag.String("arrivals", "poisson", "tail mode: arrival process (poisson|mmpp|diurnal|closed)")
	users := flag.Int("users", 0, "tail mode: closed-loop population per offered-load point (0 = derive from qps and think time)")
	think := flag.Float64("think", 100, "tail mode: closed-loop mean think time (ms)")
	timeout := flag.Float64("timeout", 0, "tail mode: per-try timeout (ms), 0 = none")
	retries := flag.Int("retries", 0, "tail mode: retries after a timed-out or rejected try")
	backoff := flag.Float64("backoff", 1, "tail mode: base retry backoff (ms), doubled per try")
	hedge := flag.Float64("hedge", 0, "tail mode: hedge delay (ms), 0 = no hedging")
	qcap := flag.Int("qcap", 0, "tail mode: per-station queue cap, 0 = unbounded")
	drain := flag.Float64("drain", 2, "tail mode: drain horizon (seconds past the arrival window)")
	cf := cli.Register(flag.CommandLine, cli.Profile|cli.Metrics|cli.Interrupt)
	flag.Parse()
	if err := checkGrid(*points, *seconds, *maxQPS); err != nil {
		log.Fatal(err)
	}
	_, stop, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	if *graphName != "" {
		*tail = true
	}

	// In tail mode the default sweep ceiling scales with capacity: the
	// same 70 kQPS grid the 1x sweep uses, times Scale machines.
	maxSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "max" {
			maxSet = true
		}
	})
	if *tail && !maxSet {
		*maxQPS = 70000 * *scale
	}

	var qps []float64
	for i := 1; i <= *points; i++ {
		qps = append(qps, *maxQPS*float64(i)/float64(*points))
	}

	if *composePost {
		if err := sweepComposePost(*seconds, *seed, qps, *parallel); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *tail {
		process, err := queuesim.ParseArrivalProcess(*arrivals)
		if err != nil {
			log.Fatal(err)
		}
		tc := tailSweepConfig{
			seconds: *seconds, seed: *seed, scale: *scale, drain: *drain,
			arrivals: queuesim.ArrivalConfig{
				Process: process,
				Users:   *users, ThinkMs: *think,
			},
			policy: queuesim.PolicyConfig{
				TimeoutMs: *timeout, MaxRetries: *retries, BackoffMs: *backoff,
				HedgeMs: *hedge, QueueCap: *qcap,
			},
		}
		if *graphName != "" {
			spec, err := loadGraphArg(*graphName)
			if err != nil {
				log.Fatal(err)
			}
			tc.graph = spec
		}
		if err := sweepTail(tc, qps, *parallel); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println("Figure 22: end-to-end tail and average latency vs offered load")
	fmt.Println("(paper: CPU saturates ~15 kQPS; RPU w/ split ~60 kQPS at similar latency;")
	fmt.Println(" RPU w/o split shows elevated average latency but acceptable tail)")
	fmt.Println()

	modes := []struct {
		name       string
		rpu, split bool
	}{
		{"cpu", false, false},
		{"rpu-nosplit", true, false},
		{"rpu-split", true, true},
	}
	// Every (mode, QPS) point is an independent queuesim.Run with its
	// own seeded RNG, so the grid fans out on the sweep worker pool;
	// cells return formatted rows and printing stays in input order,
	// keeping the output byte-identical to the sequential loop.
	np := len(qps)
	rows, err := core.RunCells(len(modes)*np, *parallel, func(i int) (string, error) {
		mode := modes[i/np]
		cfg := queuesim.DefaultConfig()
		cfg.QPS = qps[i%np]
		cfg.Seconds = *seconds
		cfg.Warmup = *seconds / 4
		cfg.Seed = *seed
		cfg.RPU = mode.rpu
		cfg.Split = mode.split
		if obs.Enabled() {
			// One Monitor (and trace pid) per sweep cell keeps the
			// per-station time series of concurrent cells separate.
			cfg.Monitor = &queuesim.Monitor{
				Reg:   obs.Default(),
				Sink:  obs.Trace(),
				Label: queuesim.CellLabel(mode.name, cfg.QPS),
				PID:   100 + i,
				MinDT: 1.0,
			}
		}
		m := queuesim.Run(cfg)
		return fmt.Sprintf("  %8.0f %10.0f %10.2f %10.2f %8.2f %6.1f\n",
			cfg.QPS, m.Throughput(), m.Latency.Percentile(99), m.Latency.Mean(),
			m.UserUtil, m.AvgBatchFill), nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for mi, mode := range modes {
		fmt.Printf("%s:\n", mode.name)
		fmt.Printf("  %8s %10s %10s %10s %8s %6s\n", "qps", "done/s", "p99(ms)", "avg(ms)", "util", "fill")
		for p := 0; p < np; p++ {
			fmt.Print(rows[mi*np+p])
		}
		fmt.Println()
	}
}

// loadGraphArg resolves the -graph argument: a .json file is loaded
// and validated as a GraphSpec, anything else is a bundled name.
func loadGraphArg(arg string) (*queuesim.GraphSpec, error) {
	if strings.HasSuffix(arg, ".json") {
		return queuesim.LoadGraph(arg)
	}
	return queuesim.GraphByName(arg, queuesim.DefaultConfig())
}

// tailSweepConfig carries the tail-mode knobs into the sweep cells.
type tailSweepConfig struct {
	seconds  float64
	seed     int64
	scale    float64
	drain    float64
	graph    *queuesim.GraphSpec
	arrivals queuesim.ArrivalConfig
	policy   queuesim.PolicyConfig
}

// sweepTail runs the Figure 22 analog on the tail-at-scale engine:
// same three modes, Scale-times the machines, p50/p99/p999 and the
// overload-policy counters per load point, plus the total simulated
// event count. Every column is simulation output, so rows stay
// byte-identical at any -parallel; wall-clock events/sec (the arena
// engine's figure of merit) is left to the benchmark in bench/, which
// records it as the queuesim.ns_per_event layer metric.
func sweepTail(tc tailSweepConfig, qps []float64, parallel int) error {
	if tc.graph != nil {
		fmt.Printf("Service graph %q at %.0fx scale (tail-at-scale engine, %s arrivals)\n",
			tc.graph.Name, tc.scale, tc.arrivals.Process)
	} else {
		fmt.Printf("Figure 22 analog at %.0fx scale (tail-at-scale engine, %s arrivals)\n",
			tc.scale, tc.arrivals.Process)
	}
	fmt.Println("(completions attributed by arrival inside the measured window; in-flight")
	fmt.Println(" work drains past the horizon instead of being censored)")
	fmt.Println()
	modes := []struct {
		name       string
		rpu, split bool
	}{
		{"cpu", false, false},
		{"rpu-nosplit", true, false},
		{"rpu-split", true, true},
	}
	if tc.graph != nil && tc.graph.Batch == nil {
		// A batchless spec has no RPU path; sweep the CPU system only.
		modes = modes[:1]
	}
	np := len(qps)
	rows, err := core.RunCells(len(modes)*np, parallel, func(i int) (string, error) {
		mode := modes[i/np]
		cfg := queuesim.TailConfig{Config: queuesim.DefaultConfig(),
			Scale: tc.scale, Arrivals: tc.arrivals, Policy: tc.policy,
			Graph: tc.graph}
		cfg.QPS = qps[i%np]
		cfg.Seconds = tc.seconds
		cfg.Warmup = tc.seconds / 4
		cfg.Drain = tc.drain
		cfg.Seed = tc.seed
		cfg.RPU = mode.rpu
		cfg.Split = mode.split
		if cfg.Arrivals.Process == queuesim.ArrClosed && cfg.Arrivals.Users == 0 {
			// Size the population so its nominal demand matches this
			// cell's offered-load column: X = N/(Z+R) with R ~ the
			// no-load response time. At least one user, or the engine
			// rejects the population as degenerate.
			cfg.Arrivals.Users = int(cfg.QPS * (cfg.Arrivals.ThinkMs + 5) / 1000)
			if cfg.Arrivals.Users < 1 {
				cfg.Arrivals.Users = 1
			}
		}
		if obs.Enabled() {
			cfg.Monitor = &queuesim.Monitor{
				Reg:   obs.Default(),
				Sink:  obs.Trace(),
				Label: queuesim.CellLabel("tail-"+mode.name, cfg.QPS),
				PID:   100 + i,
				MinDT: 1.0,
			}
		}
		m, err := queuesim.RunTail(cfg)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("  %9.0f %10.0f %8.2f %8.2f %8.2f %8d %7d %7d %7d %9d %7.1f\n",
			m.Offered, m.Throughput(), m.Latency.Percentile(50), m.Latency.Percentile(99),
			m.Latency.Percentile(99.9), m.TimedOut, m.Retried, m.Hedged, m.Rejected,
			m.InFlightHWM, float64(m.Events)/1e6), nil
	})
	if err != nil {
		return err
	}
	for mi, mode := range modes {
		fmt.Printf("%s:\n", mode.name)
		fmt.Printf("  %9s %10s %8s %8s %8s %8s %7s %7s %7s %9s %7s\n",
			"qps", "done/s", "p50(ms)", "p99(ms)", "p999(ms)", "timeo", "retry", "hedge", "reject", "hwm", "Mev")
		for p := 0; p < np; p++ {
			fmt.Print(rows[mi*np+p])
		}
		fmt.Println()
	}
	return nil
}

// sweepComposePost runs the compose-post fan-out/join scenario on the
// same worker pool and in the same input-order print discipline as the
// Figure 22 sweep.
func sweepComposePost(seconds float64, seed int64, qps []float64, parallel int) error {
	fmt.Println("Compose-post path (Figure 3): fan-out to uniqueid/urlshort/text/usertag, join, persist")
	modes := []struct {
		name string
		rpu  bool
	}{
		{"cpu", false},
		{"rpu", true},
	}
	np := len(qps)
	rows, err := core.RunCells(len(modes)*np, parallel, func(i int) (string, error) {
		cfg := queuesim.DefaultComposePost()
		cfg.QPS = qps[i%np]
		cfg.Seconds = seconds
		cfg.Warmup = seconds / 4
		cfg.Seed = seed
		cfg.RPU = modes[i/np].rpu
		if obs.Enabled() {
			cfg.Monitor = &queuesim.Monitor{
				Reg:   obs.Default(),
				Sink:  obs.Trace(),
				Label: queuesim.CellLabel(modes[i/np].name, cfg.QPS),
				PID:   100 + i,
				MinDT: 1.0,
			}
		}
		m := queuesim.RunComposePost(cfg)
		return fmt.Sprintf("  %8.0f %10.0f %10.2f %10.2f %8.2f\n",
			cfg.QPS, m.Throughput(), m.Latency.Percentile(99), m.Latency.Mean(), m.UserUtil), nil
	})
	if err != nil {
		return err
	}
	for mi, mode := range modes {
		fmt.Printf("%s:\n  %8s %10s %10s %10s %8s\n", mode.name, "qps", "done/s", "p99(ms)", "avg(ms)", "util")
		for p := 0; p < np; p++ {
			fmt.Print(rows[mi*np+p])
		}
		fmt.Println()
	}
	return nil
}
