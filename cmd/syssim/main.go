// Command syssim reproduces Figure 22: the system-level QPS sweep of
// end-to-end p99 tail and average latency for the CPU-based system and
// the RPU-based system with and without batch splitting, on the User
// microservice path (WebServer → User → McRouter → Memcached →
// Storage). -composepost sweeps the Figure 3 compose-post path
// instead. -tail sweeps at data-center scale with p50/p99/p999 and
// overload-policy columns, and -graph (which implies -tail) does so on
// any declarative service graph — a bundled scenario (social,
// composepost, hotel, media, iot) or a GraphSpec JSON file.
//
// Every table is one sweep of queuesim.RunTail. A flag the chosen table
// would ignore, and a load point the engine rejects, is an error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"

	"simr/internal/cli"
	"simr/internal/core"
	"simr/internal/obs"
	"simr/internal/queuesim"
)

// options holds syssim's flags. base is the engine configuration the
// flags describe; the tables that do not read the tail-mode knobs
// start from its Config alone.
type options struct {
	base        queuesim.TailConfig
	maxQPS      float64
	points      int
	parallel    int
	composePost bool
	tail        bool
	graph       string
	arrivals    string
}

// tailOnly names the flags only the tail table reads.
var tailOnly = []string{"scale", "arrivals", "users", "think", "timeout", "retries", "backoff", "hedge", "qcap", "drain"}

// register adds syssim's flags to fs.
func register(fs *flag.FlagSet) *options {
	o := &options{base: queuesim.TailConfig{Config: queuesim.DefaultConfig()}}
	c, arr, pol := &o.base.Config, &o.base.Arrivals, &o.base.Policy
	fs.Float64Var(&c.Seconds, "seconds", 4, "simulated seconds per load point")
	fs.Int64Var(&c.Seed, "seed", 1, "simulation seed")
	fs.Float64Var(&o.maxQPS, "max", 70000, "highest offered load")
	fs.IntVar(&o.points, "points", 12, "number of load points")
	fs.BoolVar(&o.composePost, "composepost", false, "sweep the Figure 3 compose-post path instead of the User path")
	fs.IntVar(&o.parallel, "parallel", 0, "worker goroutines for the sweep (0 = one per CPU, 1 = sequential)")
	fs.BoolVar(&o.tail, "tail", false, "sweep at data-center scale with p50/p99/p999 and overload-policy columns instead of the 1x Figure 22 table")
	fs.StringVar(&o.graph, "graph", "", "tail mode: service graph to sweep — a bundled name (social|composepost|hotel|media|iot) or a GraphSpec .json file (implies -tail)")
	fs.Float64Var(&o.base.Scale, "scale", 100, "tail mode: station-capacity multiplier (100 = the 100x Figure 22 analog)")
	fs.StringVar(&o.arrivals, "arrivals", "poisson", "tail mode: arrival process (poisson|mmpp|diurnal|closed)")
	fs.IntVar(&arr.Users, "users", 0, "tail mode: closed-loop population per offered-load point (0 = derive from qps and think time)")
	fs.Float64Var(&arr.ThinkMs, "think", 100, "tail mode: closed-loop mean think time (ms)")
	fs.Float64Var(&pol.TimeoutMs, "timeout", 0, "tail mode: per-try timeout (ms), 0 = none")
	fs.IntVar(&pol.MaxRetries, "retries", 0, "tail mode: retries after a timed-out or rejected try")
	fs.Float64Var(&pol.BackoffMs, "backoff", 1, "tail mode: base retry backoff (ms), doubled per try")
	fs.Float64Var(&pol.HedgeMs, "hedge", 0, "tail mode: hedge delay (ms), 0 = no hedging")
	fs.IntVar(&pol.QueueCap, "qcap", 0, "tail mode: per-station queue cap, 0 = unbounded")
	fs.Float64Var(&c.Drain, "drain", 2, "tail mode: drain horizon (seconds past the arrival window)")
	return o
}

func main() {
	o := register(flag.CommandLine)
	cf := cli.Register(flag.CommandLine)
	flag.Parse()
	t, qps, err := o.plan(flag.CommandLine)
	if err != nil {
		log.Fatal(err)
	}
	_, stop, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	if err := sweep(os.Stdout, t, qps, o.parallel); err != nil {
		stop()
		log.Fatal(err)
	}
}

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

// plan checks the parsed command line fs and returns the table it
// selects and the offered loads to sweep, before any cell runs.
func (o *options) plan(fs *flag.FlagSet) (*table, []float64, error) {
	if err := cli.NoArgs(fs); err != nil {
		return nil, nil, err
	}
	tail := o.tail || o.graph != ""
	if o.composePost && tail {
		return nil, nil, errors.New("-composepost sweeps its own 1x table; it takes neither -tail nor -graph")
	}
	if name := cli.FirstSet(fs, tailOnly...); name != "" && !tail {
		return nil, nil, fmt.Errorf("-%s applies only to the tail table (-tail or -graph)", name)
	}
	if err := checkGrid(o.points, o.base.Seconds, o.maxQPS); err != nil {
		return nil, nil, err
	}
	t, err := o.table(tail)
	if err != nil {
		return nil, nil, err
	}
	// In tail mode the default sweep ceiling scales with capacity: the
	// same 70 kQPS grid the 1x sweep uses, times Scale machines.
	if tail && cli.FirstSet(fs, "max") == "" {
		o.maxQPS = 70000 * o.base.Scale
	}
	qps := make([]float64, o.points)
	for i := range qps {
		qps[i] = o.maxQPS * float64(i+1) / float64(o.points)
	}
	return t, qps, nil
}

// mode is one system a table sweeps.
type mode struct {
	name       string
	rpu, split bool
}

// fig22Modes are the three Figure 22 systems.
var fig22Modes = []mode{{"cpu", false, false}, {"rpu-nosplit", true, false}, {"rpu-split", true, true}}

// table is one of syssim's sweeps as data: the lines printed above it,
// the systems it sweeps, the monitor-label prefix of its cells, the
// column header printed under each system's name, how one measured
// load point prints, and the engine configuration every cell starts
// from.
type table struct {
	title  []string
	modes  []mode
	label  string
	header string
	row    func(qps float64, m *queuesim.TailMetrics) string
	base   queuesim.TailConfig
}

// table describes the Figure 22 table, the compose-post table or (with
// tail) the tail table.
func (o *options) table(tail bool) (*table, error) {
	o.base.Warmup = o.base.Seconds / 4
	c := o.base.Config
	switch {
	case o.composePost:
		return &table{
			title:  []string{"Compose-post path (Figure 3): fan-out to uniqueid/urlshort/text/usertag, join, persist"},
			modes:  []mode{{"cpu", false, false}, {"rpu", true, false}},
			header: fmt.Sprintf("  %8s %10s %10s %10s %8s\n", "qps", "done/s", "p99(ms)", "avg(ms)", "util"),
			row: func(qps float64, m *queuesim.TailMetrics) string {
				return fmt.Sprintf("  %8.0f %10.0f %10.2f %10.2f %8.2f\n",
					qps, m.Throughput(), m.Latency.Percentile(99), m.Latency.Mean(), m.UserUtil)
			},
			base: queuesim.TailConfig{Config: c, Scale: 1, Graph: queuesim.ComposePostGraph()},
		}, nil
	case tail:
		return o.tailTable()
	}
	return &table{
		title: []string{
			"Figure 22: end-to-end tail and average latency vs offered load",
			"(paper: CPU saturates ~15 kQPS; RPU w/ split ~60 kQPS at similar latency;",
			" RPU w/o split shows elevated average latency but acceptable tail)",
			"",
		},
		modes:  fig22Modes,
		header: fmt.Sprintf("  %8s %10s %10s %10s %8s %6s\n", "qps", "done/s", "p99(ms)", "avg(ms)", "util", "fill"),
		row: func(qps float64, m *queuesim.TailMetrics) string {
			return fmt.Sprintf("  %8.0f %10.0f %10.2f %10.2f %8.2f %6.1f\n",
				qps, m.Throughput(), m.Latency.Percentile(99), m.Latency.Mean(), m.UserUtil, m.AvgBatchFill)
		},
		base: queuesim.TailConfig{Config: c, Scale: 1},
	}, nil
}

// tailTable describes the Figure 22 analog on the tail-at-scale
// engine: the same three modes (the CPU system alone on a batchless
// graph), Scale-times the machines, p50/p99/p999 and the
// overload-policy counters per load point, plus the total simulated
// event count. Every column is simulation output, so rows stay
// byte-identical at any -parallel; wall-clock events/sec is left to
// the benchmark in bench/, which records it as the
// queuesim.ns_per_event layer metric.
func (o *options) tailTable() (*table, error) {
	process, err := queuesim.ParseArrivalProcess(o.arrivals)
	if err != nil {
		return nil, err
	}
	base := o.base
	base.Arrivals.Process = process
	title := fmt.Sprintf("Figure 22 analog at %.0fx scale (tail-at-scale engine, %s arrivals)", base.Scale, process)
	modes := fig22Modes
	if o.graph != "" {
		if base.Graph, err = loadGraphArg(o.graph, base.Config); err != nil {
			return nil, err
		}
		title = fmt.Sprintf("Service graph %q at %.0fx scale (tail-at-scale engine, %s arrivals)",
			base.Graph.Name, base.Scale, process)
		if base.Graph.Batch == nil {
			// A batchless spec has no RPU path; sweep the CPU system only.
			modes = modes[:1]
		}
	}
	return &table{
		title: []string{
			title,
			"(completions attributed by arrival inside the measured window; in-flight",
			" work drains past the horizon instead of being censored)",
			"",
		},
		modes: modes,
		label: "tail-",
		header: fmt.Sprintf("  %9s %10s %8s %8s %8s %8s %7s %7s %7s %9s %7s\n",
			"qps", "done/s", "p50(ms)", "p99(ms)", "p999(ms)", "timeo", "retry", "hedge", "reject", "hwm", "Mev"),
		row: func(_ float64, m *queuesim.TailMetrics) string {
			return fmt.Sprintf("  %9.0f %10.0f %8.2f %8.2f %8.2f %8d %7d %7d %7d %9d %7.1f\n",
				m.Offered, m.Throughput(), m.Latency.Percentile(50), m.Latency.Percentile(99),
				m.Latency.Percentile(99.9), m.TimedOut, m.Retried, m.Hedged, m.Rejected,
				m.InFlightHWM, float64(m.Events)/1e6)
		},
		base: base,
	}, nil
}

// loadGraphArg resolves the -graph argument: a .json file is loaded
// and validated as a GraphSpec, anything else is a bundled name (the
// social graph takes its demands from c).
func loadGraphArg(arg string, c queuesim.Config) (*queuesim.GraphSpec, error) {
	if strings.HasSuffix(arg, ".json") {
		return queuesim.LoadGraph(arg)
	}
	return queuesim.GraphByName(arg, c)
}

// sweep runs every (mode, load) cell of t on the sweep worker pool —
// each an independent queuesim.RunTail with its own seeded RNG — and
// prints the table to w in input order, so the output is
// byte-identical at any worker count. A load point the engine rejects
// is the sweep's error, and then nothing is printed.
func sweep(w io.Writer, t *table, qps []float64, parallel int) error {
	np := len(qps)
	rows, err := core.RunCells(len(t.modes)*np, parallel, func(i int) (string, error) {
		mode := t.modes[i/np]
		cfg := t.base
		cfg.QPS = qps[i%np]
		cfg.RPU, cfg.Split = mode.rpu, mode.split
		if cfg.Arrivals.Process == queuesim.ArrClosed && cfg.Arrivals.Users == 0 {
			// Size the population so its nominal demand matches this
			// cell's offered-load column: X = N/(Z+R) with R ~ the
			// no-load response time. At least one user, or the engine
			// rejects the population as degenerate.
			cfg.Arrivals.Users = max(int(cfg.QPS*(cfg.Arrivals.ThinkMs+5)/1000), 1)
		}
		if obs.Enabled() {
			// One Monitor (and trace pid) per sweep cell keeps the
			// per-station time series of concurrent cells separate.
			cfg.Monitor = &queuesim.Monitor{
				Reg:   obs.Default(),
				Sink:  obs.Trace(),
				Label: queuesim.CellLabel(t.label+mode.name, cfg.QPS),
				PID:   100 + i,
				MinDT: 1.0,
			}
		}
		m, err := queuesim.RunTail(cfg)
		if err != nil {
			return "", fmt.Errorf("%s at %v QPS: %w", mode.name, cfg.QPS, err)
		}
		return t.row(cfg.QPS, m), nil
	})
	if err != nil {
		return err
	}
	for _, line := range t.title {
		fmt.Fprintln(w, line)
	}
	for mi, mode := range t.modes {
		fmt.Fprintf(w, "%s:\n%s", mode.name, t.header)
		for _, row := range rows[mi*np : (mi+1)*np] {
			fmt.Fprint(w, row)
		}
		fmt.Fprintln(w)
	}
	return nil
}
