// Package cli holds the flags and process plumbing the cmd tools
// share. A command registers them before flag.Parse and calls Start
// once after it:
//
//	cf := cli.Register(flag.CommandLine)
//	flag.Parse()
//	_, stop, err := cf.Start()
//	if err != nil {
//		log.Fatal(err)
//	}
//	defer stop()
//
// Register adds -cpuprofile and -memprofile (read the files with go
// tool pprof <binary> <file>), -metrics (an obs.Registry snapshot) and
// -trace (a Chrome-trace / Perfetto JSON timeline). Start installs the
// parsed settings process-wide, so every study the command runs picks
// them up without per-command plumbing: SIGINT and SIGTERM cancel
// core.RunCells sweeps at the next cell boundary instead of killing
// the process mid-cell, and with neither -metrics nor -trace the obs
// hub stays disabled and every instrument is a no-op. stop undoes them
// in reverse order and writes the files the flags asked for. With
// every flag at its default, study output is byte-identical to a run
// that never called Start.
//
// FirstSet tells a flag given on the command line from one left at its
// default, so a command can reject a flag its selection would ignore.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"

	"simr/internal/core"
	"simr/internal/obs"
)

// Flags holds the registered flag values.
type Flags struct {
	cpuProfile *string
	memProfile *string
	metrics    *string
	trace      *string
}

// Register adds the shared flags to fs (flag.CommandLine in a
// command). Call before fs is parsed.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpuProfile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write a heap profile to this file on exit"),
		metrics:    fs.String("metrics", "", "write a metrics-registry JSON snapshot to this file on exit"),
		trace:      fs.String("trace", "", "write a Chrome-trace (Perfetto) JSON timeline to this file on exit"),
	}
}

// FirstSet returns the first of names (in flag.Visit's lexical order)
// that was set on fs's parsed command line, or "" if none was. A flag
// given its default value explicitly counts as set.
func FirstSet(fs *flag.FlagSet, names ...string) string {
	first := ""
	fs.Visit(func(f *flag.Flag) {
		if first == "" && slices.Contains(names, f.Name) {
			first = f.Name
		}
	})
	return first
}

// NoArgs rejects the positional arguments left on fs's parsed command
// line, naming the first. No command takes any, and one is usually a
// bool flag's separate value (-gpu false), which ends flag parsing
// there and silently drops every flag after it.
func NoArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: only flags are accepted (write a bool flag's value as -flag=false)", fs.Arg(0))
	}
	return nil
}

// Start installs the parsed flags: the interrupt context, the CPU
// profile and the obs hub. ctx is the context core.RunCells sweeps
// honour: it is done after the first SIGINT or SIGTERM, or once stop
// runs. stop undoes the setup in reverse order, writing the heap
// profile, the metrics snapshot and the trace (errors go to stderr).
// stop is never nil and is safe to call more than once; when Start
// fails it has already undone its own setup, so a caller may defer
// stop before checking the error.
func (f *Flags) Start() (ctx context.Context, stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		stops = nil
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	core.SetInterrupt(ctx)
	stops = append(stops, func() {
		core.SetInterrupt(nil)
		cancel()
	})
	stopProf, err := startProfile(*f.cpuProfile, *f.memProfile)
	if err != nil {
		stop()
		return ctx, stop, err
	}
	stops = append(stops, stopProf)
	if *f.metrics != "" || *f.trace != "" {
		stops = append(stops, startObs(*f.metrics, *f.trace))
	}
	return ctx, stop, nil
}

// startProfile begins CPU profiling into cpuPath (if non-empty) and
// returns the function that finishes it and writes a heap profile to
// memPath (if non-empty).
func startProfile(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		var err error
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath == "" {
			return
		}
		runtime.GC() // materialize up-to-date allocation stats
		if err := writeFile(memPath, func(w io.Writer) error { return pprof.WriteHeapProfile(w) }); err != nil {
			fmt.Fprintf(os.Stderr, "prof: %v\n", err)
		}
	}, nil
}

// startObs enables the global obs hub with a registry (metricsPath
// non-empty) and/or a trace sink (tracePath non-empty), and returns
// the function that disables it and writes both files.
func startObs(metricsPath, tracePath string) func() {
	var (
		reg  *obs.Registry
		sink *obs.TraceSink
	)
	if metricsPath != "" {
		reg = obs.NewRegistry()
	}
	if tracePath != "" {
		sink = obs.NewTraceSink()
	}
	obs.Enable(reg, sink)
	return func() {
		obs.Disable()
		if reg != nil {
			if err := writeFile(metricsPath, reg.Snapshot().WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			}
		}
		if sink != nil {
			if err := writeFile(tracePath, sink.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			}
		}
	}
}

func writeFile(path string, write func(w io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
