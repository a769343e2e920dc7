// Command tracedump is a debugging utility: it traces a few requests of
// one microservice and prints either the scalar per-request instruction
// streams (the SIMTec view) or the lock-step batch stream with active
// masks (the RPU frontend view).
//
// Usage:
//
//	tracedump -service memc -n 4 [-batch] [-limit 80] [-seed 1]
//	tracedump -static -service memc
//
// -static prints the listing alone, so -batch, -n, -seed and -limit
// are errors with it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"simr/internal/alloc"
	"simr/internal/cli"
	"simr/internal/mem"
	"simr/internal/simt"
	"simr/internal/uservices"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds tracedump's flags.
type options struct {
	service   string
	n         int
	batchView bool
	static    bool
	limit     int
	seed      int64
}

// run executes one tracedump command line, printing the dump to stdout
// and any error to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.service, "service", "memc", "service to trace")
	fs.IntVar(&o.n, "n", 4, "number of requests (batch width)")
	fs.BoolVar(&o.batchView, "batch", false, "print the lock-step batch stream instead of scalar traces")
	fs.BoolVar(&o.static, "static", false, "print the static program listing (disassembly) instead of traces")
	fs.IntVar(&o.limit, "limit", 64, "max instructions to print")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := o.check(fs)
	if err == nil {
		err = o.dump(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "tracedump: %v\n", err)
		return 1
	}
	return 0
}

// check rejects a command line before anything is traced: positional
// arguments, a flag the static listing does not read, fewer than one
// request and a negative -limit.
func (o *options) check(fs *flag.FlagSet) error {
	if err := cli.NoArgs(fs); err != nil {
		return err
	}
	if name := cli.FirstSet(fs, "batch", "n", "seed", "limit"); name != "" && o.static {
		return fmt.Errorf("-%s is not read by -static", name)
	}
	if o.n < 1 {
		return fmt.Errorf("-n must be at least 1, got %d", o.n)
	}
	if o.limit < 0 {
		return fmt.Errorf("-limit must not be negative, got %d", o.limit)
	}
	return nil
}

// dump prints the selected view of o.service to w.
func (o *options) dump(w io.Writer) error {
	suite := uservices.NewSuite()
	svc := suite.Lookup(o.service)
	if svc == nil {
		return fmt.Errorf("unknown service %q (have %s)", o.service, strings.Join(suite.Names(), ", "))
	}
	if o.static {
		for _, api := range svc.APIs {
			svc.Program(api).Disassemble(w)
		}
		return nil
	}
	reqs := svc.Generate(rand.New(rand.NewSource(o.seed)), o.n)
	sg := alloc.NewStackGroup(0, o.n, true)
	traces, err := svc.TraceBatch(reqs, sg, alloc.PolicySIMR, 32, 8)
	if err != nil {
		return err
	}

	if !o.batchView {
		for t, tr := range traces {
			fmt.Fprintf(w, "-- request %d: api=%s argbytes=%d ops=%d\n",
				t, reqs[t].API, reqs[t].ArgBytes, len(tr))
			for i, op := range tr {
				if i >= o.limit {
					fmt.Fprintf(w, "   ... %d more\n", len(tr)-i)
					break
				}
				extra := ""
				if op.Class.IsMem() {
					extra = fmt.Sprintf(" addr=%#x size=%d", op.Addr, op.Size)
				}
				if op.Class.String() == "branch" {
					extra = fmt.Sprintf(" taken=%v", op.Taken)
				}
				fmt.Fprintf(w, "   %4d pc=%#08x depth=%-4d %-8s%s\n", i, op.PC, op.SP, op.Class, extra)
			}
		}
		return nil
	}

	res, err := simt.RunMinSPPC(traces, o.n, &simt.DefaultSpin)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "batch of %d: %d scalar ops -> %d batch ops, SIMT efficiency %.1f%%\n",
		o.n, res.ScalarOps, len(res.Ops), 100*res.Efficiency())
	// One coalescer scratch for the whole dump: per-op mem.Coalesce
	// calls reuse its buffers instead of setting up fresh ones.
	var (
		mcu   mem.MCUStats
		csc   mem.CoalesceScratch
		lanes [][]uint64
	)
	for i, op := range res.Ops {
		truncated := i >= o.limit
		extra := ""
		if op.Class.IsMem() {
			lanes = lanes[:0]
			for t := range op.Addrs {
				if op.Mask&(1<<uint(t)) == 0 {
					continue
				}
				lanes = append(lanes, op.Addrs[t:t+1:t+1])
			}
			acc, pat := mem.Coalesce(lanes, 32, &mcu, &csc)
			extra = fmt.Sprintf(" mcu=%s accesses=%d", pat, len(acc))
		}
		if truncated {
			continue
		}
		fmt.Fprintf(w, "%5d pc=%#08x %-8s mask=%s lanes=%d%s\n",
			i, op.PC, op.Class, maskBits(op.Mask, o.n), op.ActiveLanes(), extra)
	}
	if shown := len(res.Ops); shown > o.limit {
		fmt.Fprintf(w, "... %d more\n", shown-o.limit)
	}
	fmt.Fprintf(w, "mcu: %d lane accesses -> %d emitted (%d broadcast, %d coalesced, %d divergent ops)\n",
		mcu.LaneAccesses, mcu.Emitted, mcu.Broadcast, mcu.Coalesced, mcu.Divergent)
	return nil
}

func maskBits(m uint64, n int) string {
	var sb strings.Builder
	for t := 0; t < n; t++ {
		if m&(1<<uint(t)) != 0 {
			sb.WriteByte('#')
		} else {
			sb.WriteByte('.')
		}
	}
	return sb.String()
}
