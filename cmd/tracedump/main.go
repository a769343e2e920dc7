// Command tracedump is a debugging utility: it traces a few requests of
// one microservice and prints either the scalar per-request instruction
// streams (the SIMTec view) or the lock-step batch stream with active
// masks (the RPU frontend view).
//
// Usage:
//
//	tracedump -service memc -n 4 [-batch] [-limit 80]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"simr/internal/alloc"
	"simr/internal/mem"
	"simr/internal/simt"
	"simr/internal/uservices"
)

func main() {
	service := flag.String("service", "memc", "service to trace")
	n := flag.Int("n", 4, "number of requests (batch width)")
	batchView := flag.Bool("batch", false, "print the lock-step batch stream instead of scalar traces")
	static := flag.Bool("static", false, "print the static program listing (disassembly) instead of traces")
	limit := flag.Int("limit", 64, "max instructions to print")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	if *n < 1 {
		fmt.Fprintf(os.Stderr, "tracedump: -n must be at least 1, got %d\n", *n)
		os.Exit(1)
	}
	suite := uservices.NewSuite()
	svc := suite.Lookup(*service)
	if svc == nil {
		fmt.Fprintf(os.Stderr, "tracedump: unknown service %q (have %s)\n", *service, strings.Join(suite.Names(), ", "))
		os.Exit(1)
	}
	if *static {
		for _, api := range svc.APIs {
			svc.Program(api).Disassemble(os.Stdout)
		}
		return
	}
	reqs := svc.Generate(rand.New(rand.NewSource(*seed)), *n)
	sg := alloc.NewStackGroup(0, *n, true)
	traces, err := svc.TraceBatch(reqs, sg, alloc.PolicySIMR, 32, 8)
	if err != nil {
		log.Fatal(err)
	}

	if !*batchView {
		for t, tr := range traces {
			fmt.Printf("-- request %d: api=%s argbytes=%d ops=%d\n",
				t, reqs[t].API, reqs[t].ArgBytes, len(tr))
			for i, op := range tr {
				if i >= *limit {
					fmt.Printf("   ... %d more\n", len(tr)-i)
					break
				}
				extra := ""
				if op.Class.IsMem() {
					extra = fmt.Sprintf(" addr=%#x size=%d", op.Addr, op.Size)
				}
				if op.Class.String() == "branch" {
					extra = fmt.Sprintf(" taken=%v", op.Taken)
				}
				fmt.Printf("   %4d pc=%#08x depth=%-4d %-8s%s\n", i, op.PC, op.SP, op.Class, extra)
			}
		}
		return
	}

	res, err := simt.RunMinSPPC(traces, *n, &simt.DefaultSpin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d: %d scalar ops -> %d batch ops, SIMT efficiency %.1f%%\n",
		*n, res.ScalarOps, len(res.Ops), 100*res.Efficiency())
	// One coalescer scratch for the whole dump: per-op mem.Coalesce
	// calls reuse its buffers instead of setting up fresh ones.
	var (
		mcu   mem.MCUStats
		csc   mem.CoalesceScratch
		lanes [][]uint64
	)
	for i, op := range res.Ops {
		truncated := i >= *limit
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
		fmt.Printf("%5d pc=%#08x %-8s mask=%s lanes=%d%s\n",
			i, op.PC, op.Class, maskBits(op.Mask, *n), op.ActiveLanes(), extra)
	}
	if shown := len(res.Ops); shown > *limit {
		fmt.Printf("... %d more\n", shown-*limit)
	}
	fmt.Printf("mcu: %d lane accesses -> %d emitted (%d broadcast, %d coalesced, %d divergent ops)\n",
		mcu.LaneAccesses, mcu.Emitted, mcu.Broadcast, mcu.Coalesced, mcu.Divergent)
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
