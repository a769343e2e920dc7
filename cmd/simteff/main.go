// Command simteff reproduces the paper's SIMT control-efficiency
// studies: Figure 4 (naive arrival-order batching) and Figure 11
// (per-API and per-API+argument-size batching under both the ideal
// stack-based IPDOM scheme and the MinSP-PC heuristic).
//
// Usage:
//
//	simteff [-requests N] [-seed S] [-fig 4|11] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"simr/internal/cli"
	"simr/internal/core"
	"simr/internal/uservices"
)

func main() {
	requests := flag.Int("requests", core.DefaultRequests, "requests per service (paper: 2400)")
	seed := flag.Int64("seed", 42, "workload random seed")
	fig := flag.Int("fig", 11, "figure to print: 4 (naive only) or 11 (all policies)")
	parallel := flag.Int("parallel", 0, "worker goroutines for the sweep (0 = one per CPU, 1 = sequential)")
	cf := cli.Register(flag.CommandLine, cli.Profile|cli.Metrics|cli.Sample|cli.Interrupt)
	flag.Parse()
	_, stop, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	suite := uservices.NewSuite()
	rows, err := core.EfficiencyStudyParallel(suite, *requests, *seed, *parallel)
	if err != nil {
		log.Fatal(err)
	}

	switch *fig {
	case 4:
		fmt.Println("Figure 4: SIMT control efficiency of naive batching (batch size 32)")
		fmt.Printf("%-18s %8s\n", "service", "naive")
		sum := 0.0
		for _, r := range rows {
			fmt.Printf("%-18s %7.1f%%\n", r.Service, 100*r.Naive)
			sum += r.Naive
		}
		fmt.Printf("%-18s %7.1f%%  (paper: ~68%% average)\n", "average", 100*sum/float64(len(rows)))
	case 11:
		fmt.Println("Figure 11: SIMT control efficiency per batching policy (batch size 32)")
		core.WriteEfficiency(os.Stdout, rows)
		fmt.Println("(paper: 92% ideal stack-based, 91% MinSP-PC with per-API + per-argument-size)")
	default:
		log.Fatalf("unknown figure %d", *fig)
	}
}
