// Command scaling prints Figure 5: off-chip DRAM bandwidth by memory
// generation and the per-socket thread count needed to consume it at
// the industry provisioning of ~2 GB/s per thread — the paper's Key
// Observation #5 that future sockets need 256-512 threads.
//
// With -bench it instead measures the simulator's own worker-pool
// scaling: it times the chip study sequentially and at -parallel
// workers, checks the outputs are byte-identical, and prints the
// speedup.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"simr/internal/cli"
	"simr/internal/core"
	"simr/internal/uservices"
)

func main() {
	bench := flag.Bool("bench", false, "time the chip-study sweep sequential vs parallel instead of printing Figure 5")
	requests := flag.Int("requests", 240, "requests per service for -bench")
	seed := flag.Int64("seed", 42, "workload seed for -bench")
	parallel := flag.Int("parallel", 0, "worker goroutines for -bench (0 = one per CPU)")
	cf := cli.Register(flag.CommandLine, cli.Profile|cli.Metrics|cli.Interrupt)
	flag.Parse()
	_, stop, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	if *bench {
		benchSweep(*requests, *seed, *parallel)
		return
	}

	fmt.Println("Figure 5: off-chip DRAM bandwidth and thread scaling")
	core.WriteFig5(os.Stdout, core.Fig5Scaling())
	fmt.Println("\n(paper: up to 256 threads/socket with DDR5, 512 with DDR6/HBM)")
}

// benchSweep runs the chip study twice — one worker, then the
// requested goroutine pool — verifies the rendered figures match byte
// for byte, and reports the wall-clock ratio.
func benchSweep(requests int, seed int64, parallel int) {
	if parallel <= 0 {
		parallel = core.DefaultWorkers()
	}
	suite := uservices.NewSuite()

	render := func(rows []core.ChipRow) []byte {
		var buf bytes.Buffer
		core.WriteFig10(&buf, rows)
		core.WriteFig14(&buf, rows)
		core.WriteFig19(&buf, rows)
		core.WriteFig20(&buf, rows)
		core.WriteFig21(&buf, rows)
		return buf.Bytes()
	}

	t0 := time.Now()
	seqRows, err := core.ChipStudyParallel(suite, requests, seed, false, 1)
	if err != nil {
		log.Fatal(err)
	}
	seqDur := time.Since(t0)

	t1 := time.Now()
	parRows, err := core.ChipStudyParallel(suite, requests, seed, false, parallel)
	if err != nil {
		log.Fatal(err)
	}
	parDur := time.Since(t1)
	parTag := fmt.Sprintf("parallel (%d workers)", parallel)

	seqOut, parOut := render(seqRows), render(parRows)
	fmt.Printf("chip study, %d requests/service, seed %d\n", requests, seed)
	fmt.Printf("  sequential (1 worker):   %v\n", seqDur.Round(time.Millisecond))
	fmt.Printf("  %-24s %v\n", parTag+":", parDur.Round(time.Millisecond))
	fmt.Printf("  speedup:                 %.2fx\n", float64(seqDur)/float64(parDur))
	if bytes.Equal(seqOut, parOut) {
		fmt.Println("  outputs:                 byte-identical")
	} else {
		log.Fatal("outputs differ between sequential and parallel runs")
	}
}
