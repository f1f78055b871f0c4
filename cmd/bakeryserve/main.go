// Command bakeryserve runs a lock-service scenario: a fleet of simulated
// clients — heterogeneous open- or closed-loop classes with their own
// arrival processes, hold times and latency objectives — contending for sharded
// critical sections arbitrated by a bakery-family algorithm on the
// discrete-event kernel. No goroutine herd: a million simulated clients
// is a normal run.
//
//	bakeryserve -list                      # the preset scenarios
//	bakeryserve -scenario smoke            # run a preset
//	bakeryserve -scenario fleet1m -workers -1
//	bakeryserve -scenario 'name=my;algo=bakerypp;shards=8;n=4;m=64;clients=50000;class=a/1/poisson:30/fixed:4/100'
//	bakeryserve -scenario smoke -record run.scnlog   # replay with bakeryreplay
//
// The report — per-class acquire-latency percentiles and SLO
// attainment, Jain fairness across classes, overflow/reset and FCFS
// accounting — is deterministic: byte-identical for any -workers value
// and GOMAXPROCS, and a -record'ed event log replays bit-identically
// through cmd/bakeryreplay.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bakerypp/internal/harness"
	"bakerypp/internal/scenario"
)

func main() {
	os.Exit(runMain())
}

func runMain() int {
	var (
		spec    = flag.String("scenario", "smoke", "scenario to run: a preset name (see -list) or a full spec (name=...;algo=...;shards=...;n=...;m=...;clients=...;class=...)")
		list    = flag.Bool("list", false, "list the preset scenarios and exit")
		seed    = flag.Int64("seed", 1, "base seed for every random stream of the run")
		workers = flag.Int("workers", 0, "shard worker pool size (0 = sequential, -1 = GOMAXPROCS; the report is identical for any value)")
		latency = flag.String("latency", "unit", "latency model pricing worker protocol actions: unit, fixed:<d>, jitter:<base>,<spread>, classes:<c>=<dist>;...")
		record  = flag.String("record", "", "write the run's event log to this file (replay with bakeryreplay)")
		csv     = flag.Bool("csv", false, "emit the report tables as CSV")
	)
	flag.Parse()

	if *list {
		for _, name := range harness.ScenarioPresets() {
			s, err := harness.ResolveScenario(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bakeryserve:", err)
				return 1
			}
			fmt.Printf("%-10s %s\n", name, s.String())
		}
		return 0
	}

	s, err := harness.ResolveScenario(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bakeryserve:", err)
		return 2
	}
	opts := scenario.Options{Seed: *seed, Workers: *workers, Latency: *latency}
	var logFile *os.File
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakeryserve:", err)
			return 1
		}
		logFile = f
		opts.Record = f
	}
	start := time.Now()
	res, err := scenario.Run(s, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bakeryserve:", err)
		return 1
	}
	wall := time.Since(start)
	for _, tb := range res.Tables() {
		if *csv {
			fmt.Print(tb.CSV())
		} else {
			fmt.Println(tb)
		}
	}
	fmt.Printf("fingerprint: %s\n", res.Fingerprint())
	// Wall-clock facts are honest non-determinism: they go to stderr so
	// stdout stays byte-identical across machines and worker counts.
	fmt.Fprintf(os.Stderr, "bakeryserve: %d events in %.2fs (%.0f events/s)\n",
		res.Events, wall.Seconds(), float64(res.Events)/wall.Seconds())
	if logFile != nil {
		if err := logFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bakeryserve:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bakeryserve: recorded event log: %s\n", *record)
	}
	return 0
}
