// Command bakerybench runs the repository's experiment suite (E1–E21; see
// docs/experiments.md for the catalogue), or — with -sweep or -scenario —
// a deterministic contention sweep or lock-service scenario.
//
//	bakerybench               # run every experiment
//	bakerybench -run E2,E9    # selected experiments
//	bakerybench -list         # list experiments
//	bakerybench -sweep        # 48-cell scenario grid in virtual time
//	bakerybench -sweep -sweep-workers 4 -sweep-seed 7
//	bakerybench -scenario smoke               # lock-service scenario preset
//	bakerybench -scenario '<spec>' -latency jitter:2,5   # with a latency model
//	bakerybench -scenario smoke -record run.scnlog       # record the event log
//
// The sweeps and scenarios execute deterministically in virtual time, so
// their aggregated tables — including the printed fingerprints — are
// identical on any machine, at any GOMAXPROCS, and for any -sweep-workers
// value. -scenario runs a simulated client fleet (open- or closed-loop
// client classes) against sharded critical sections as single-threaded
// discrete-event loops with latency-model-priced actions, reporting
// acquire-latency percentiles, SLO attainment and reset accounting (see
// docs/scenarios.md and cmd/bakeryserve); a -record'ed log replays
// byte-identically with cmd/bakeryreplay.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bakerypp/internal/harness"
	"bakerypp/internal/mc"
	"bakerypp/internal/profiling"
	"bakerypp/internal/scenario"
)

// main delegates to runMain so that deferred cleanup (profile writing)
// happens before the process exits; os.Exit skips defers.
func main() {
	os.Exit(runMain())
}

func runMain() int {
	var (
		run      = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		workers  = flag.Int("workers", 0, "parallel model-checking goroutines (0 = sequential, -1 = GOMAXPROCS; refinement checks stay sequential)")
		symmetry = flag.Bool("symmetry", false, "process-symmetry reduction for the safety-check experiments (specs declaring full symmetry explore one state per orbit; verdicts unchanged)")
		por      = flag.Bool("por", false, "ample-set partial-order reduction for the safety-check experiments (composes with -symmetry; verdicts unchanged)")
		store    = flag.String("store", "", "visited-set tier for the store-aware experiments (E17) and -bench-json: exact|bitstate, with the ,spill modifier; empty = experiment defaults")

		benchJSON  = flag.String("bench-json", "", "run the model-checking benchmark grid and write it as JSON to this path (e.g. BENCH_mc.json), instead of the experiment suite")
		benchSmall = flag.Bool("bench-small", false, "with -bench-json: run only the quick safety cells (the CI bench-compare gate's grid)")
		compare    = flag.String("compare", "", "with -bench-json: after the run, diff it against this older snapshot and exit nonzero on a states/sec regression past -compare-threshold or any verdict mismatch")
		compareThr = flag.Float64("compare-threshold", 0.7, "acceptable new/old states-per-second ratio for -compare (0.7 = fail on a >30% regression)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")

		sweep        = flag.Bool("sweep", false, "run the deterministic contention sweep instead of the experiment suite")
		sweepWorkers = flag.Int("sweep-workers", 1, "sweep worker pool size (cells in parallel, -1 = GOMAXPROCS; the table is identical for any value)")
		sweepSeed    = flag.Int64("sweep-seed", 1, "base schedule seed for the sweep (two seeds run per cell: seed and seed+1)")
		sweepIters   = flag.Int("sweep-iters", 0, "critical sections per participant per cell run (0 = grid default)")
		sweepCSV     = flag.Bool("sweep-csv", false, "emit the sweep table as CSV")

		latency = flag.String("latency", "unit", "latency model for -scenario: unit, fixed:<d>, jitter:<base>,<spread>, classes:<c>=<dist>;...")
		record  = flag.String("record", "", "with -scenario: write the run's event log to this file (replay with bakeryreplay)")

		scenarioArg = flag.String("scenario", "", "run a lock-service scenario instead of the experiment suite: a preset name (bakeryserve -list) or a full spec; honours -sweep-workers, -sweep-seed, -latency and -record")
	)
	flag.Parse()

	prof, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bakerybench:", err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench: writing profile:", err)
		}
	}()

	var storeOpts *mc.StoreOptions
	if *store != "" {
		so, err := mc.ParseStoreSpec(*store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 2
		}
		storeOpts = &so
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}
	if *compare != "" && *benchJSON == "" {
		fmt.Fprintln(os.Stderr, "bakerybench: -compare needs -bench-json (the fresh snapshot to diff against the old one)")
		return 2
	}
	if *benchJSON != "" {
		cfg := harness.ExpConfig{MCWorkers: *workers, Store: storeOpts}
		var rep *harness.MCBenchReport
		var err error
		if *benchSmall {
			rep, err = harness.RunMCBenchSmall(cfg)
		} else {
			rep, err = harness.RunMCBench(cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 1
		}
		if err := harness.WriteBenchJSON(*benchJSON, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 1
		}
		for _, r := range rep.Records {
			fmt.Printf("%-28s %9d states  %12.0f states/s  %8.3fs  %s\n",
				r.Name, r.States, r.StatesPerSec, r.WallSeconds, r.Verdict)
		}
		fmt.Printf("wrote %d records to %s\n", len(rep.Records), *benchJSON)
		if *compare != "" {
			old, err := harness.ReadMCBenchJSON(*compare)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bakerybench:", err)
				return 1
			}
			cmp := harness.CompareMCBench(old, rep, *compareThr)
			fmt.Printf("comparison against %s (threshold %.2f):\n%s", *compare, *compareThr, cmp)
			if dropped := cmp.DroppedRows(); len(dropped) > 0 {
				fmt.Fprintf(os.Stderr, "bakerybench: warning: %d row(s) of %s were not produced by this run and go unguarded: %s\n",
					len(dropped), *compare, strings.Join(dropped, ", "))
			}
			if cmp.Failed() {
				fmt.Fprintln(os.Stderr, "bakerybench: states/sec regression or verdict mismatch against", *compare)
				return 1
			}
		}
		return 0
	}
	if *scenarioArg != "" {
		spec, err := harness.ResolveScenario(*scenarioArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 2
		}
		opts := scenario.Options{Seed: *sweepSeed, Workers: *sweepWorkers, Latency: *latency}
		var logFile *os.File
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bakerybench:", err)
				return 1
			}
			logFile = f
			opts.Record = f
		}
		res, err := scenario.Run(spec, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 1
		}
		for _, tb := range res.Tables() {
			if *sweepCSV {
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb)
			}
		}
		fmt.Printf("fingerprint: %s\n", res.Fingerprint())
		if logFile != nil {
			if err := logFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bakerybench:", err)
				return 1
			}
			fmt.Printf("recorded event log: %s\n", *record)
		}
		return 0
	}
	if *sweep {
		cfg := harness.DefaultSweep()
		cfg.Workers = *sweepWorkers
		cfg.Seeds = []int64{*sweepSeed, *sweepSeed + 1}
		if *sweepIters > 0 {
			cfg.Iters = *sweepIters
		}
		res, err := harness.RunSweep(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 1
		}
		tb := res.Table()
		if *sweepCSV {
			fmt.Print(tb.CSV())
		} else {
			fmt.Println(tb)
		}
		fmt.Printf("cells: %d  fingerprint: %s\n", len(res.Cells), tb.Fingerprint())
		return 0
	}
	ids := strings.Split(*run, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	cfg := harness.ExpConfig{MCWorkers: *workers, SweepWorkers: *sweepWorkers, Symmetry: *symmetry, POR: *por, Store: storeOpts}
	if err := harness.RunExperiments(os.Stdout, ids, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bakerybench:", err)
		return 1
	}
	return 0
}
