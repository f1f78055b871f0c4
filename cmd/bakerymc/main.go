// Command bakerymc model-checks the repository's mutual-exclusion
// specifications — the reproduction of the paper's TLC verification.
//
// Examples:
//
//	bakerymc -algo bakerypp -n 3 -m 3               # verify Bakery++
//	bakerymc -algo bakery -n 2 -m 3 -trace          # exhibit the overflow
//	bakerymc -algo modbakery -n 2 -m 2 -trace       # modulo strawman breaks
//	bakerymc -algo bakerypp -n 2 -m 2 -crash        # with crash-restart
//	bakerymc -algo bakerypp -n 3 -m 2 -starve 2     # Section 6.3 livelock
//	bakerymc -algo bakerypp -n 5 -m 2 -starve 4 -workers 2  # the same at N=5, 12.9M reset states
//	bakerymc -algo bakerypp -n 5 -m 2 -symmetry -por -workers -1  # composed reductions
//	bakerymc -algo bakerypp -n 6 -m 2 -symmetry -store bitstate  # probabilistic, smallest footprint
//	bakerymc -algo bakerypp -n 4 -m 2 -store exact,spill         # exact with mmap spill
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bakerypp/internal/gcl"
	"bakerypp/internal/mc"
	"bakerypp/internal/profiling"
	"bakerypp/internal/specs"
)

// main delegates to run so that deferred cleanup (profile writing) happens
// before the process exits; os.Exit skips defers.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		algo      = flag.String("algo", "bakerypp", "algorithm: "+strings.Join(specs.Names(), ", "))
		n         = flag.Int("n", 2, "number of processes")
		m         = flag.Int("m", 4, "register capacity M")
		fine      = flag.Bool("fine", false, "fine-grained doorway (one register read per step)")
		noGate    = flag.Bool("nogate", false, "bakery++ without the L1 gate (ablation)")
		eqCheck   = flag.Bool("eqcheck", false, "bakery++ with = M instead of >= M (ablation)")
		split     = flag.Bool("splitreset", false, "bakery++ with two-step reset (ablation)")
		crash     = flag.Bool("crash", false, "add crash/restart transitions (paper conditions 3-4)")
		deadlock  = flag.Bool("deadlock", false, "also detect deadlocks")
		maxStates = flag.Int("maxstates", 0, "state bound (0 = default)")
		workers   = flag.Int("workers", 0, "parallel exploration goroutines for check, -starve and -fcfs (0 = sequential, -1 = GOMAXPROCS; output is identical for any value)")
		symmetry  = flag.Bool("symmetry", false, "process-symmetry reduction: explore one state per permutation orbit (specs declaring full symmetry only; deterministic for any -workers; composes with -fcfs, which canonicalizes the non-pinned pids; does not apply to -starve, whose cycle analysis runs on the dead-cursor-reset graph)")
		por       = flag.Bool("por", false, "ample-set partial-order reduction: compress independent local actions instead of interleaving them (composes with -symmetry; deterministic for any -workers; cycle-sensitive -starve/-fcfs and -crash runs fall back to the full interleaving, see docs/model-checking.md)")
		trace     = flag.Bool("trace", false, "print the counterexample trace, if any")
		starve    = flag.Int("starve", -1, "search for a Section 6.3 livelock pinning this pid at l1, on the graph with dead scan cursors reset (an exact reduction; -symmetry and -por do not apply)")
		fcfs      = flag.String("fcfs", "", "check FCFS for a pid pair, e.g. -fcfs 0,1")
		store     = flag.String("store", "exact", "visited-set tier: exact|bitstate, with the ,spill modifier (e.g. bitstate, exact,spill, bitstate,spill). The lossy bitstate mode prints a probabilistic-verdict banner and is refused for -starve/-fcfs")
		storeSeed = flag.Uint64("store-seed", 0, "hash seed for the lossy store modes (runs are deterministic per seed for any -workers)")
		listing   = flag.Bool("listing", false, "print the algorithm's control-flow skeleton and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	prof, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bakerymc: %v\n", err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "bakerymc: writing profile: %v\n", err)
		}
	}()

	storeOpts, err := mc.ParseStoreSpec(*store)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bakerymc: %v\n", err)
		return 2
	}
	storeOpts.Seed = *storeSeed

	p, err := specs.Get(*algo, specs.Config{
		N: *n, M: *m, Fine: *fine, NoGate: *noGate, EqCheck: *eqCheck, SplitReset: *split,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts := mc.Options{
		Invariants: []mc.Invariant{mc.Mutex(), mc.NoOverflow()},
		Crash:      *crash,
		Deadlock:   *deadlock,
		MaxStates:  *maxStates,
		Workers:    *workers,
		Symmetry:   *symmetry,
		POR:        *por,
		Store:      storeOpts,
	}
	if *por && (*fcfs != "" || *starve >= 0) {
		fmt.Fprintln(os.Stderr, "bakerymc: note: -por does not apply to -starve/-fcfs (cycle- and identity-sensitive properties need every interleaving)")
	}
	if *symmetry && *fcfs == "" && *starve >= 0 {
		fmt.Fprintln(os.Stderr, "bakerymc: note: -symmetry does not apply to -starve (the cycle analysis runs on the dead-cursor-reset graph, which the symmetry quotient does not shrink)")
	}

	if *listing {
		fmt.Print(p.Listing())
		return 0
	}

	if *fcfs != "" {
		var first, second int
		if _, err := fmt.Sscanf(*fcfs, "%d,%d", &first, &second); err != nil {
			fmt.Fprintf(os.Stderr, "bakerymc: -fcfs wants \"first,second\", got %q\n", *fcfs)
			return 2
		}
		if first < 0 || first >= p.N || second < 0 || second >= p.N {
			fmt.Fprintf(os.Stderr, "bakerymc: -fcfs pair (%d,%d) out of range: pids must lie in [0,%d) for -n %d\n",
				first, second, p.N, p.N)
			return 2
		}
		if first == second {
			fmt.Fprintf(os.Stderr, "bakerymc: -fcfs pair (%d,%d) names the same process twice; FCFS relates two distinct processes\n",
				first, second)
			return 2
		}
		res, err := mc.CheckFCFS(p, first, second, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bakerymc: %v\n", err)
			return 2
		}
		fmt.Println(res.String())
		if !res.Holds {
			if *trace {
				fmt.Printf("witness:\n%s", res.Witness.String())
			}
			return 1
		}
		return 0
	}

	if *starve >= 0 {
		if *starve >= p.N {
			fmt.Fprintf(os.Stderr, "bakerymc: -starve pid %d out of range: pids lie in [0,%d) for -n %d\n",
				*starve, p.N, p.N)
			return 2
		}
		live := specs.LivenessOf(p)
		if live.StarveAt == "" {
			fmt.Fprintf(os.Stderr, "bakerymc: %s declares no gate label to starve at\n", p.Name)
			return 2
		}
		g, err := mc.BuildGraph(p, mc.Options{MaxStates: opts.MaxStates, Workers: opts.Workers, Store: opts.Store})
		if err != nil {
			if opts.Store.Lossy() {
				fmt.Fprintf(os.Stderr, "bakerymc: %v\n", err)
				return 2
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		l1 := p.LabelIndex(live.StarveAt)
		var fast []int
		for pid := 0; pid < p.N; pid++ {
			if pid != *starve {
				fast = append(fast, pid)
			}
		}
		rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
			return pr.PC(s, *starve) == l1
		}, fast)
		if rep == nil {
			fmt.Printf("%s: no livelock cycle pins process %d at %s (graph: %d states)\n",
				p.Name, *starve, live.StarveAt, g.NumStates())
			return 0
		}
		fmt.Printf("%s: livelock cycle found — %d states keep process %d at %s; per-process moves %v; entry depth %d\n",
			p.Name, rep.ComponentSize, *starve, live.StarveAt, rep.MovesByPid, rep.EntryLen)
		if *trace {
			fmt.Printf("path into the cycle:\n%s", rep.Entry.String())
			if len(rep.Cycle) > 0 {
				cyc := mc.Trace{Prog: p, Init: rep.Entry.Init, Steps: rep.Cycle}
				if n := len(rep.Entry.Steps); n > 0 {
					cyc.Init = rep.Entry.Steps[n-1].State
				}
				fmt.Printf("verified concrete cycle:\n%s", cyc.String())
			}
		}
		return 0
	}

	res := mc.Check(p, opts)
	if *symmetry && !res.Symmetry {
		fmt.Fprintf(os.Stderr, "bakerymc: note: %s does not support symmetry reduction (declared asymmetric or too many processes); ran the full search\n", p.Name)
	}
	if *por && !res.POR {
		fmt.Fprintf(os.Stderr, "bakerymc: note: -por fell back to the full search (%s)\n", porFallbackReason(opts))
	}
	fmt.Println(res.String())
	if banner := res.Store.Banner(); banner != "" {
		fmt.Println(banner)
		fmt.Printf("run fingerprint: %016x (stable per -store-seed for any -workers)\n", res.RunFingerprint())
	}
	if res.Violation != nil {
		if *trace {
			fmt.Printf("counterexample:\n%s", res.Violation.Trace.String())
		}
		return 1
	}
	if res.Deadlock != nil {
		if *trace {
			fmt.Printf("deadlock trace:\n%s", res.Deadlock.String())
		}
		return 1
	}
	return 0
}

// porFallbackReason names why the safety check dropped -por. Its stock
// invariants declare their observations, so only crash transitions and the
// bitstate store (which stores no depths for the ample proviso) remain.
func porFallbackReason(opts mc.Options) string {
	var why []string
	if opts.Crash {
		why = append(why, "crash transitions make no action safely independent")
	}
	if opts.Store.Mode == mc.StoreBitstate {
		why = append(why, "the bitstate store keeps no depths for the ample proviso")
	}
	return strings.Join(why, "; ")
}
