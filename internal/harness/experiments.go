package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"bakerypp/internal/algorithms"
	"bakerypp/internal/core"
	"bakerypp/internal/gcl"
	"bakerypp/internal/mc"
	"bakerypp/internal/sched"
	"bakerypp/internal/specs"
	"bakerypp/internal/stats"
	"bakerypp/internal/workload"
)

// ExpConfig tunes how the experiments execute without changing what they
// measure; the zero value reproduces the recorded EXPERIMENTS.md settings.
type ExpConfig struct {
	// MCWorkers is passed through to mc.Options.Workers for every
	// mc.Check and mc.BuildGraph call an experiment makes: 0 and 1 expand
	// states sequentially, a larger count on that many goroutines, -1 one
	// per GOMAXPROCS. Results are identical either way (exploration is
	// deterministic); only wall-clock time changes. The FCFS checks (E6,
	// E16) run on the same engine and take it too; the bounded refinement
	// checker (E11) has its own exploration loop and always runs
	// sequentially.
	MCWorkers int
	// SweepWorkers sizes the worker pool of the deterministic contention
	// sweep (E13): 0/1 sequential, a positive count that many cells in
	// parallel. The sweep's aggregated table is byte-identical regardless
	// — that is the property E13 demonstrates.
	SweepWorkers int
	// Symmetry turns on process-symmetry reduction for the safety-check
	// experiments (E1, E2, E8, E9, E12): specs that declare full symmetry
	// explore one state per permutation orbit, shrinking the printed state
	// counts without changing any verdict. The graph analyses (E7, E16)
	// never reduce by symmetry: they run on the dead-cursor-reset graph,
	// which the quotient does not shrink. E14 and E16 compare reduced
	// against full explicitly (E16's FCFS rows) and ignore this knob.
	Symmetry bool
	// POR turns on ample-set partial-order reduction for the same
	// safety-check experiments: independent local actions are compressed
	// instead of interleaved, shrinking state counts further without
	// changing any verdict. Composes with Symmetry. The graph-based
	// analyses (E7, E16) and the monitor/refinement checkers (E6, E11)
	// never apply it. E15 compares all four reduction modes explicitly and
	// ignores this knob.
	POR bool
	// Store overrides the visited-set tier for the store-aware surfaces:
	// nil leaves every experiment on its recorded defaults (RunMCBench
	// then appends the store-mode grid and E17 prints its full mode
	// table), while a parsed mc.StoreOptions pins that single tier — the
	// shape CI's memory-smoke uses to run one mode under GOMEMLIMIT.
	// Exactness-needing experiments (graph, FCFS, refinement) ignore a
	// lossy override rather than fail; mc.planFor would refuse it.
	Store *mc.StoreOptions
}

// Experiment is one reproducible experiment from the per-experiment index
// in DESIGN.md. Run writes its tables to w; EXPERIMENTS.md records the
// output of cmd/bakerybench, which runs them all.
type Experiment struct {
	ID    string
	Title string
	// Claim cites the paper statement the experiment substantiates.
	Claim string
	Run   func(w io.Writer, cfg ExpConfig) error
}

// Experiments returns the full suite in ID order.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "Model-checked safety of Bakery++ (TLC reproduction)",
			"Section 6.2 + TLC result: Bakery++ satisfies mutual exclusion; Section 6.1: no overflow", runE1},
		{"E2", "Overflow invariant: Bakery violates, Bakery++ never",
			"Section 3 problem statement; Section 6.1 Theorem", runE2},
		{"E3", "Ticket growth and register wrap on real goroutines",
			"Section 3 scenario; Section 4: overflow 'in less than a minute' on 32-bit", runE3},
		{"E4", "Throughput parity away from the bound",
			"Section 7: same temporal complexity when no overflow pressure", runE4},
		{"E5", "The price of overflow avoidance near the bound",
			"Section 7: cost of resets when overflows would be frequent", runE5},
		{"E6", "First-come-first-served order",
			"Section 1.2 property 1; Section 4 comparison with Peterson", runE6},
		{"E7", "The L1 livelock scenario",
			"Section 6.3 liveness argument", runE7},
		{"E8", "Space and structure versus related work",
			"Section 4 related work; Section 7 spatial complexity", runE8},
		{"E9", "Naive modulo arithmetic is unsafe (approach-1 strawman)",
			"Section 4: prior work must redefine operators, not just wrap", runE9},
		{"E10", "More customers than tickets (Question One)",
			"Section 8.1 open question", runE10},
		{"E11", "Bakery++ observably refines Bakery",
			"Section 6.2: every execution of Bakery++ is a valid execution of Bakery", runE11},
		{"E12", "Safe (flickering) registers",
			"Section 1.2 property 4: a read overlapping a write may return any value", runE12},
		{"E13", "Deterministic contention sweep (virtual-time scenario grid)",
			"Sections 3/6.3/7 operational claims, reproducible on any core count", runE13},
		{"E14", "Process-symmetry reduction: quotient vs full exploration",
			"Scaling the Section 6.2 TLC-style verification: Clarke/Emerson symmetry reduction (TLC SYMMETRY analog) preserves every verdict at a fraction of the states", runE14},
		{"E15", "Composing reductions: none / symmetry / por / both",
			"Scaling the Section 6.2 TLC-style verification further: ample-set partial-order reduction (the SPIN/TLC-family pairing) multiplies with the symmetry quotient while preserving every verdict, including the modbakery strawman's violation", runE15},
		{"E16", "Liveness under reduction: starvation/no-progress on the reset graph, FCFS full vs pinned",
			"Section 6.3 livelock and the global-progress question at scales the full graph cannot reach: the cycle analyses run on the dead-cursor-reset graph, an exact bisimulation, with every lasso replayed as a concrete execution, and the FCFS monitor runs on pinned-orbit keys with full-vs-pinned verdict parity enforced", runE16},
		{"E17", "Beyond-RAM state stores: exact / bitstate, in the heap or spilled, at a fixed spec",
			"Scaling the Section 6.2 TLC-style verification past memory: bitstate hashing (SPIN's supertrace) and an mmap spill tier trade heap residency — and, for the lossy tier, an explicitly bounded omission risk — for reach, with verdict parity against the exact baseline", runE17},
		{"E18", "Latency-percentile contention sweep (closed-loop scenario, multi-seed)",
			"Section 7 temporal-complexity claims restated as falsifiable queueing predictions: with closed-loop clients re-requesting right after service, Bakery++'s FCFS doorway makes the acquire tail grow with N, while closed-loop clients with exponential think time (mean 80) overlap less and keep the tail below it — tested per seed on one-shard lock-service scenarios with a jittered latency model", runE18},
		{"E19", "Entry-gate reset frequency vs ticket budget (scenario fleet, multi-seed)",
			"Section 6.1 reset rule + Section 7 reset cost, restated as a falsifiable queueing prediction: at moderate bursty load resets fire only when a busy period's ticket excursion reaches M, so they rise super-linearly as M shrinks — not the linear 1/M a saturated fleet shows", runE19},
		{"E20", "The entry gate under adversarial preemption: overflow becomes bounded waiting, never starvation",
			"Section 6.1 Theorem + Section 6.3 liveness argument, operationally: with a tiny ticket budget and preemption-prone step pricing the gate fires constantly, yet no ticket overflows, no admitted client is stranded, and the extra acquire latency is bounded against a generous budget", runE20},
		{"E21", "FCFS under ticket wrap: the modulo strawman degrades with contention, Bakery++ does not",
			"Section 1.2 property 1 + Section 4 (prior work must redefine operators, not just wrap): naive modulo tickets invert doorway order ever more as contention grows, while Bakery++'s FCFS violation count stays zero on the identical fleet", runE21},
	}
}

// RunExperiments runs the selected experiment IDs ("all" or empty = all).
// An optional ExpConfig tunes execution (e.g. parallel model checking);
// omitted, the defaults reproduce the recorded tables.
func RunExperiments(w io.Writer, ids []string, cfgs ...ExpConfig) error {
	var cfg ExpConfig
	if len(cfgs) > 0 {
		cfg = cfgs[0]
	}
	want := map[string]bool{}
	for _, id := range ids {
		if id == "all" {
			want = nil
			break
		}
		want[id] = true
	}
	ran := 0
	for _, e := range Experiments() {
		if want != nil && !want[e.ID] {
			continue
		}
		fmt.Fprintf(w, "### %s: %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "Paper claim: %s\n\n", e.Claim)
		start := time.Now()
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("harness: no experiment matched %v", ids)
	}
	return nil
}

func safetyInvariants() []mc.Invariant {
	return []mc.Invariant{mc.Mutex(), mc.NoOverflow()}
}

func verdict(r *mc.Result) string {
	switch {
	case r.Violation != nil:
		return "VIOLATION:" + r.Violation.Invariant
	case r.Deadlock != nil:
		return "DEADLOCK"
	case !r.Complete:
		return "incomplete"
	default:
		return "verified"
	}
}

func runE1(w io.Writer, cfg ExpConfig) error {
	tb := stats.NewTable("Bakery++ safety verification", "variant", "N", "M", "crash", "states", "transitions", "verdict")
	type row struct {
		cfg   specs.Config
		crash bool
	}
	rows := []row{
		{specs.Config{N: 2, M: 2}, false},
		{specs.Config{N: 2, M: 4}, false},
		{specs.Config{N: 3, M: 2}, false},
		{specs.Config{N: 3, M: 3}, false},
		{specs.Config{N: 2, M: 3, Fine: true}, false},
		{specs.Config{N: 3, M: 2, Fine: true}, false},
		{specs.Config{N: 2, M: 3, SplitReset: true}, false},
		{specs.Config{N: 2, M: 3, EqCheck: true}, false},
		{specs.Config{N: 3, M: 2, NoGate: true}, false},
		{specs.Config{N: 2, M: 2}, true},
		{specs.Config{N: 3, M: 2}, true},
	}
	for _, r := range rows {
		p := specs.BakeryPP(r.cfg)
		res := mc.Check(p, mc.Options{Invariants: safetyInvariants(), Crash: r.crash, Workers: cfg.MCWorkers, Symmetry: cfg.Symmetry, POR: cfg.POR})
		tb.AddRow(p.Name, r.cfg.N, r.cfg.M, r.crash, res.States, res.Transitions, verdict(res))
	}
	_, err := fmt.Fprintln(w, tb)
	return err
}

func runE2(w io.Writer, cfg ExpConfig) error {
	tb := stats.NewTable("No-overflow invariant across algorithms", "algorithm", "N", "M", "crash", "verdict", "trace len")
	type entry struct {
		p     *gcl.Prog
		crash bool
	}
	entries := []entry{
		{specs.Bakery(specs.Config{N: 2, M: 3}), false},
		{specs.Bakery(specs.Config{N: 3, M: 2}), false},
		{specs.Bakery(specs.Config{N: 2, M: 2, Fine: true}), false},
		{specs.BakeryPP(specs.Config{N: 2, M: 3}), false},
		{specs.BakeryPP(specs.Config{N: 3, M: 2}), false},
		{specs.BlackWhite(3), false},
		{specs.BlackWhite(2), true},
		{specs.ModBakery(2, 2), false},
	}
	var bakeryTrace *mc.Trace
	for _, e := range entries {
		res := mc.Check(e.p, mc.Options{Invariants: []mc.Invariant{mc.NoOverflow()}, Crash: e.crash, Workers: cfg.MCWorkers, Symmetry: cfg.Symmetry, POR: cfg.POR})
		tl := 0
		if res.Violation != nil {
			tl = res.Violation.Trace.Len()
			if bakeryTrace == nil && e.p.Name == "bakery" {
				tr := res.Violation.Trace
				bakeryTrace = &tr
			}
		}
		tb.AddRow(e.p.Name, e.p.N, e.p.M, e.crash, verdict(res), tl)
	}
	fmt.Fprintln(w, tb)
	if bakeryTrace != nil {
		fmt.Fprintf(w, "Shortest Bakery overflow counterexample (N=2, M=3):\n%s\n", bakeryTrace.String())
	}
	_, err := fmt.Fprintln(w, "Note: blackwhite's bound N only holds crash-free; under crash-restart its tickets regrow (see row with crash=true). Bakery++ holds M in both fault models.")
	return err
}

func runE3(w io.Writer, _ ExpConfig) error {
	const n = 4
	// Measure ticket growth rate on ideal registers under sustained
	// contention.
	ideal := algorithms.NewBakery(n)
	res := Run(RunConfig{Lock: ideal, N: n, Iters: 10000})
	rate := float64(ideal.MaxTicket()) / res.Elapsed.Seconds()
	fmt.Fprintf(w, "Ideal-register Bakery, %d participants, sustained contention: max ticket %d in %v (≈ %.0f tickets/sec)\n\n",
		n, ideal.MaxTicket(), res.Elapsed.Round(time.Millisecond), rate)

	tb := stats.NewTable("Predicted time to first overflow at measured growth rate",
		"register width", "capacity M", "time to overflow")
	for _, bits := range []int{8, 16, 32, 64} {
		cap := float64(uint64(1)<<uint(bits) - 1)
		var eta string
		if rate > 0 {
			secs := cap / rate
			switch {
			case secs < 120:
				eta = fmt.Sprintf("%.1f s", secs)
			case secs < 7200:
				eta = fmt.Sprintf("%.1f min", secs/60)
			case secs < 48*3600:
				eta = fmt.Sprintf("%.1f h", secs/3600)
			default:
				eta = fmt.Sprintf("%.2g years", secs/(365*24*3600))
			}
		} else {
			eta = "n/a"
		}
		tb.AddRow(fmt.Sprintf("%d-bit", bits), fmt.Sprintf("%.0f", cap), eta)
	}
	fmt.Fprintln(w, tb)

	tb2 := stats.NewTable("Live wrapped-register runs (4 participants, sustained)",
		"lock", "width", "ops", "overflows", "mutex violations", "max concurrency", "resets")
	wrapped := algorithms.NewBakeryForBits(n, 8)
	r2 := Run(RunConfig{Lock: wrapped, N: n, Iters: 10000})
	tb2.AddRow(wrapped.Name(), "8-bit", r2.Ops, wrapped.Overflows(), r2.Violations, r2.MaxConcurrency, "-")

	wrapped12 := algorithms.NewBakeryForBits(n, 12)
	r3 := Run(RunConfig{Lock: wrapped12, N: n, Iters: 10000})
	tb2.AddRow(wrapped12.Name(), "12-bit", r3.Ops, wrapped12.Overflows(), r3.Violations, r3.MaxConcurrency, "-")

	bpp := core.NewForBits(n, 8)
	r4 := Run(RunConfig{Lock: bpp, N: n, Iters: 10000})
	tb2.AddRow(bpp.Name(), "8-bit", r4.Ops, bpp.Overflows(), r4.Violations, r4.MaxConcurrency, bpp.Resets())
	fmt.Fprintln(w, tb2)

	// Figure analog: the live ticket value over time, sampled from the
	// interleaving simulator. Classic Bakery climbs without bound;
	// Bakery++ saws between 0 and M.
	fmt.Fprintln(w, "Ticket growth over 400k simulator steps (each column = bucket mean, scaled to series max):")
	grow, err := sched.Run(specs.Bakery(specs.Config{N: 3, M: 1 << 14}),
		sched.Options{Steps: 400000, Seed: 7, SampleEvery: 500})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  bakery   (max %5d): %s\n", grow.MaxTicket, stats.Sparkline(grow.TicketSeries, 72))
	saw, err := sched.Run(specs.BakeryPP(specs.Config{N: 3, M: 7}),
		sched.Options{Steps: 400000, Seed: 7, SampleEvery: 500})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  bakery++ (max %5d): %s\n", saw.MaxTicket, stats.Sparkline(saw.TicketSeries, 72))
	_, err = fmt.Fprintln(w)
	return err
}

// lockCtor pairs a display name with a fresh-instance constructor so runs
// can be repeated on clean state.
type lockCtor struct {
	name string
	mk   func(n int) Lock
}

func lockCtors() []lockCtor {
	return []lockCtor{
		{"bakery", func(n int) Lock { return algorithms.NewBakery(n) }},
		{"bakery++", func(n int) Lock { return core.New(n, 1<<30) }},
		{"black-white", func(n int) Lock { return algorithms.NewBlackWhite(n) }},
		{"peterson-filter", func(n int) Lock { return algorithms.NewPeterson(n) }},
		{"szymanski", func(n int) Lock { return algorithms.NewSzymanski(n) }},
		{"tournament", func(n int) Lock { return algorithms.NewTournament(n) }},
		{"ticket-faa", func(n int) Lock { return algorithms.NewTicket(n) }},
		{"tas", func(n int) Lock { return algorithms.NewTAS(n) }},
		{"ttas", func(n int) Lock { return algorithms.NewTTAS(n) }},
	}
}

// comparisonLocks builds one fresh instance of every lock for n
// participants; Bakery++ gets a capacity far from its bound.
func comparisonLocks(n int) []Lock {
	ctors := lockCtors()
	out := make([]Lock, 0, len(ctors))
	for _, c := range ctors {
		out = append(out, c.mk(n))
	}
	return out
}

// medianThroughput runs the workload three times on fresh lock instances
// and returns the median critical-sections-per-second, damping scheduler
// noise in the short runs.
func medianThroughput(ctor lockCtor, n, iters int, pat workload.Pattern) (float64, error) {
	vals := make([]float64, 0, 3)
	for rep := 0; rep < 3; rep++ {
		res := Run(RunConfig{Lock: ctor.mk(n), N: n, Iters: iters, Pattern: pat, Seed: int64(n*10 + rep)})
		if res.Violations != 0 {
			return 0, fmt.Errorf("%s violated mutual exclusion", ctor.name)
		}
		vals = append(vals, res.Throughput())
	}
	sort.Float64s(vals)
	return vals[1], nil
}

func runE4(w io.Writer, _ ExpConfig) error {
	for _, pat := range []workload.Pattern{workload.Sustained(), workload.ThinkHeavy(200)} {
		tb := stats.NewTable(fmt.Sprintf("Throughput, %s workload (critical sections/sec, median of 3)", pat.Name),
			"lock", "N=2", "N=4", "N=8")
		for _, ctor := range lockCtors() {
			var cells [3]string
			for col, n := range []int{2, 4, 8} {
				thr, err := medianThroughput(ctor, n, 4000, pat)
				if err != nil {
					return err
				}
				cells[col] = stats.FormatRate(thr)
			}
			tb.AddRow(ctor.name, cells[0], cells[1], cells[2])
		}
		fmt.Fprintln(w, tb)
	}

	lt := stats.NewTable("Acquisition latency, sustained, N=4 (nanoseconds)",
		"lock", "p50", "p90", "p99", "max")
	for _, l := range comparisonLocks(4) {
		res := Run(RunConfig{Lock: l, N: 4, Iters: 4000, MeasureLatency: true, Seed: 99})
		if res.Violations != 0 {
			return fmt.Errorf("%s violated mutual exclusion during latency run", l.Name())
		}
		h := res.Latency
		lt.AddRow(l.Name(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
	}
	_, err := fmt.Fprintln(w, lt)
	return err
}

func runE5(w io.Writer, _ ExpConfig) error {
	const n = 4
	tb := stats.NewTable("Bakery++ overflow pressure (4 participants, sustained)",
		"capacity M", "ops", "throughput", "resets", "resets/op", "gate waits/op")
	for _, m := range []int64{4, 8, 64, 1 << 20} {
		l := core.New(n, m)
		res := Run(RunConfig{Lock: l, N: n, Iters: 8000})
		if res.Violations != 0 {
			return fmt.Errorf("bakery++ violated mutual exclusion at M=%d", m)
		}
		ops := float64(res.Ops)
		tb.AddRow(m, res.Ops, stats.FormatRate(res.Throughput()),
			l.Resets(), float64(l.Resets())/ops, float64(l.GateWaits())/ops)
	}
	_, err := fmt.Fprintln(w, tb)
	return err
}

func runE6(w io.Writer, cfg ExpConfig) error {
	tb := stats.NewTable("FCFS order in the interleaving simulator (N=3, 300k steps, random scheduler)",
		"algorithm", "cs entries", "doorways", "FCFS inversions", "fairness ratio")
	progs := []*gcl.Prog{
		specs.Bakery(specs.Config{N: 3, M: 1 << 14}),
		specs.BakeryPP(specs.Config{N: 3, M: 4}),
		specs.BlackWhite(3),
		specs.Peterson(3),
		specs.Szymanski(3),
	}
	for _, p := range progs {
		st, err := sched.Run(p, sched.Options{Steps: 300000, Seed: 11})
		if err != nil {
			return err
		}
		var doorways int64
		for _, d := range st.Doorways {
			doorways += d
		}
		tb.AddRow(p.Name, st.TotalCS(), doorways, st.FCFSInversions, st.FairnessRatio())
	}
	fmt.Fprintln(w, tb)

	tb2 := stats.NewTable("FCFS as a model-checked property (monitor automaton over all interleavings)",
		"algorithm", "pair (first,second)", "product states", "verdict")
	checks := []struct {
		p      *gcl.Prog
		fs     [2]int
		bounds int
	}{
		{specs.BakeryPP(specs.Config{N: 2, M: 2}), [2]int{0, 1}, 0},
		{specs.BakeryPP(specs.Config{N: 2, M: 2}), [2]int{1, 0}, 0},
		{specs.BakeryPP(specs.Config{N: 3, M: 2}), [2]int{2, 0}, 0},
		{specs.Bakery(specs.Config{N: 2, M: 1 << 14}), [2]int{0, 1}, 60000},
		{specs.BlackWhite(2), [2]int{0, 1}, 0},
		{specs.Peterson(3), [2]int{0, 1}, 0},
		{specs.Szymanski(2), [2]int{0, 1}, 0},
		{specs.Szymanski(2), [2]int{1, 0}, 0},
	}
	for _, c := range checks {
		res, err := mc.CheckFCFS(c.p, c.fs[0], c.fs[1], mc.Options{MaxStates: c.bounds, Workers: cfg.MCWorkers})
		if err != nil {
			return err
		}
		v := "holds"
		switch {
		case !res.Holds:
			v = fmt.Sprintf("VIOLATED (witness %d steps)", res.Witness.Len())
		case !res.Complete:
			v = "holds (bounded)"
		}
		tb2.AddRow(c.p.Name, fmt.Sprintf("(%d,%d)", c.fs[0], c.fs[1]), res.States, v)
	}
	fmt.Fprintln(w, tb2)
	_, err := fmt.Fprintln(w, "Szymanski drains waiting-room batches in id order: FCFS holds with the lower id arriving first and is violated in the reverse direction — 'first-come-first-served' up to batch-internal id reordering.")
	return err
}

func runE12(w io.Writer, cfg ExpConfig) error {
	tb := stats.NewTable("Model-checked safety over safe (flickering) registers",
		"spec", "N", "M", "crash", "states", "verdict")
	type combo struct {
		n, m  int
		crash bool
	}
	for _, c := range []combo{{2, 2, false}, {2, 3, false}, {2, 2, true}} {
		p := specs.BakeryPPSafe(c.n, c.m)
		res := mc.Check(p, mc.Options{Invariants: safetyInvariants(), Crash: c.crash, Workers: cfg.MCWorkers, Symmetry: cfg.Symmetry, POR: cfg.POR})
		tb.AddRow(p.Name, c.n, c.m, c.crash, res.States, verdict(res))
	}
	fmt.Fprintln(w, tb)

	l := core.NewSafe(4, core.CapacityForBits(8))
	res := Run(RunConfig{Lock: l, N: 4, Iters: 8000})
	fmt.Fprintf(w, "Runtime torture (4 participants, 8-bit tickets, adversarial flicker): %d ops, %d flickered reads, %d mutex violations, max concurrency %d, %d resets.\n",
		res.Ops, l.Flickers(), res.Violations, res.MaxConcurrency, l.Resets())
	if res.Violations != 0 {
		return fmt.Errorf("safe-register bakery++ violated mutual exclusion")
	}
	fmt.Fprintln(w, "Bakery++ tolerates reads that return arbitrary values during writes — verified exhaustively at model level and exercised adversarially at runtime.")
	return nil
}

func runE7(w io.Writer, cfg ExpConfig) error {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	g, err := mc.BuildGraph(p, mc.Options{Workers: cfg.MCWorkers})
	if err != nil {
		return err
	}
	l1 := p.LabelIndex("l1")
	rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
		return pr.PC(s, 2) == l1
	}, []int{0, 1})
	if rep == nil {
		fmt.Fprintln(w, "No L1 livelock cycle found (unexpected; see Section 6.3).")
	} else {
		blocked := 0
		var buf gcl.SuccBuf
		for _, idx := range rep.Component {
			if p.EnabledMask(g.State(int(idx)), 2, &buf) == 0 {
				blocked++
			}
		}
		fmt.Fprintf(w, "Model-level witness (N=3, M=2): a cycle of %d states keeps process 2 pinned at L1 while processes 0 and 1 take %d and %d steps per lap region; process 2 is genuinely blocked in %d of the cycle's states.\n\n",
			rep.ComponentSize, rep.MovesByPid[0], rep.MovesByPid[1], blocked)
	}

	all := []int{0, 1, 2}
	if np := g.FindNoProgress(all); np == nil {
		fmt.Fprintln(w, "Global progress: no reachable cycle keeps all three processes moving without a critical-section entry — individual starvation at L1 is possible, global livelock is not.")
	} else {
		fmt.Fprintf(w, "Unexpected global livelock: %d states, moves %v\n", np.ComponentSize, np.MovesByPid)
	}
	cs := p.LabelIndex("cs")
	if rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
		return pr.PC(s, 2) != cs
	}, all); rep != nil {
		fmt.Fprintf(w, "Active starvation (Question Two connection): a %d-state cycle keeps process 2 moving (%d steps per lap region) without ever serving it — each reset discards its ticket and restarts its FCFS protection. Classic Bakery cannot do this: tickets are never given up.\n", rep.ComponentSize, rep.MovesByPid[2])
	}
	gg, err := mc.BuildGraph(specs.BakeryPP(specs.Config{N: 3, M: 2, NoGate: true}), mc.Options{Workers: cfg.MCWorkers})
	if err != nil {
		return err
	}
	if np := gg.FindNoProgress(all); np != nil {
		fmt.Fprintf(w, "Ablation: WITHOUT the L1 gate a global reset livelock exists (%d-state cycle, all processes moving, zero entries) — the gate is redundant for safety (E1) but load-bearing for global progress.\n", np.ComponentSize)
	} else {
		fmt.Fprintln(w, "Ablation: gateless variant shows no global livelock (unexpected).")
	}
	fmt.Fprintln(w)

	tb := stats.NewTable("Operational starvation under a biased scheduler (N=3, M=2, 300k steps)",
		"slow-process weight", "fast entries", "slow entries", "fairness ratio")
	for _, wgt := range []float64{1, 0.1, 0.01, 0.001} {
		st, err := sched.Run(specs.BakeryPP(specs.Config{N: 3, M: 2}), sched.Options{
			Steps: 300000, Seed: 12,
			Sched: sched.Biased{Slow: map[int]bool{2: true}, Weight: wgt},
		})
		if err != nil {
			return err
		}
		tb.AddRow(wgt, st.CSEntries[0]+st.CSEntries[1], st.CSEntries[2], st.FairnessRatio())
	}
	_, err = fmt.Fprintln(w, tb)
	return err
}

func runE8(w io.Writer, cfg ExpConfig) error {
	const n = 8
	tb := stats.NewTable("Structure at N=8 (paper Section 4/7 comparison, made quantitative)",
		"algorithm", "shared cells", "value bound", "single-writer", "FCFS", "RMW-free", "labels", "states(N=2)")
	type algo struct {
		p            *gcl.Prog
		small        *gcl.Prog
		bound        string
		singleWriter string
		fcfs         string
	}
	algos := []algo{
		{specs.Bakery(specs.Config{N: n, M: 0}), specs.Bakery(specs.Config{N: 2, M: 6}), "unbounded", "yes", "yes"},
		{specs.BakeryPP(specs.Config{N: n, M: 255}), specs.BakeryPP(specs.Config{N: 2, M: 3}), "M (chosen)", "yes", "yes"},
		{specs.BlackWhite(n), specs.BlackWhite(2), "N", "no (color)", "yes"},
		{specs.Peterson(n), specs.Peterson(2), "N", "no (victim)", "no"},
		{specs.Szymanski(n), specs.Szymanski(2), "4", "yes", "yes"},
	}
	for _, a := range algos {
		var states string
		res := mc.Check(a.small, mc.Options{MaxStates: 400000, Workers: cfg.MCWorkers, Symmetry: cfg.Symmetry, POR: cfg.POR})
		if res.Complete {
			states = fmt.Sprint(res.States)
		} else {
			states = fmt.Sprintf(">%d", res.States)
		}
		tb.AddRow(a.p.Name, a.p.SharedCells(), a.bound, a.singleWriter, a.fcfs, "yes",
			len(a.p.Labels()), states)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "(RMW locks for contrast: ticket-faa uses 2 cells, tas/ttas 1 cell, tournament 3·(N-1); all rely on read-modify-write, which Section 3 rules out for 'true' mutual exclusion.)")
	return nil
}

func runE9(w io.Writer, cfg ExpConfig) error {
	p := specs.ModBakery(2, 2)
	res := mc.Check(p, mc.Options{Invariants: []mc.Invariant{mc.Mutex()}, Workers: cfg.MCWorkers, Symmetry: cfg.Symmetry, POR: cfg.POR})
	if res.Violation == nil {
		return fmt.Errorf("expected a mutual-exclusion violation from modbakery")
	}
	fmt.Fprintf(w, "modbakery (tickets mod %d, comparison unchanged): mutual exclusion VIOLATED after exploring %d states.\nShortest counterexample (%d steps):\n%s\n",
		p.M+1, res.States, res.Violation.Trace.Len(), res.Violation.Trace.String())
	return nil
}

func runE10(w io.Writer, _ ExpConfig) error {
	tb := stats.NewTable("Question One: N participants, M < N (200k steps, random scheduler)",
		"N", "M", "cs entries", "resets", "max ticket", "fairness ratio", "locked out")
	for _, cfg := range []specs.Config{{N: 4, M: 3}, {N: 6, M: 3}, {N: 8, M: 2}} {
		p := specs.BakeryPP(cfg)
		st, err := sched.Run(p, sched.Options{Steps: 200000, Seed: 13})
		if err != nil {
			return err
		}
		var resets int64
		lockedOut := 0
		for pid, r := range st.Resets {
			resets += r
			if st.CSEntries[pid] == 0 {
				lockedOut++
			}
		}
		tb.AddRow(cfg.N, cfg.M, st.TotalCS(), resets, st.MaxTicket, st.FairnessRatio(), lockedOut)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "Answer observed: with M < N every process still made progress under a fair random scheduler — the bound throttles ticket issue (more resets) but did not produce lockout in any measured run.")
	return nil
}

func runE11(w io.Writer, _ ExpConfig) error {
	spec := specs.Bakery(specs.Config{N: 2, M: 1 << 14})
	impl := specs.BakeryPP(specs.Config{N: 2, M: 2})
	res, err := mc.CheckBoundedRefinement(impl, spec, mc.RefinementOptions{MaxEvents: 6})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bakerypp (N=2, M=2) observably refines bakery up to 6 events: holds=%v (%d nodes, %d belief sets)\n",
		res.Holds, res.Nodes, res.Beliefs)

	neg, err := mc.CheckBoundedRefinement(specs.ModBakery(2, 2), spec, mc.RefinementOptions{MaxEvents: 8})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "negative control — modbakery refines bakery: holds=%v (unmatched event %q after %d steps)\n",
		neg.Holds, neg.FailEvent, neg.Counterexample.Len())
	if res.Holds && !neg.Holds {
		fmt.Fprintln(w, "Refinement claim of Section 6.2 substantiated in the checked configuration.")
	}
	return nil
}

func runE13(w io.Writer, cfg ExpConfig) error {
	sweep := DefaultSweep()
	// The recorded table uses a compact grid (4 locks × 3 patterns × 2
	// points) so the experiment suite stays quick; `bakerybench -sweep`
	// runs the full default grid.
	sweep.Locks = SelectLocks(sweep.Locks, "bakery++", "bakery-wrap", "black-white", "ticket-faa")
	sweep.Iters = 40
	sweep.Workers = cfg.SweepWorkers
	res, err := RunSweep(sweep)
	if err != nil {
		return err
	}
	tb := res.Table()
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "table fingerprint: %s (identical on every machine and for any -sweep-workers)\n", tb.Fingerprint())
	var viols int64
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Lock == "bakery-wrap" {
			viols += c.Violations
		}
		if c.Lock == "bakery++" && c.Violations != 0 {
			return fmt.Errorf("bakery++ violated mutual exclusion in cell %s/%s", c.Pattern, c.Lock)
		}
	}
	if viols == 0 {
		return fmt.Errorf("bakery-wrap showed no mutual-exclusion violations; the wrapped-register malfunction this grid exists to show has vanished")
	}
	fmt.Fprintf(w, "Wrapped-register Bakery accumulated %d mutual-exclusion violations across its cells; Bakery++ zero. Time is virtual (scheduling steps), so the whole table — violations, resets, latency percentiles — replays exactly from the seed.\n", viols)
	return nil
}

func runE14(w io.Writer, cfg ExpConfig) error {
	tb := stats.NewTable("Symmetry reduction: states explored, quotient vs full (same invariants, same verdicts)",
		"algorithm", "N", "M", "full states", "reduced states", "ratio", "verdict")
	type cell struct {
		p    func() *gcl.Prog
		n, m int
		full bool // run the full side too (skip when far beyond the bound)
	}
	cells := []cell{
		{func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 2, M: 2}) }, 2, 2, true},
		{func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, 3, 2, true},
		{func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 5, M: 2}) }, 5, 2, false},
		{func() *gcl.Prog { return specs.Bakery(specs.Config{N: 3, M: 3}) }, 3, 3, true},
		{func() *gcl.Prog { return specs.Bakery(specs.Config{N: 4, M: 4}) }, 4, 4, true},
		{func() *gcl.Prog { return specs.Bakery(specs.Config{N: 6, M: 4}) }, 6, 4, false},
		{func() *gcl.Prog { return specs.Szymanski(3) }, 3, 4, true},
		{func() *gcl.Prog { return specs.Szymanski(4) }, 4, 4, true},
		{func() *gcl.Prog { return specs.ModBakery(2, 2) }, 2, 2, true},
		{func() *gcl.Prog { return specs.BlackWhite(3) }, 3, 3, true}, // NoSymmetry control
	}
	for _, c := range cells {
		red := mc.Check(c.p(), mc.Options{Invariants: safetyInvariants(), Workers: cfg.MCWorkers, Symmetry: true})
		fullStates, ratio := "skipped (beyond bound)", "—"
		if c.full {
			full := mc.Check(c.p(), mc.Options{Invariants: safetyInvariants(), Workers: cfg.MCWorkers})
			if verdict(full) != verdict(red) {
				return fmt.Errorf("E14: verdicts diverge for %s N=%d: full %s, reduced %s",
					red.Prog.Name, c.n, verdict(full), verdict(red))
			}
			fullStates = fmt.Sprint(full.States)
			ratio = fmt.Sprintf("%.1fx", float64(full.States)/float64(red.States))
		}
		name := red.Prog.Name
		if !red.Symmetry {
			name += " (opted out)"
		}
		tb.AddRow(name, c.n, c.m, fullStates, red.States, ratio, verdict(red))
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "Reduced runs store one representative per process-permutation orbit (canonical keys respect scan-cursor history; dead cursors normalized away). Verdicts and counterexample validity are preserved — the engine only ever dedups, it never expands a permuted image — and results are byte-identical for any -workers value. Bakery++ at N=5 and Bakery at N=6 become checkable under the default state bound; the black-white row pins the declared-asymmetric fallback (reduction off, full search).")
	return nil
}

func runE15(w io.Writer, cfg ExpConfig) error {
	tb := stats.NewTable("Reduction factors: states explored under each mode (same invariants; verdict parity enforced)",
		"algorithm", "N", "M", "none", "symmetry", "por", "both", "por gain on symmetry", "verdict")
	type cell struct {
		algo string
		n, m int
		// full runs the unreduced and por-only modes too; the largest
		// configurations skip them (the point of the reductions is that
		// the full side is impractical there).
		full bool
	}
	cells := []cell{
		{"bakerypp", 2, 2, true},
		{"bakerypp", 3, 2, true},
		{"bakerypp", 4, 2, false},
		{"bakery", 3, 3, true},
		{"szymanski", 4, 4, true},
		{"modbakery", 3, 2, true},
	}
	for _, c := range cells {
		run := func(sym, por bool) (*mc.Result, error) {
			p, err := specs.Get(c.algo, specs.Config{N: c.n, M: c.m})
			if err != nil {
				return nil, err
			}
			return mc.Check(p, mc.Options{
				Invariants: safetyInvariants(), Workers: cfg.MCWorkers,
				Symmetry: sym, POR: por,
			}), nil
		}
		sym, err := run(true, false)
		if err != nil {
			return err
		}
		both, err := run(true, true)
		if err != nil {
			return err
		}
		noneStates, porStates := "skipped (beyond practical)", "skipped"
		results := []*mc.Result{sym, both}
		if c.full {
			none, err := run(false, false)
			if err != nil {
				return err
			}
			por, err := run(false, true)
			if err != nil {
				return err
			}
			noneStates, porStates = fmt.Sprint(none.States), fmt.Sprint(por.States)
			results = append(results, none, por)
		}
		for _, r := range results[1:] {
			if verdict(r) != verdict(results[0]) {
				return fmt.Errorf("E15: verdicts diverge for %s N=%d: %s vs %s",
					c.algo, c.n, verdict(results[0]), verdict(r))
			}
		}
		gain := float64(sym.States) / float64(both.States)
		if c.algo == "bakerypp" && c.n == 4 && gain < 2 {
			return fmt.Errorf("E15: por gain on symmetry below 2x for bakerypp N=4: %.2fx", gain)
		}
		tb.AddRow(c.algo, c.n, c.m, noneStates, sym.States, porStates, both.States, fmt.Sprintf("%.1fx", gain), verdict(sym))
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "POR compresses runs of local, invariant-invisible actions (ample sets with Lipton-style chain merging) and multiplies with the symmetry quotient; both reductions preserve verdicts, deadlocks, and concrete counterexample traces — the modbakery row pins that its mutual-exclusion violation survives every mode. Results are byte-identical for any -workers value. Graph-based analyses (E7, E16) never apply POR or symmetry; they explore the dead-cursor-reset graph.")
	return nil
}

func runE16(w io.Writer, cfg ExpConfig) error {
	tb := stats.NewTable("Liveness verdicts: cycle analyses on the dead-cursor-reset graph, FCFS on the full product vs pinned-orbit symmetry (verdicts enforced in-experiment)",
		"analysis", "algorithm", "N", "M", "pin/pair", "states", "pinned states", "verdict", "evidence")

	type graphCell struct {
		kind string // "starve@l1", "active-starve", "no-progress"
		// reg is the registry name the spec is built from; label is the
		// table's display name (the nogate cell is a bakerypp Config
		// variant, not its own registry entry).
		reg, label string
		cfg        specs.Config
		cycle      bool // the expected verdict
	}
	cells := []graphCell{
		{"starve@l1", "bakerypp", "bakerypp", specs.Config{N: 3, M: 2}, true},
		{"starve@l1", "bakerypp", "bakerypp", specs.Config{N: 4, M: 2}, true},
		{"active-starve", "bakerypp", "bakerypp", specs.Config{N: 3, M: 2}, true},
		{"no-progress", "bakerypp", "bakerypp", specs.Config{N: 3, M: 2}, false},
		{"no-progress", "bakerypp", "bakerypp-nogate", specs.Config{N: 3, M: 2, NoGate: true}, true},
	}
	for _, c := range cells {
		p, err := specs.Get(c.reg, c.cfg)
		if err != nil {
			return err
		}
		g, err := mc.BuildGraph(p, mc.Options{Workers: cfg.MCWorkers})
		if err != nil {
			return err
		}
		slow := p.N - 1
		// evidenceOf requires a report's replayed lasso and renders the
		// evidence cell.
		evidenceOf := func(entryLen, cycleLen int) (string, error) {
			if cycleLen == 0 {
				return "", fmt.Errorf("E16: %s report lacks a replayed cycle", c.kind)
			}
			if entryLen >= 0 {
				return fmt.Sprintf("lasso %d+%d steps replayed", entryLen, cycleLen), nil
			}
			return fmt.Sprintf("lasso %d steps replayed", cycleLen), nil
		}
		analyse := func() (found bool, evidence string, err error) {
			if c.kind == "no-progress" {
				rep := g.FindNoProgress(allPidsOf(p.N))
				if rep == nil {
					return false, "", nil
				}
				ev, err := evidenceOf(-1, len(rep.Cycle))
				return true, ev, err
			}
			pred := func(pr *gcl.Prog, s gcl.State) bool { // starve@l1
				return pr.PC(s, slow) == p.LabelIndex("l1")
			}
			mustMove := make([]int, 0, p.N-1)
			for pid := 0; pid < p.N; pid++ {
				if pid != slow {
					mustMove = append(mustMove, pid)
				}
			}
			if c.kind == "active-starve" {
				pred = func(pr *gcl.Prog, s gcl.State) bool {
					return pr.PC(s, slow) != p.LabelIndex("cs")
				}
				mustMove = allPidsOf(p.N)
			}
			rep := g.FindStarvation(pred, mustMove)
			if rep == nil {
				return false, "", nil
			}
			ev, err := evidenceOf(rep.EntryLen, len(rep.Cycle))
			return true, ev, err
		}
		found, evidence, err := analyse()
		if err != nil {
			return err
		}
		if found != c.cycle {
			return fmt.Errorf("E16: %s %s N=%d: cycle found %v, want %v", c.kind, c.label, c.cfg.N, found, c.cycle)
		}
		verdict := "no cycle"
		if found {
			verdict = "cycle"
		}
		if evidence == "" {
			evidence = "—"
		}
		tb.AddRow(c.kind, c.label, c.cfg.N, c.cfg.M, fmt.Sprintf("pid %d", slow),
			g.NumStates(), "—", verdict, evidence)
	}

	// FCFS through the pinned-orbit store: the monitor names its pair, the
	// remaining pids collapse.
	type fcfsCell struct {
		algo          string
		cfg           specs.Config
		first, second int
	}
	for _, c := range []fcfsCell{
		{"bakerypp", specs.Config{N: 3, M: 2}, 2, 0},
		{"szymanski", specs.Config{N: 3}, 2, 0},
	} {
		mk := func() (*gcl.Prog, error) { return specs.Get(c.algo, c.cfg) }
		pf, err := mk()
		if err != nil {
			return err
		}
		full, err := mc.CheckFCFS(pf, c.first, c.second, mc.Options{Workers: cfg.MCWorkers})
		if err != nil {
			return err
		}
		pq, err := mk()
		if err != nil {
			return err
		}
		red, err := mc.CheckFCFS(pq, c.first, c.second, mc.Options{Symmetry: true, Workers: cfg.MCWorkers})
		if err != nil {
			return err
		}
		if full.Holds != red.Holds {
			return fmt.Errorf("E16: FCFS(%d,%d) verdicts diverge for %s: full=%v reduced=%v",
				c.first, c.second, c.algo, full.Holds, red.Holds)
		}
		verdict := "holds"
		evidence := "—"
		if !red.Holds {
			verdict = "VIOLATED"
			evidence = fmt.Sprintf("witness %d steps (concrete)", red.Witness.Len())
		}
		tb.AddRow("fcfs", c.algo, pf.N, pf.M, fmt.Sprintf("(%d,%d)", c.first, c.second),
			full.States, red.States, verdict, evidence)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "table fingerprint: %s (identical for any -workers and GOMAXPROCS)\n", tb.Fingerprint())
	fmt.Fprintln(w, "The cycle analyses run on the graph with every dead scan cursor reset to 0, an exact bisimulation of the full graph: a dead cursor is rewritten before it is next read. It is what the symmetry quotient's orbit-tracking product used to search, node for node, so -symmetry no longer applies to them; the reset alone takes Bakery++ N=5 M=2 (12.9M states) to its Section 6.3 cycle. Every cycle verdict is backed by a lasso replayed as a concrete execution of the unreset system, and the no-progress rows pin both directions: the gated spec shows no global livelock, the gateless ablation's reset livelock is found. FCFS keeps its pinned-orbit reduction, with full-vs-pinned parity enforced.")
	return nil
}

func runE17(w io.Writer, cfg ExpConfig) error {
	tb := stats.NewTable("Visited-set tiers on the unreduced Bakery++ N=4 M=2 space (1.57M states)",
		"store", "states", "transitions", "verdict", "expected omissions", "confidence", "peak RSS (MiB)")
	// Tiers run smallest footprint first: peak RSS (getrusage Maxrss) is a
	// process-wide high-water mark, so each row's column is legible as
	// "the high water after this tier" only when footprints ascend. Run
	// alone at -workers -1 on a 2-vCPU Linux VM (two runs each) all four
	// tiers peak at 39 MiB since the exact store grows in place; with a
	// doubling table exact peaked at 47 and exact,spill at 50, against
	// bitstate's 39. Every tier keeps each state once, packed, in one
	// pointer-free slab; bitstate answers membership from its 16 MiB bit
	// array instead of exact's slot table, and the spill tiers' RSS also
	// counts the mapped slab pages.
	stores := []string{"bitstate", "bitstate,spill", "exact", "exact,spill"}
	if cfg.Store != nil {
		// A pinned tier runs alone: the shape the CI memory smoke uses to
		// drive one mode under GOMEMLIMIT without paying for the others.
		stores = []string{cfg.Store.String()}
	}
	c := specs.Config{N: 4, M: 2}
	var exact, lossyRef *mc.Result
	for _, spec := range stores {
		so, err := mc.ParseStoreSpec(spec)
		if err != nil {
			return err
		}
		p, err := specs.Get("bakerypp", c)
		if err != nil {
			return err
		}
		res := mc.Check(p, mc.Options{
			Invariants: safetyInvariants(),
			Workers:    cfg.MCWorkers,
			Store:      so,
		})
		expected, confidence := "0 (exact)", "1"
		if res.Store != nil && res.Store.Lossy {
			expected = fmt.Sprintf("<= %.3g", res.Store.ExpectedOmissions)
			confidence = fmt.Sprintf(">= %.9f", res.Store.Confidence)
			if lossyRef == nil {
				lossyRef = res
			}
		} else if spec == "exact" {
			exact = res
		}
		tb.AddRow(spec, res.States, res.Transitions, verdict(res), expected, confidence, peakRSSKB()/1024)
	}
	fmt.Fprintln(w, tb)
	if exact != nil && lossyRef != nil && verdict(exact) != verdict(lossyRef) {
		return fmt.Errorf("E17: lossy tier verdict %q diverges from exact %q", verdict(lossyRef), verdict(exact))
	}
	fmt.Fprintln(w, "The exact tiers agree state-for-state; the bitstate tiers reach the same verdict while answering membership from a bit array instead of a table of stored keys, with the omission risk they accept printed next to the verdict — see docs/model-checking.md, \"State stores and memory\". Every tier keeps its states in a slab, so every tier prints counterexample traces; bitstate stores no values, so runs that need POR must step up to exact. Peak RSS is a process high-water mark: each row shows the maximum over all tiers run so far, which is why the tiers run in ascending footprint order and the column never resets per row.")
	return nil
}

// allPidsOf returns 0..n-1 (the mustMove set "every process").
func allPidsOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ExperimentIDs returns the sorted list of experiment IDs for CLI help.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
