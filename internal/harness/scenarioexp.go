package harness

// The scenario-layer hypothesis experiments E18–E21: quantitative
// predictions about Bakery++'s acquire tail, its entry gate and the
// modulo strawman,
// posed before running, measured on the lock-service fleet of
// internal/scenario, and asserted per seed both here (the printed
// Confirmed/Refuted verdicts) and in scenarioexp_test.go (the same
// predictions as go-test assertions, so a refutation fails CI instead
// of silently landing in a table).

import (
	"fmt"
	"io"

	"bakerypp/internal/scenario"
	"bakerypp/internal/stats"
)

// scenarioExpSeeds are the independent trials every scenario experiment
// runs; each seed reproduces exactly from the command line.
var scenarioExpSeeds = []int64{1, 2, 3}

// E18: one single-class, one-shard scenario per (pattern, N); each
// server process is one closed-loop client re-requesting the lock, 150
// times.
const (
	e18SpecFmt = "name=e18;algo=bakerypp;shards=1;n=%d;m=7;clients=%d;class=%s/1/%s/fixed:6/1000"
	e18Latency = "jitter:2,5"
)

// e18Patterns are the two think-time patterns: re-request one tick after
// service, or after an exponential think time of mean 80.
var e18Patterns = []struct{ name, arrival string }{
	{"sustained", "closed:fixed:1"},
	{"poisson", "closed:poisson:80"},
}

var e18Ns = []int{2, 4}

func e18Spec(pattern, arrival string, n int) string {
	return fmt.Sprintf(e18SpecFmt, n, 150*n, pattern, arrival)
}

type e18Cell struct {
	Seed           int64
	Pattern        string
	N              int
	P50, P95, P99  int64
	GrantsPerKTime float64
}

func measureE18(cfg ExpConfig) ([]e18Cell, error) {
	var out []e18Cell
	for _, seed := range scenarioExpSeeds {
		for _, pat := range e18Patterns {
			for _, n := range e18Ns {
				spec, err := scenario.Parse(e18Spec(pat.name, pat.arrival, n))
				if err != nil {
					return nil, err
				}
				res, err := scenario.Run(spec, scenario.Options{Seed: seed, Workers: cfg.SweepWorkers, Latency: e18Latency})
				if err != nil {
					return nil, err
				}
				if res.MaxConcurrency > 1 || res.Stranded() != 0 {
					return nil, fmt.Errorf("E18: bakerypp %s n=%d seed %d: maxconc=%d stranded=%d, want 1 and 0",
						pat.name, n, seed, res.MaxConcurrency, res.Stranded())
				}
				lat := res.Classes[0].Latency
				out = append(out, e18Cell{
					Seed: seed, Pattern: pat.name, N: n,
					P50: lat.Quantile(0.5), P95: lat.Quantile(0.95), P99: lat.Quantile(0.99),
					GrantsPerKTime: 1000 * float64(res.Grants()) / float64(res.Time),
				})
			}
		}
	}
	return out, nil
}

type e18Key struct {
	seed    int64
	pattern string
	n       int
}

// e18P99 indexes the cells' acquire p99 by (seed, pattern, N).
func e18P99(cells []e18Cell) map[e18Key]int64 {
	by := make(map[e18Key]int64, len(cells))
	for _, c := range cells {
		by[e18Key{c.Seed, c.Pattern, c.N}] = c.P99
	}
	return by
}

func runE18(w io.Writer, cfg ExpConfig) error {
	fmt.Fprintln(w, "Hypotheses (posed before running; each seed is an independent trial and a refutation is a finding, not an error):")
	fmt.Fprintln(w, "  H-a (sustained): when every client re-requests right after being served, Bakery++'s FCFS doorway queues every request behind up to N-1 ordered predecessors, so the acquire p99 at N=4 exceeds the acquire p99 at N=2.")
	fmt.Fprintln(w, "  H-b (think time): when each client instead thinks an exponential time of mean 80 between requests, fewer requests overlap, so the poisson acquire p99 at N=4 stays below the sustained acquire p99 at N=4. Both patterns are closed loop — a client never has two requests outstanding — so neither can overload the lock.")
	fmt.Fprintln(w)
	cells, err := measureE18(cfg)
	if err != nil {
		return err
	}
	tb := stats.NewTable("Bakery++ acquire-latency percentiles per seed (scenario e18: 1 shard, m=7, 150 requests per closed-loop client, latency="+e18Latency+")",
		"seed", "pattern", "N", "acq p50", "acq p95", "acq p99", "grants/ktime")
	for _, c := range cells {
		tb.AddRow(c.Seed, c.Pattern, c.N, c.P50, c.P95, c.P99, c.GrantsPerKTime)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "table fingerprint: %s (three independent seeds; identical on every machine and for any -sweep-workers)\n\n", tb.Fingerprint())

	p99 := e18P99(cells)
	confirmedA, confirmedB := 0, 0
	for _, seed := range scenarioExpSeeds {
		sus2, sus4, poi4 := p99[e18Key{seed, "sustained", 2}], p99[e18Key{seed, "sustained", 4}], p99[e18Key{seed, "poisson", 4}]
		va, vb := "Refuted", "Refuted"
		if sus4 > sus2 {
			va = "Confirmed"
			confirmedA++
		}
		if poi4 < sus4 {
			vb = "Confirmed"
			confirmedB++
		}
		fmt.Fprintf(w, "seed %d: H-a %s (sustained acq p99 N=2→4: %d → %d), H-b %s (poisson acq p99 %d vs sustained %d at N=4)\n",
			seed, va, sus2, sus4, vb, poi4, sus4)
	}
	fmt.Fprintf(w, "Verdict over %d seeds: H-a %d/%d, H-b %d/%d. The percentiles are virtual-time, priced by the latency model, and reproduce exactly from the seed — rerun any single trial with `bakerybench -scenario '<spec>' -latency %s -sweep-seed <seed>`, where <spec> is one of:\n",
		len(scenarioExpSeeds), confirmedA, len(scenarioExpSeeds), confirmedB, len(scenarioExpSeeds), e18Latency)
	for _, pat := range e18Patterns {
		for _, n := range e18Ns {
			fmt.Fprintf(w, "  %s\n", e18Spec(pat.name, pat.arrival, n))
		}
	}
	return nil
}

// E19: one saturating-burst class (CV-4 Gamma arrivals at ρ≈0.8) so busy
// periods occasionally drive the ticket excursion to M.
const e19SpecFmt = "name=e19;algo=bakerypp;shards=8;n=4;m=%d;clients=240000;" +
	"class=hot/1/burst:28,4/poisson:4/200"

// e19Ms is the halving ladder the super-linearity prediction is tested
// on, largest budget first.
var e19Ms = []int{64, 32, 16}

type e19Cell struct {
	M      int
	Seed   int64
	Grants int64
	Resets int64
}

func measureE19(cfg ExpConfig) ([]e19Cell, error) {
	var out []e19Cell
	for _, m := range e19Ms {
		for _, seed := range scenarioExpSeeds {
			spec, err := scenario.Parse(fmt.Sprintf(e19SpecFmt, m))
			if err != nil {
				return nil, err
			}
			res, err := scenario.Run(spec, scenario.Options{Seed: seed, Workers: cfg.SweepWorkers})
			if err != nil {
				return nil, err
			}
			if res.Overflows != 0 || res.MaxConcurrency > 1 {
				return nil, fmt.Errorf("E19: bakerypp m=%d seed %d: overflows=%d maxconc=%d, want 0 and 1",
					m, seed, res.Overflows, res.MaxConcurrency)
			}
			out = append(out, e19Cell{M: m, Seed: seed, Grants: res.Grants(), Resets: res.Resets})
		}
	}
	return out, nil
}

// e19BySeed indexes the cells as resets[seed][M].
func e19BySeed(cells []e19Cell) map[int64]map[int]int64 {
	by := make(map[int64]map[int]int64)
	for _, c := range cells {
		if by[c.Seed] == nil {
			by[c.Seed] = make(map[int]int64)
		}
		by[c.Seed][c.M] = c.Resets
	}
	return by
}

func runE19(w io.Writer, cfg ExpConfig) error {
	fmt.Fprintln(w, "Hypothesis (posed before running; each seed is an independent trial and a refutation is a finding, not an error):")
	fmt.Fprintln(w, "  H: at moderate bursty load (ρ≈0.8, CV-4 arrivals) the entry gate fires only when one busy period's ticket excursion reaches M, so halving M more than doubles the reset count — super-linear in 1/M, unlike the resets/grant ≈ 1/M a saturated fleet would show.")
	fmt.Fprintln(w)
	cells, err := measureE19(cfg)
	if err != nil {
		return err
	}
	tb := stats.NewTable("Bakery++ entry-gate resets vs ticket budget M (scenario e19: 8 shards, n=4, 240000 clients)",
		"m", "seed", "grants", "resets", "resets/Mgrant")
	for _, c := range cells {
		tb.AddRow(c.M, c.Seed, c.Grants, c.Resets, float64(c.Resets)*1e6/float64(c.Grants))
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "table fingerprint: %s (three independent seeds; identical on every machine and for any -sweep-workers)\n\n", tb.Fingerprint())

	by := e19BySeed(cells)
	confirmed := 0
	for _, seed := range scenarioExpSeeds {
		r := by[seed]
		v := "Refuted"
		if r[16] > 2*r[32] && r[32] > 2*r[64] {
			v = "Confirmed"
			confirmed++
		}
		fmt.Fprintf(w, "seed %d: H %s (resets M=64→32→16: %d → %d → %d; linear would be ×2 per halving, observed ×%.1f and ×%.1f)\n",
			seed, v, r[64], r[32], r[16], ratioOrInf(r[32], r[64]), ratioOrInf(r[16], r[32]))
	}
	fmt.Fprintf(w, "Verdict over %d seeds: H %d/%d. Rerun any trial with `bakeryserve -seed <seed> -scenario '%s'`.\n",
		len(scenarioExpSeeds), confirmed, len(scenarioExpSeeds), fmt.Sprintf(e19SpecFmt, 16))
	return nil
}

func ratioOrInf(num, den int64) float64 {
	if den == 0 {
		return float64(num) // resets fell to zero: report the raw count
	}
	return float64(num) / float64(den)
}

// E20: preemption-prone pricing — every protocol step can stall up to 10
// ticks mid-doorway — with a tiny ticket budget against a generous one.
const (
	e20SpecFmt   = "name=e20;algo=bakerypp;shards=4;n=4;m=%d;clients=60000;class=adv/1/burst:220,6/poisson:5/2000"
	e20Latency   = "jitter:1,9"
	e20SmallM    = 8
	e20LargeM    = 256
	e20WaitBloat = 2.0 // acquire p99 at the tiny budget must stay within this factor
)

type e20Cell struct {
	M         int
	Seed      int64
	Stranded  int64
	Resets    int64
	Overflows int64
	MaxConc   int
	P99       int64
	P999      int64
}

func measureE20(cfg ExpConfig) ([]e20Cell, error) {
	var out []e20Cell
	for _, m := range []int{e20SmallM, e20LargeM} {
		for _, seed := range scenarioExpSeeds {
			spec, err := scenario.Parse(fmt.Sprintf(e20SpecFmt, m))
			if err != nil {
				return nil, err
			}
			res, err := scenario.Run(spec, scenario.Options{Seed: seed, Workers: cfg.SweepWorkers, Latency: e20Latency})
			if err != nil {
				return nil, err
			}
			c := res.Classes[0]
			out = append(out, e20Cell{
				M: m, Seed: seed,
				Stranded: res.Stranded(), Resets: res.Resets, Overflows: res.Overflows,
				MaxConc: res.MaxConcurrency,
				P99:     c.Latency.Quantile(0.99), P999: c.Latency.Quantile(0.999),
			})
		}
	}
	return out, nil
}

func runE20(w io.Writer, cfg ExpConfig) error {
	fmt.Fprintln(w, "Hypotheses (posed before running; each seed is an independent trial and a refutation is a finding, not an error):")
	fmt.Fprintf(w, "  H-a (no starvation, no overflow): with m=%d under preemption-prone pricing (%s) the gate fires constantly, yet every admitted client is eventually granted and no ticket ever overflows.\n", e20SmallM, e20Latency)
	fmt.Fprintf(w, "  H-b (bounded extra waiting): the gate's price is waiting, and boundedly so — acquire p99 at m=%d stays within %.0fx of the m=%d run on the same seed.\n", e20SmallM, e20WaitBloat, e20LargeM)
	fmt.Fprintln(w)
	cells, err := measureE20(cfg)
	if err != nil {
		return err
	}
	tb := stats.NewTable("Bakery++ tiny vs generous ticket budget under preemption-prone pricing (scenario e20: 4 shards, n=4, 60000 clients, latency="+e20Latency+")",
		"m", "seed", "stranded", "resets", "overflows", "maxconc", "acq p99", "acq p99.9")
	for _, c := range cells {
		tb.AddRow(c.M, c.Seed, c.Stranded, c.Resets, c.Overflows, c.MaxConc, c.P99, c.P999)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "table fingerprint: %s (three independent seeds; identical on every machine and for any -sweep-workers)\n\n", tb.Fingerprint())

	type pair struct{ small, large e20Cell }
	bySeed := make(map[int64]*pair)
	for _, c := range cells {
		p := bySeed[c.Seed]
		if p == nil {
			p = &pair{}
			bySeed[c.Seed] = p
		}
		if c.M == e20SmallM {
			p.small = c
		} else {
			p.large = c
		}
	}
	confirmedA, confirmedB := 0, 0
	for _, seed := range scenarioExpSeeds {
		p := bySeed[seed]
		va, vb := "Refuted", "Refuted"
		if p.small.Stranded == 0 && p.small.Overflows == 0 && p.small.Resets > 50 {
			va = "Confirmed"
			confirmedA++
		}
		if float64(p.small.P99) < e20WaitBloat*float64(p.large.P99) {
			vb = "Confirmed"
			confirmedB++
		}
		fmt.Fprintf(w, "seed %d: H-a %s (m=%d: %d resets, %d overflows, %d stranded), H-b %s (acq p99 %d vs %d, ×%.2f)\n",
			seed, va, e20SmallM, p.small.Resets, p.small.Overflows, p.small.Stranded,
			vb, p.small.P99, p.large.P99, float64(p.small.P99)/float64(p.large.P99))
	}
	fmt.Fprintf(w, "Verdict over %d seeds: H-a %d/%d, H-b %d/%d. The adversary here is the latency model: any step — including mid-doorway — can stall ×10, the schedule-level analogue of preemption. Rerun any trial with `bakeryserve -seed <seed> -latency %s -scenario '%s'`.\n",
		len(scenarioExpSeeds), confirmedA, len(scenarioExpSeeds), confirmedB, len(scenarioExpSeeds),
		e20Latency, fmt.Sprintf(e20SpecFmt, e20SmallM))
	return nil
}

// E21: the modulo strawman against Bakery++ at three contention levels —
// burst interarrival means 20 (heavy), 80, 320 (light) against a ~4-unit
// hold — with m=8 so tickets wrap constantly.
const e21SpecFmt = "name=e21;algo=%s;shards=4;n=4;m=8;clients=40000;class=c/1/burst:%d,4/poisson:4/400"

var e21Arrivals = []int{20, 80, 320}

type e21Cell struct {
	Algo    string
	Arrival int
	Seed    int64
	Grants  int64
	FCFS    int64
	MaxConc int
}

func measureE21(cfg ExpConfig) ([]e21Cell, error) {
	var out []e21Cell
	for _, algo := range []string{"modbakery", "bakerypp"} {
		for _, mean := range e21Arrivals {
			for _, seed := range scenarioExpSeeds {
				spec, err := scenario.Parse(fmt.Sprintf(e21SpecFmt, algo, mean))
				if err != nil {
					return nil, err
				}
				res, err := scenario.Run(spec, scenario.Options{Seed: seed, Workers: cfg.SweepWorkers})
				if err != nil {
					return nil, err
				}
				out = append(out, e21Cell{
					Algo: algo, Arrival: mean, Seed: seed,
					Grants: res.Grants(), FCFS: res.FCFSViolations, MaxConc: res.MaxConcurrency,
				})
			}
		}
	}
	return out, nil
}

func runE21(w io.Writer, cfg ExpConfig) error {
	fmt.Fprintln(w, "Hypotheses (posed before running; each seed is an independent trial and a refutation is a finding, not an error):")
	fmt.Fprintln(w, "  H-a: modbakery's wrapped tickets invert doorway order, and the damage grows with contention — its FCFS violation count rises strictly as the interarrival mean drops 320 → 80 → 20, and is nonzero even at the lightest level.")
	fmt.Fprintln(w, "  H-b: bakerypp on the identical fleet commits zero FCFS violations at every contention level, with mutual exclusion intact (max concurrency 1).")
	fmt.Fprintln(w)
	cells, err := measureE21(cfg)
	if err != nil {
		return err
	}
	tb := stats.NewTable("FCFS violations vs contention, modulo strawman against Bakery++ (scenario e21: 4 shards, n=4, m=8, 40000 clients)",
		"algo", "interarrival", "seed", "grants", "fcfs-viol", "maxconc")
	for _, c := range cells {
		tb.AddRow(c.Algo, c.Arrival, c.Seed, c.Grants, c.FCFS, c.MaxConc)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "table fingerprint: %s (three independent seeds; identical on every machine and for any -sweep-workers)\n\n", tb.Fingerprint())

	fcfs := make(map[string]map[int64]map[int]int64) // algo -> seed -> arrival -> count
	maxConc := make(map[string]int)
	for _, c := range cells {
		if fcfs[c.Algo] == nil {
			fcfs[c.Algo] = make(map[int64]map[int]int64)
		}
		if fcfs[c.Algo][c.Seed] == nil {
			fcfs[c.Algo][c.Seed] = make(map[int]int64)
		}
		fcfs[c.Algo][c.Seed][c.Arrival] = c.FCFS
		if c.MaxConc > maxConc[c.Algo] {
			maxConc[c.Algo] = c.MaxConc
		}
	}
	confirmedA, confirmedB := 0, 0
	for _, seed := range scenarioExpSeeds {
		mod, pp := fcfs["modbakery"][seed], fcfs["bakerypp"][seed]
		va, vb := "Refuted", "Refuted"
		if mod[20] > mod[80] && mod[80] > mod[320] && mod[320] > 0 {
			va = "Confirmed"
			confirmedA++
		}
		if pp[20] == 0 && pp[80] == 0 && pp[320] == 0 {
			vb = "Confirmed"
			confirmedB++
		}
		fmt.Fprintf(w, "seed %d: H-a %s (modbakery fcfs-viol light→heavy: %d → %d → %d), H-b %s (bakerypp: %d, %d, %d)\n",
			seed, va, mod[320], mod[80], mod[20], vb, pp[320], pp[80], pp[20])
	}
	fmt.Fprintf(w, "Verdict over %d seeds: H-a %d/%d, H-b %d/%d. modbakery's max concurrency here is %d — the same wrap that breaks FCFS breaks mutual exclusion (E9's verdict, observed operationally); bakerypp's stays %d. Rerun any trial with `bakeryserve -seed <seed> -scenario '%s'`.\n",
		len(scenarioExpSeeds), confirmedA, len(scenarioExpSeeds), confirmedB, len(scenarioExpSeeds),
		maxConc["modbakery"], maxConc["bakerypp"], fmt.Sprintf(e21SpecFmt, "modbakery", 20))
	return nil
}
