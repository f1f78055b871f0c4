package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bakerypp/internal/scenario"
	"bakerypp/internal/specs"
)

// The E18–E21 hypothesis experiments print Confirmed/Refuted verdicts;
// these tests pin the same quantitative predictions as assertions, per
// seed, so a refutation fails CI instead of silently landing in a
// table. The runs are deterministic, so a failure here means the
// predicted physics changed, not that a die rolled badly.

// E18: sustained closed-loop re-requests make the acquire tail grow
// with N, and exponential think time keeps the N=4 tail below the
// sustained one.
func TestE18TailHypotheses(t *testing.T) {
	cells, err := measureE18(ExpConfig{SweepWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	p99 := e18P99(cells)
	for _, seed := range scenarioExpSeeds {
		sus2, sus4, poi4 := p99[e18Key{seed, "sustained", 2}], p99[e18Key{seed, "sustained", 4}], p99[e18Key{seed, "poisson", 4}]
		if sus4 <= sus2 {
			t.Errorf("seed %d: sustained acq p99 %d at N=4 not above %d at N=2", seed, sus4, sus2)
		}
		if poi4 >= sus4 {
			t.Errorf("seed %d: poisson acq p99 %d at N=4 not below sustained %d", seed, poi4, sus4)
		}
	}
}

// The E18 cells are the contention runs the DES sweep used to make: one
// shard, one closed-loop client per server process. The next four tests
// keep that sweep's determinism and replay pins on those cells.

// runE18Cell runs one E18-shaped scenario and returns its result and,
// when record is set, its event log.
func runE18Cell(t *testing.T, text string, opts scenario.Options, record bool) (*scenario.Result, []byte) {
	t.Helper()
	spec, err := scenario.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if record {
		opts.Record = &buf
	}
	res, err := scenario.Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestDESSweepDeterministicAcrossWorkers: every E18 cell's fingerprint
// and recorded event log are byte-identical whether it runs sequentially
// or on a worker pool.
func TestDESSweepDeterministicAcrossWorkers(t *testing.T) {
	for _, pat := range e18Patterns {
		for _, n := range e18Ns {
			text := e18Spec(pat.name, pat.arrival, n)
			opts := scenario.Options{Seed: 1, Latency: e18Latency}
			res1, log1 := runE18Cell(t, text, opts, true)
			opts.Workers = 8
			res8, log8 := runE18Cell(t, text, opts, true)
			if res1.Fingerprint() != res8.Fingerprint() {
				t.Errorf("%s n=%d: fingerprint differs across worker counts: %s vs %s",
					pat.name, n, res1.Fingerprint(), res8.Fingerprint())
			}
			if !bytes.Equal(log1, log8) {
				t.Errorf("%s n=%d: recorded event log differs across worker counts", pat.name, n)
			}
		}
	}
}

// TestDESSweepGOMAXPROCSIndependent: an E18 cell is a single-threaded
// event loop, so neither its results nor E18's table may depend on the
// available parallelism.
func TestDESSweepGOMAXPROCSIndependent(t *testing.T) {
	run := func(procs int) []e18Cell {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cells, err := measureE18(ExpConfig{SweepWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	a, b := run(1), run(runtime.NumCPU())
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("E18 cells differ across GOMAXPROCS:\n%v\nvs\n%v", a, b)
	}
}

// TestDESRecordReplayAllSpecs: a small recorded E18-shaped run of every
// registered specification, under both think-time patterns and a
// jittered latency model, replays to a bit-identical report.
func TestDESRecordReplayAllSpecs(t *testing.T) {
	for _, name := range specs.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, pat := range e18Patterns {
				text := strings.Replace(fmt.Sprintf(e18SpecFmt, 3, 36, pat.name, pat.arrival), "algo=bakerypp", "algo="+name, 1)
				for _, seed := range []int64{1, 2} {
					res, log := runE18Cell(t, text, scenario.Options{Seed: seed, Latency: "jitter:1,3"}, true)
					if res.Events == 0 {
						t.Errorf("%s seed %d: recorded run executed no events", pat.name, seed)
					}
					if res.Grants() == 0 {
						t.Errorf("%s seed %d: no critical sections entered", pat.name, seed)
					}
					rep, err := scenario.ReplayLog(bytes.NewReader(log))
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK() {
						t.Fatalf("%s seed %d: replay fingerprint %s != recorded %s", pat.name, seed, rep.Fingerprint, rep.Recorded)
					}
					if rep.Result.String() != res.String() {
						t.Fatalf("%s seed %d: replayed report differs from the live run's", pat.name, seed)
					}
				}
			}
		})
	}
}

// TestReplayRejectsTamper: replaying an E18-shaped log with one event
// dropped must either fail to parse or report a fingerprint mismatch —
// never silently agree.
func TestReplayRejectsTamper(t *testing.T) {
	text := fmt.Sprintf(e18SpecFmt, 2, 20, "sustained", "closed:fixed:1")
	_, log := runE18Cell(t, text, scenario.Options{Seed: 1}, true)
	lines := strings.SplitAfter(string(log), "\n")
	dropped := false
	for i, l := range lines {
		if strings.HasPrefix(l, "[") && strings.Contains(l, `"cs-enter"`) {
			lines = append(lines[:i], lines[i+1:]...)
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("recorded log has no cs-enter event to drop")
	}
	rep, err := scenario.ReplayLog(strings.NewReader(strings.Join(lines, "")))
	if err == nil && rep.OK() {
		t.Fatal("tampered log replayed to a matching fingerprint")
	}
}

// E19: at moderate bursty load, halving the ticket budget more than
// doubles the entry-gate reset count — super-linear in 1/M.
func TestE19ResetSuperLinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("E19 measures ~5.8M events per cell over 9 cells; skipped under -short")
	}
	cells, err := measureE19(ExpConfig{SweepWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	by := e19BySeed(cells)
	for _, seed := range scenarioExpSeeds {
		r := by[seed]
		if r[16] <= 2*r[32] {
			t.Errorf("seed %d: resets(M=16)=%d not more than double resets(M=32)=%d — halving M did not super-linearly raise resets", seed, r[16], r[32])
		}
		if r[32] <= 2*r[64] {
			t.Errorf("seed %d: resets(M=32)=%d not more than double resets(M=64)=%d — halving M did not super-linearly raise resets", seed, r[32], r[64])
		}
		if r[16] < 20 {
			t.Errorf("seed %d: only %d resets at M=16 — too little signal for the prediction to mean anything", seed, r[16])
		}
	}
}

// E20: a tiny ticket budget under preemption-prone pricing exercises the
// gate constantly, yet no overflow, no stranded client, and acquire p99
// within the declared bloat factor of a generous budget.
func TestE20GateBoundedWaitingNoStarvation(t *testing.T) {
	cells, err := measureE20(ExpConfig{SweepWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	p99 := map[int64]map[int]int64{}
	for _, c := range cells {
		if c.Stranded != 0 {
			t.Errorf("m=%d seed %d: %d admitted clients stranded — starvation", c.M, c.Seed, c.Stranded)
		}
		if c.Overflows != 0 {
			t.Errorf("m=%d seed %d: %d ticket overflows — the gate failed its one job", c.M, c.Seed, c.Overflows)
		}
		if c.MaxConc != 1 {
			t.Errorf("m=%d seed %d: max concurrency %d, want 1", c.M, c.Seed, c.MaxConc)
		}
		if c.M == e20SmallM && c.Resets <= 50 {
			t.Errorf("m=%d seed %d: only %d resets — the tiny budget did not exercise the gate", c.M, c.Seed, c.Resets)
		}
		if p99[c.Seed] == nil {
			p99[c.Seed] = map[int]int64{}
		}
		p99[c.Seed][c.M] = c.P99
	}
	for _, seed := range scenarioExpSeeds {
		small, large := p99[seed][e20SmallM], p99[seed][e20LargeM]
		if float64(small) >= e20WaitBloat*float64(large) {
			t.Errorf("seed %d: acquire p99 %d at m=%d is not within %.0fx of %d at m=%d — waiting not bounded",
				seed, small, e20SmallM, e20WaitBloat, large, e20LargeM)
		}
	}
}

// E21: modbakery's FCFS violation count grows strictly with contention
// and is nonzero even at light load; bakerypp's stays zero on the
// identical fleet with mutual exclusion intact.
func TestE21FCFSDegradation(t *testing.T) {
	cells, err := measureE21(ExpConfig{SweepWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	fcfs := map[string]map[int64]map[int]int64{}
	for _, c := range cells {
		if fcfs[c.Algo] == nil {
			fcfs[c.Algo] = map[int64]map[int]int64{}
		}
		if fcfs[c.Algo][c.Seed] == nil {
			fcfs[c.Algo][c.Seed] = map[int]int64{}
		}
		fcfs[c.Algo][c.Seed][c.Arrival] = c.FCFS
		if c.Algo == "bakerypp" && c.MaxConc != 1 {
			t.Errorf("bakerypp interarrival=%d seed %d: max concurrency %d, want 1", c.Arrival, c.Seed, c.MaxConc)
		}
	}
	for _, seed := range scenarioExpSeeds {
		mod, pp := fcfs["modbakery"][seed], fcfs["bakerypp"][seed]
		if !(mod[20] > mod[80] && mod[80] > mod[320]) {
			t.Errorf("seed %d: modbakery fcfs-viol not strictly growing with contention: light→heavy %d, %d, %d",
				seed, mod[320], mod[80], mod[20])
		}
		if mod[320] == 0 {
			t.Errorf("seed %d: modbakery committed no FCFS violations even at light load — wrap never bit", seed)
		}
		for _, mean := range e21Arrivals {
			if pp[mean] != 0 {
				t.Errorf("seed %d: bakerypp committed %d FCFS violations at interarrival %d, want 0", seed, pp[mean], mean)
			}
		}
	}
}
