package sched

import (
	"runtime"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// TestRunFingerprintDeterministic is the bakerysim determinism pin: the
// same (program, options) must produce the identical Stats fingerprint
// on every run and at every GOMAXPROCS, for every scheduler — including
// the stochastic random and biased ones — and a different seed must
// diverge.
func TestRunFingerprintDeterministic(t *testing.T) {
	schedulers := []Scheduler{
		Random{},
		RoundRobin{},
		Biased{Slow: map[int]bool{0: true}, Weight: 0.01},
	}
	for _, s := range schedulers {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			run := func(seed int64, procs int) string {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				p, err := specs.Get("bakerypp", specs.Config{N: 3, M: 5})
				if err != nil {
					t.Fatal(err)
				}
				st, err := Run(p, Options{
					Steps: 30000, Sched: s, Seed: seed,
					Mode: gcl.ModeUnbounded, SampleEvery: 500,
				})
				if err != nil {
					t.Fatal(err)
				}
				return st.Fingerprint()
			}
			a, b := run(7, 1), run(7, 1)
			if a != b {
				t.Errorf("two identical runs fingerprint differently: %s vs %s", a, b)
			}
			if c := run(7, runtime.NumCPU()); a != c {
				t.Errorf("fingerprint depends on GOMAXPROCS: %s vs %s", a, c)
			}
			// Round-robin consults the rng only for branch choice,
			// and these specs' guards leave a single enabled branch
			// per label — its runs are legitimately seed-independent.
			if _, deterministic := s.(RoundRobin); !deterministic {
				if d := run(8, 1); a == d {
					t.Errorf("different seeds share fingerprint %s", a)
				}
			}
		})
	}
}

// TestNewRNGPinnedStream pins the first draws of the repository-owned
// source for one seed: if this test ever fails, the source changed and
// every recorded bakerysim fingerprint silently stopped reproducing —
// bump deliberately, never accidentally.
func TestNewRNGPinnedStream(t *testing.T) {
	rng := NewRNG(1)
	want := []int{4, 1, 4, 2, 2, 1, 5, 0, 3, 1}
	for i, w := range want {
		if got := rng.Intn(6); got != w {
			t.Fatalf("draw %d of NewRNG(1).Intn(6) = %d, want %d — the pinned stream changed", i, got, w)
		}
	}
}

// TestRunFingerprintsPinned pins bakerysim's run fingerprints for a few
// flag sets, each run here with the options cmd/bakerysim builds from
// them (defaults: bakerypp, n=3, m=7, 500,000 steps, seed 1, random
// scheduler, unbounded registers). A change to how a step is generated or
// chosen — the draws, their order, the successor order — moves them.
func TestRunFingerprintsPinned(t *testing.T) {
	cases := []struct {
		flags string
		algo  string
		cfg   specs.Config
		mode  gcl.Mode
		sched Scheduler
		crash float64
		want  string
	}{
		{"", "bakerypp", specs.Config{N: 3, M: 7}, gcl.ModeUnbounded, Random{}, 0, "460e1f6fae4c0a15"},
		{"-wrap -m 3", "bakerypp", specs.Config{N: 3, M: 3}, gcl.ModeWrap, Random{}, 0, "9a0d0fb0ec30e225"},
		{"-sched rr", "bakerypp", specs.Config{N: 3, M: 7}, gcl.ModeUnbounded, RoundRobin{}, 0, "3279e7f6a42f8861"},
		{"-fine", "bakerypp", specs.Config{N: 3, M: 7, Fine: true}, gcl.ModeUnbounded, Random{}, 0, "cf5d3ba9b568a270"},
		{"-algo bakery -n 4 -m 4", "bakery", specs.Config{N: 4, M: 4}, gcl.ModeUnbounded, Random{}, 0, "5f9d3050d398ac05"},
		{"-algo bakery -n 4 -m 4 -wrap", "bakery", specs.Config{N: 4, M: 4}, gcl.ModeWrap, Random{}, 0, "e5e7a2579abcc76e"},
		{"-crashrate 0.001", "bakerypp", specs.Config{N: 3, M: 7}, gcl.ModeUnbounded, Random{}, 0.001, "0884f577a982b610"},
	}
	for _, c := range cases {
		p, err := specs.Get(c.algo, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Run(p, Options{Steps: 500000, Seed: 1, Sched: c.sched, Mode: c.mode, CrashRate: c.crash})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Fingerprint(); got != c.want {
			t.Errorf("bakerysim %q: run fingerprint %s, want %s", c.flags, got, c.want)
		}
	}
}

// TestRunStepAllocFree pins Run's steady state at zero allocations per
// step: guards and successors are generated into one run-owned buffer
// reset each step, and the chosen successor (or crash state) is copied
// into one of two run-owned state vectors. A run 20,000 steps longer may
// differ by no more than the odd allocation the runtime's own background
// work lands in the process-wide count.
func TestRunStepAllocFree(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 4})
	allocs := func(steps int64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(p, Options{Steps: steps, Seed: 1, CrashRate: 0.001}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(5000), allocs(25000); long-short > 2 {
		t.Errorf("20,000 more steps cost %.0f more allocations (%.0f vs %.0f), want 0", long-short, long, short)
	}
}
