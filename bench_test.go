// Benchmarks regenerating the performance dimension of every experiment
// table in EXPERIMENTS.md (go test -bench=. -benchmem):
//
//	BenchmarkLock            — E4 throughput comparison (per lock, per N)
//	BenchmarkUncontended     — E4 single-participant fast path
//	BenchmarkOverflowPressure— E5 Bakery++ cost as M approaches N
//	BenchmarkTicketGrowth    — E3 ticket issue rate on ideal registers
//	BenchmarkModelChecker    — E1/E2 verification throughput (states/sec)
//	BenchmarkSimulator       — E6/E10 interleaving simulator (steps/sec)
//	BenchmarkRefinement      — E11 bounded refinement check
package bakerypp_test

import (
	"fmt"
	"sync"
	"testing"

	"bakerypp"
	"bakerypp/internal/algorithms"
	"bakerypp/internal/core"
	"bakerypp/internal/gcl"
	"bakerypp/internal/mc"
	"bakerypp/internal/sched"
	"bakerypp/internal/specs"
)

// benchLock drives n workers through b.N total lock/unlock pairs.
func benchLock(b *testing.B, l bakerypp.Lock, n int) {
	b.Helper()
	iters := b.N/n + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock(pid)
				l.Unlock(pid)
			}
		}(pid)
	}
	wg.Wait()
}

func lockMakers() []struct {
	name string
	mk   func(n int) bakerypp.Lock
} {
	return []struct {
		name string
		mk   func(n int) bakerypp.Lock
	}{
		{"bakery", func(n int) bakerypp.Lock { return algorithms.NewBakery(n) }},
		{"bakery++", func(n int) bakerypp.Lock { return core.New(n, 1<<30) }},
		{"black-white", func(n int) bakerypp.Lock { return algorithms.NewBlackWhite(n) }},
		{"peterson", func(n int) bakerypp.Lock { return algorithms.NewPeterson(n) }},
		{"szymanski", func(n int) bakerypp.Lock { return algorithms.NewSzymanski(n) }},
		{"tournament", func(n int) bakerypp.Lock { return algorithms.NewTournament(n) }},
		{"ticket-faa", func(n int) bakerypp.Lock { return algorithms.NewTicket(n) }},
		{"tas", func(n int) bakerypp.Lock { return algorithms.NewTAS(n) }},
		{"ttas", func(n int) bakerypp.Lock { return algorithms.NewTTAS(n) }},
	}
}

// BenchmarkLock is experiment E4's table: critical sections per second per
// lock under sustained contention at N = 2, 4, 8.
func BenchmarkLock(b *testing.B) {
	for _, lm := range lockMakers() {
		for _, n := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/N=%d", lm.name, n), func(b *testing.B) {
				benchLock(b, lm.mk(n), n)
			})
		}
	}
}

// BenchmarkUncontended is E4's fast-path column: one participant, no
// contention — the pure doorway + scan cost.
func BenchmarkUncontended(b *testing.B) {
	for _, lm := range lockMakers() {
		b.Run(lm.name, func(b *testing.B) {
			l := lm.mk(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(0)
				l.Unlock(0)
			}
		})
	}
}

// BenchmarkOverflowPressure is E5: Bakery++ with the capacity M shrinking
// toward the participant count; resets/op quantifies the Section 7 price.
func BenchmarkOverflowPressure(b *testing.B) {
	const n = 4
	for _, m := range []int64{4, 8, 64, 1 << 20} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			l := core.New(n, m)
			benchLock(b, l, n)
			b.ReportMetric(float64(l.Resets())/float64(b.N), "resets/op")
			b.ReportMetric(float64(l.GateWaits())/float64(b.N), "gatewaits/op")
		})
	}
}

// BenchmarkTicketGrowth is E3's growth-rate measurement: classic Bakery on
// ideal registers; tickets/op close to 1 means the bakery stayed occupied
// (Lamport's unbounded-growth regime).
func BenchmarkTicketGrowth(b *testing.B) {
	const n = 4
	l := algorithms.NewBakery(n)
	benchLock(b, l, n)
	b.ReportMetric(float64(l.MaxTicket())/float64(b.N), "tickets/op")
}

// BenchmarkModelChecker is the substrate bench behind E1/E2: full
// verification of Bakery++ (N=2, M=3), reported in states/sec.
func BenchmarkModelChecker(b *testing.B) {
	opts := mc.Options{Invariants: []mc.Invariant{mc.Mutex(), mc.NoOverflow()}}
	states := 0
	for i := 0; i < b.N; i++ {
		p := specs.BakeryPP(specs.Config{N: 2, M: 3})
		res := mc.Check(p, opts)
		if res.Violation != nil {
			b.Fatal("unexpected violation")
		}
		states = res.States
	}
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}

// BenchmarkSimulator is the substrate bench behind E6/E10: interleaving
// steps per second on Bakery++ (N=3).
func BenchmarkSimulator(b *testing.B) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 4})
	const chunk = 50000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := sched.Run(p, sched.Options{Steps: chunk, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if st.MutexViolations != 0 {
			b.Fatal("violation")
		}
	}
	b.ReportMetric(float64(chunk)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkSimulatorWrap measures the wrap-mode simulation used by E3's
// model-level runs (classic Bakery, 3-bit registers).
func BenchmarkSimulatorWrap(b *testing.B) {
	p := specs.Bakery(specs.Config{N: 3, M: 7})
	const chunk = 50000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(p, sched.Options{Steps: chunk, Seed: int64(i), Mode: gcl.ModeWrap}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefinement is E11's check: Bakery++ ⊑ Bakery, 6 events.
func BenchmarkRefinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		impl := specs.BakeryPP(specs.Config{N: 2, M: 2})
		spec := specs.Bakery(specs.Config{N: 2, M: 1 << 14})
		res, err := mc.CheckBoundedRefinement(impl, spec, mc.RefinementOptions{MaxEvents: 6})
		if err != nil || !res.Holds {
			b.Fatal("refinement failed")
		}
	}
}

// BenchmarkPaddingAblation isolates false sharing from scan cost: the same
// Bakery++ algorithm over a packed register array (a real shared array's
// layout) versus registers spaced one cache line apart.
func BenchmarkPaddingAblation(b *testing.B) {
	const n = 4
	b.Run("packed", func(b *testing.B) {
		benchLock(b, core.New(n, 1<<30), n)
	})
	b.Run("padded", func(b *testing.B) {
		benchLock(b, core.NewPadded(n, 1<<30), n)
	})
}

// BenchmarkTryLock measures the non-blocking fast path and its failure
// path under a held lock.
func BenchmarkTryLock(b *testing.B) {
	b.Run("uncontended", func(b *testing.B) {
		l := core.New(2, 1<<20)
		for i := 0; i < b.N; i++ {
			if !l.TryLock(0) {
				b.Fatal("uncontended TryLock failed")
			}
			l.Unlock(0)
		}
	})
	b.Run("held", func(b *testing.B) {
		l := core.New(2, 1<<20)
		l.Lock(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if l.TryLock(1) {
				b.Fatal("TryLock succeeded against holder")
			}
		}
	})
}

// BenchmarkGateAblation compares Bakery++ with and without the L1 gate
// (DESIGN.md ablation 4) near the bound, where the gate matters.
func BenchmarkGateAblation(b *testing.B) {
	p1 := specs.BakeryPP(specs.Config{N: 3, M: 2})
	p2 := specs.BakeryPP(specs.Config{N: 3, M: 2, NoGate: true})
	for _, pc := range []struct {
		name string
		p    *gcl.Prog
	}{{"gate", p1}, {"nogate", p2}} {
		b.Run(pc.name, func(b *testing.B) {
			var resets int64
			var entries int64
			const chunk = 20000
			for i := 0; i < b.N; i++ {
				st, err := sched.Run(pc.p, sched.Options{Steps: chunk, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range st.Resets {
					resets += r
				}
				entries += st.TotalCS()
			}
			b.ReportMetric(float64(resets)/float64(b.N), "resets/run")
			b.ReportMetric(float64(entries)/float64(b.N), "entries/run")
		})
	}
}
