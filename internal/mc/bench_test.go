package mc

import (
	"fmt"
	"runtime"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// Substrate benchmarks: verification throughput of the model checker on the
// repository's standard configurations.

func BenchmarkCheckBakeryPP(b *testing.B) {
	for _, cfg := range []specs.Config{{N: 2, M: 3}, {N: 3, M: 2}} {
		b.Run(fmt.Sprintf("N=%d/M=%d", cfg.N, cfg.M), func(b *testing.B) {
			opts := Options{Invariants: []Invariant{Mutex(), NoOverflow()}}
			states := 0
			for i := 0; i < b.N; i++ {
				res := Check(specs.BakeryPP(cfg), opts)
				if res.Violation != nil {
					b.Fatal("violation")
				}
				states = res.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

func BenchmarkCheckSafeRegisters(b *testing.B) {
	opts := Options{Invariants: []Invariant{Mutex(), NoOverflow()}}
	for i := 0; i < b.N; i++ {
		if res := Check(specs.BakeryPPSafe(2, 2), opts); res.Violation != nil {
			b.Fatal("violation")
		}
	}
}

func BenchmarkBuildGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildGraph(specs.BakeryPP(specs.Config{N: 2, M: 3}), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// workerVariants are the worker counts the comparative benchmarks sweep:
// sequential mode (0, and 1, which runs it too), 4 workers, and GOMAXPROCS
// workers.
func workerVariants() []struct {
	name    string
	workers int
} {
	vs := []struct {
		name    string
		workers int
	}{{"seq", 0}, {"par1", 1}, {"par4", 4}}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		vs = append(vs, struct {
			name    string
			workers int
		}{fmt.Sprintf("par%d", n), n})
	}
	return vs
}

// BenchmarkBuildGraphWorkers compares sequential and parallel graph
// construction throughput (states/sec) across the three algorithm families
// the determinism tests cover. Both engines build identical graphs, so the
// metric isolates engine speed.
func BenchmarkBuildGraphWorkers(b *testing.B) {
	models := []struct {
		name string
		p    func() *gcl.Prog
	}{
		{"bakerypp-N3-M2", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }},
		{"peterson-N3", func() *gcl.Prog { return specs.Peterson(3) }},
		{"szymanski-N3", func() *gcl.Prog { return specs.Szymanski(3) }},
	}
	for _, m := range models {
		for _, v := range workerVariants() {
			b.Run(m.name+"/"+v.name, func(b *testing.B) {
				states := 0
				for i := 0; i < b.N; i++ {
					g, err := BuildGraph(m.p(), Options{Workers: v.workers})
					if err != nil {
						b.Fatal(err)
					}
					states += g.NumStates()
				}
				b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
			})
		}
	}
}

// BenchmarkExploreBakery8 measures raw exploration throughput on an
// 8-process Bakery++ model. The full space is far beyond reach, so the run
// is bounded to the first 150k states — enough BFS levels that the frontier
// is tens of thousands of states wide and the parallel pre-pass's
// expansion dominates. On a multi-core runner the parallel variants should
// beat sequential mode; on a single hardware thread they mostly measure the
// pre-pass's overhead.
func BenchmarkExploreBakery8(b *testing.B) {
	const bound = 150_000
	for _, v := range workerVariants() {
		b.Run(v.name, func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				res := Check(specs.BakeryPP(specs.Config{N: 8, M: 2}),
					Options{MaxStates: bound, Workers: v.workers})
				if res.Violation != nil {
					b.Fatal("violation")
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

func BenchmarkFindStarvation(b *testing.B) {
	g, err := BuildGraph(specs.BakeryPP(specs.Config{N: 3, M: 2}), Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := g.expl.p
	l1 := p.LabelIndex("l1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
			return pr.PC(s, 2) == l1
		}, []int{0, 1}); rep == nil {
			b.Fatal("no cycle")
		}
	}
}

// n4m2Graph lazily builds the Bakery++ N=4 M=2 graph — 414,788 states
// with dead cursors reset — shared by the SCC-analysis benchmarks below.
// Building it dominates any single analysis, so the benchmarks pay it
// once.
var n4m2Graph *Graph

func n4m2(b *testing.B) *Graph {
	if n4m2Graph == nil {
		g, err := BuildGraph(specs.BakeryPP(specs.Config{N: 4, M: 2}), Options{Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		n4m2Graph = g
	}
	return n4m2Graph
}

// The cycle analyses read the n4m2 graph's edges in place (cycles.go):
// each run is the filtered Tarjan and the lasso replay.
func BenchmarkFindStarvationN4M2(b *testing.B) {
	g := n4m2(b)
	p := g.expl.p
	l1 := p.LabelIndex("l1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
			return pr.PC(s, 3) == l1
		}, []int{0, 1, 2}); rep == nil {
			b.Fatal("no cycle")
		}
	}
}

func BenchmarkFindNoProgressN4M2(b *testing.B) {
	g := n4m2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := g.FindNoProgress([]int{0, 1, 2, 3}); rep != nil {
			b.Fatal("unexpected global livelock")
		}
	}
}

func BenchmarkCheckFCFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := mustFCFS(specs.BakeryPP(specs.Config{N: 2, M: 2}), 0, 1, Options{}); !res.Holds {
			b.Fatal("violated")
		}
	}
}
