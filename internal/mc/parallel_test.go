package mc

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// detModels are the programs the determinism tests compare engines on:
// three algorithm families with different state-space shapes, plus a
// crash-enabled variant to cover crash pseudo-transitions.
func detModels() []struct {
	name string
	p    func() *gcl.Prog
	opts Options
} {
	inv := []Invariant{Mutex(), NoOverflow()}
	return []struct {
		name string
		p    func() *gcl.Prog
		opts Options
	}{
		{"bakerypp-N3-M2", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, Options{Invariants: inv}},
		{"peterson-N3", func() *gcl.Prog { return specs.Peterson(3) }, Options{Invariants: inv}},
		{"szymanski-N3", func() *gcl.Prog { return specs.Szymanski(3) }, Options{Invariants: inv}},
		{"bakerypp-N2-M2-crash", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 2, M: 2}) }, Options{Invariants: inv, Crash: true}},
	}
}

// requireGraphsIdentical asserts that two graphs agree on every observable:
// state count and vectors, numbering, parents, depths, and full edge lists.
// The action that produced each state is derived from the compared state
// vectors and parents, so it agrees whenever they do.
func requireGraphsIdentical(t *testing.T, seq, par *Graph) {
	t.Helper()
	if seq.NumStates() != par.NumStates() {
		t.Fatalf("state count differs: sequential %d, parallel %d", seq.NumStates(), par.NumStates())
	}
	if seq.Summary.Transitions != par.Summary.Transitions {
		t.Fatalf("transition count differs: sequential %d, parallel %d",
			seq.Summary.Transitions, par.Summary.Transitions)
	}
	if seq.Summary.Depth != par.Summary.Depth {
		t.Fatalf("depth differs: sequential %d, parallel %d", seq.Summary.Depth, par.Summary.Depth)
	}
	for i := 0; i < seq.NumStates(); i++ {
		if !seq.State(i).Equal(par.State(i)) {
			t.Fatalf("state %d differs:\n  sequential %v\n  parallel   %v", i, seq.State(i), par.State(i))
		}
		s, q, j := seq.expl, par.expl, int32(i)
		if s.parent.at(j) != q.parent.at(j) || s.depthOf(j) != q.depthOf(j) {
			t.Fatalf("BFS tree differs at state %d: sequential (parent=%d d=%d), parallel (parent=%d d=%d)",
				i, s.parent.at(j), s.depthOf(j), q.parent.at(j), q.depthOf(j))
		}
	}
	if len(seq.Adj) != len(par.Adj) {
		t.Fatalf("adjacency length differs: %d vs %d", len(seq.Adj), len(par.Adj))
	}
	for v := range seq.Adj {
		if len(seq.Adj[v]) != len(par.Adj[v]) {
			t.Fatalf("out-degree of state %d differs: %d vs %d", v, len(seq.Adj[v]), len(par.Adj[v]))
		}
		for k, e := range seq.Adj[v] {
			if e != par.Adj[v][k] {
				t.Fatalf("edge %d of state %d differs: sequential %+v, parallel %+v", k, v, e, par.Adj[v][k])
			}
		}
	}
}

// TestParallelGraphMatchesSequential is the headline determinism guarantee:
// for every model, exploration with Workers=4 yields a graph identical —
// state numbering, parents, edge order — to the sequential engine's, and so
// do the starvation/no-progress analyses built on top of it. Run under
// -race this also exercises the engine's synchronisation.
func TestParallelGraphMatchesSequential(t *testing.T) {
	for _, m := range detModels() {
		t.Run(m.name, func(t *testing.T) {
			seqOpts, parOpts := m.opts, m.opts
			parOpts.Workers = 4
			seq, err := BuildGraph(m.p(), seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			par, err := BuildGraph(m.p(), parOpts)
			if err != nil {
				t.Fatal(err)
			}
			requireGraphsIdentical(t, seq, par)
		})
	}
}

// TestParallelStarvationVerdictsMatch compares the Section 6.3 livelock
// search and the global no-progress search across engines on the paper's
// N=3, M=2 configuration.
func TestParallelStarvationVerdictsMatch(t *testing.T) {
	mk := func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }
	seq, err := BuildGraph(mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildGraph(mk(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	l1 := seq.expl.p.LabelIndex("l1")
	pin := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, 2) == l1 }
	sr, pr := seq.FindStarvation(pin, []int{0, 1}), par.FindStarvation(pin, []int{0, 1})
	if (sr == nil) != (pr == nil) {
		t.Fatalf("starvation verdicts differ: sequential %v, parallel %v", sr != nil, pr != nil)
	}
	if sr == nil {
		t.Fatal("expected the Section 6.3 livelock cycle on both engines")
	}
	if sr.ComponentSize != pr.ComponentSize || sr.EntryLen != pr.EntryLen {
		t.Fatalf("starvation reports differ: sequential {size=%d entry=%d}, parallel {size=%d entry=%d}",
			sr.ComponentSize, sr.EntryLen, pr.ComponentSize, pr.EntryLen)
	}
	if fmt.Sprint(sr.MovesByPid) != fmt.Sprint(pr.MovesByPid) {
		t.Fatalf("per-pid moves differ: %v vs %v", sr.MovesByPid, pr.MovesByPid)
	}
	if sr.Entry.String() != pr.Entry.String() {
		t.Fatalf("entry traces differ:\nsequential:\n%s\nparallel:\n%s", sr.Entry.String(), pr.Entry.String())
	}
	sn, pn := seq.FindNoProgress([]int{0, 1, 2}), par.FindNoProgress([]int{0, 1, 2})
	if (sn == nil) != (pn == nil) {
		t.Fatalf("no-progress verdicts differ: sequential %v, parallel %v", sn != nil, pn != nil)
	}
}

// TestParallelCheckMatchesSequential compares Check results across engines,
// including a model that violates the overflow invariant (classic Bakery),
// where the counterexample trace and the partial exploration statistics at
// the early stop must also coincide.
func TestParallelCheckMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		p    func() *gcl.Prog
		opts Options
	}{
		{"bakerypp-N3-M2-clean", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) },
			Options{Invariants: []Invariant{Mutex(), NoOverflow()}}},
		{"bakery-N2-M3-overflow", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 2, M: 3}) },
			Options{Invariants: []Invariant{NoOverflow()}}},
		{"modbakery-N2-M2-mutex", func() *gcl.Prog { return specs.ModBakery(2, 2) },
			Options{Invariants: []Invariant{Mutex()}}},
		{"bakerypp-N3-M2-bounded", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) },
			Options{Invariants: []Invariant{Mutex()}, MaxStates: 500}},
		// Two cells that span many full pre-pass chunks.
		{"bakery-N4-M4-overflow", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 4, M: 4}) },
			Options{Invariants: []Invariant{Mutex(), NoOverflow()}}},
		{"bakerypp-N3-M4-clean", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 4}) },
			Options{Invariants: []Invariant{Mutex(), NoOverflow()}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seqOpts, parOpts := c.opts, c.opts
			parOpts.Workers = 4
			requireResultsIdentical(t, Check(c.p(), seqOpts), Check(c.p(), parOpts))
		})
	}
}

// TestInvariantCallsIndependentOfWorkers pins where invariants run: once
// per fresh state, in numbering order, on the merge goroutine. An invariant
// that records every state it is called on sees the same sequence at any
// worker count, on a complete run and on one that stops at a violation.
func TestInvariantCallsIndependentOfWorkers(t *testing.T) {
	cases := []struct {
		name string
		p    func() *gcl.Prog
	}{
		{"bakerypp-N3-M2", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }},
		{"modbakery-N3-M3-mutex", func() *gcl.Prog { return specs.ModBakery(3, 3) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var base []uint64
			for _, workers := range []int{0, 2, 4} {
				var seen []uint64
				record := Invariant{Name: "record", Holds: func(_ *gcl.Prog, s gcl.State) bool {
					seen = append(seen, s.Fingerprint())
					return true
				}}
				res := Check(c.p(), Options{Invariants: []Invariant{record, Mutex(), NoOverflow()}, Workers: workers})
				if len(seen) != res.States {
					t.Fatalf("workers=%d: %d invariant calls for %d states", workers, len(seen), res.States)
				}
				if base == nil {
					base = seen
					continue
				}
				if !slices.Equal(seen, base) {
					t.Fatalf("workers=%d: invariant call sequence differs from the sequential run's", workers)
				}
			}
		})
	}
}

// requireResultsIdentical asserts that two Check results agree on counts,
// verdict, and the counterexample trace text.
func requireResultsIdentical(t *testing.T, seq, par *Result) {
	t.Helper()
	if seq.States != par.States || seq.Transitions != par.Transitions ||
		seq.Depth != par.Depth || seq.Complete != par.Complete {
		t.Fatalf("results differ:\nsequential: states=%d transitions=%d depth=%d complete=%v\nparallel:   states=%d transitions=%d depth=%d complete=%v",
			seq.States, seq.Transitions, seq.Depth, seq.Complete,
			par.States, par.Transitions, par.Depth, par.Complete)
	}
	if (seq.Violation == nil) != (par.Violation == nil) {
		t.Fatalf("violation verdicts differ: sequential %v, parallel %v",
			seq.Violation != nil, par.Violation != nil)
	}
	if seq.Violation != nil {
		if seq.Violation.Invariant != par.Violation.Invariant {
			t.Fatalf("violated invariant differs: %q vs %q",
				seq.Violation.Invariant, par.Violation.Invariant)
		}
		if seq.Violation.Trace.String() != par.Violation.Trace.String() {
			t.Fatalf("counterexample traces differ:\nsequential:\n%s\nparallel:\n%s",
				seq.Violation.Trace.String(), par.Violation.Trace.String())
		}
	}
}

// TestEarlyStopJoinsChunkInFlight: Checks that stop — at a violation, or
// at MaxStates — while the pool is expanding the chunk after the one being
// merged return the sequential Result, and no pool goroutine outlives
// them. Each case stops thousands of states into a wide BFS level, where
// the chunk after the one being merged has launched. The runs are pinned to
// one P, so pool goroutines run only when the merge goroutine yields. The
// invariants are called once per fresh state in numbering order at any
// worker count, so the first-listed one can sample the goroutine count at
// the parallel run's stop: the call that was the sequential run's last.
// Pool goroutines must be alive there, and the count must fall back to
// what it was before Check once Check returns.
func TestEarlyStopJoinsChunkInFlight(t *testing.T) {
	cases := []struct {
		name string
		p    func() *gcl.Prog
		max  int
	}{
		{"modbakery-N3-M3-mutex", func() *gcl.Prog { return specs.ModBakery(3, 3) }, 0},
		{"bakery-N3-M3-overflow", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 3, M: 3}) }, 0},
		{"bakerypp-N3-M2-bounded", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, 20000},
		// Stops with a full chunk in flight (TestPrepassMemoryBound).
		{"bakery-N4-M4-overflow", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 4, M: 4}) }, 0},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			calls, stop, atStop := 0, 0, 0
			count := Invariant{Name: "count", Holds: func(*gcl.Prog, gcl.State) bool {
				calls++
				return true
			}}
			sample := Invariant{Name: "sample", Holds: func(*gcl.Prog, gcl.State) bool {
				if calls++; calls == stop {
					atStop = runtime.NumGoroutine()
				}
				return true
			}}
			opts := func(workers int, first Invariant) Options {
				return Options{Invariants: []Invariant{first, Mutex(), NoOverflow()}, MaxStates: c.max, Workers: workers}
			}
			seq := Check(c.p(), opts(0, count))
			if seq.Complete {
				t.Fatalf("sequential run completed (%d states); the case must stop early", seq.States)
			}
			stop, calls = calls, 0
			before := runtime.NumGoroutine()
			par := Check(c.p(), opts(2, sample))
			requireResultsIdentical(t, seq, par)
			if calls != stop {
				t.Fatalf("parallel run made %d invariant calls, sequential %d", calls, stop)
			}
			if atStop <= before {
				t.Fatalf("%d goroutines at the stop, %d before Check: no chunk was in flight", atStop, before)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines running after the early stop, %d before", n, before)
			}
		})
	}
}

// TestParallelWorkerCountsAgree pins that the graph does not depend on the
// worker count (1, 2, 4, 8, and GOMAXPROCS via -1 all agree).
func TestParallelWorkerCountsAgree(t *testing.T) {
	mk := func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 2, M: 3}) }
	base, err := BuildGraph(mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, -1} {
		g, err := BuildGraph(mk(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireGraphsIdentical(t, base, g)
	}
}

// TestFingerprintBasics sanity-checks the gcl fingerprint the visited store
// keys on: stable for equal states, and collision-free across the reachable
// set of a real model (not guaranteed in general, but a collision among a
// few thousand states would indicate a broken hash).
func TestFingerprintBasics(t *testing.T) {
	g, err := BuildGraph(specs.BakeryPP(specs.Config{N: 2, M: 3}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for i := 0; i < g.NumStates(); i++ {
		s := g.State(i)
		if s.Fingerprint() != g.expl.p.Clone(s).Fingerprint() {
			t.Fatalf("fingerprint of state %d not stable under copy", i)
		}
		if j, dup := seen[s.Fingerprint()]; dup {
			t.Fatalf("fingerprint collision between distinct states %d and %d", j, i)
		}
		seen[s.Fingerprint()] = i
	}
}
