package mc

import (
	"fmt"
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
		if seq.expl.parent[i] != par.expl.parent[i] ||
			seq.expl.parentBy[i] != par.expl.parentBy[i] ||
			seq.expl.parentLb[i] != par.expl.parentLb[i] ||
			seq.expl.depth[i] != par.expl.depth[i] {
			t.Fatalf("BFS tree differs at state %d: sequential (parent=%d by=%d lb=%q d=%d), parallel (parent=%d by=%d lb=%q d=%d)",
				i, seq.expl.parent[i], seq.expl.parentBy[i], seq.expl.parentLb[i], seq.expl.depth[i],
				par.expl.parent[i], par.expl.parentBy[i], par.expl.parentLb[i], par.expl.depth[i])
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seqOpts, parOpts := c.opts, c.opts
			parOpts.Workers = 4
			seq := Check(c.p(), seqOpts)
			par := Check(c.p(), parOpts)
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
