package mc

import (
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// fcfsCountCell is one pinned CheckFCFS outcome: the monitored program's
// state count without and with pinned symmetry, and the witness length of
// a violation (0 when FCFS holds).
type fcfsCountCell struct {
	p             func() *gcl.Prog
	first, second int
	full, pinned  int
	witness       int
}

// TestFCFSMonitorCounts pins CheckFCFS's state counts. Where FCFS holds
// they are the product-node counts of the monitor product search the
// monitored program replaced; a violation numbers its violating state, one
// more than that search, with a witness of the same length.
func TestFCFSMonitorCounts(t *testing.T) {
	cells := []fcfsCountCell{
		{func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, 2, 0, 44849, 18318, 0},
		{func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 4, M: 2}) }, 0, 1, 1740182, 252884, 0},
		{func() *gcl.Prog { return specs.BlackWhite(2) }, 0, 1, 2496, 2496, 0},
		{func() *gcl.Prog { return specs.BlackWhite(2) }, 1, 0, 2712, 2712, 0},
		{func() *gcl.Prog { return specs.Szymanski(2) }, 0, 1, 103, 103, 0},
		{func() *gcl.Prog { return specs.Szymanski(3) }, 2, 0, 419, 419, 10},
		{func() *gcl.Prog { return specs.Peterson(3) }, 0, 1, 1394, 1394, 20},
		{func() *gcl.Prog { return specs.ModBakery(3, 3) }, 0, 1, 26850, 16624, 43},
	}
	for _, c := range cells {
		for _, sym := range []bool{false, true} {
			p := c.p()
			t.Run(fmt.Sprintf("%s-n%d-%d,%d/sym=%v", p.Name, p.N, c.first, c.second, sym), func(t *testing.T) {
				if p.N == 4 && testing.Short() {
					t.Skip("1.7M states")
				}
				res := mustFCFS(p, c.first, c.second, Options{Symmetry: sym})
				want := c.full
				if sym {
					want = c.pinned
				}
				if res.States != want || res.Holds != (c.witness == 0) {
					t.Fatalf("%s, want %d states, holds %v", res, want, c.witness == 0)
				}
				if !res.Holds && res.Witness.Len() != c.witness {
					t.Fatalf("witness has %d steps, want %d", res.Witness.Len(), c.witness)
				}
			})
		}
	}
	bounded := mustFCFS(specs.Bakery(specs.Config{N: 2, M: 1 << 14}), 0, 1, Options{MaxStates: 60000})
	if !bounded.Holds || bounded.Complete || bounded.States != 60000 {
		t.Fatalf("bounded bakery: %s, want FCFS holding at the 60000-state bound", bounded)
	}
}

// TestFCFSEngineParity checks that CheckFCFS's verdict, state count and
// witness do not depend on Workers or on the spill tier, with and without
// pinned symmetry, and that every witness is a real execution that drives
// the monitor to its violation phase.
func TestFCFSEngineParity(t *testing.T) {
	spill := mustStore(t, "exact,spill")
	cells := []struct {
		p             func() *gcl.Prog
		first, second int
	}{
		{func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, 2, 0},
		{func() *gcl.Prog { return specs.Peterson(3) }, 0, 1},
		{func() *gcl.Prog { return specs.Szymanski(3) }, 2, 0},
		{func() *gcl.Prog { return specs.ModBakery(3, 3) }, 0, 1},
	}
	for _, c := range cells {
		for _, sym := range []bool{false, true} {
			base := mustFCFS(c.p(), c.first, c.second, Options{Symmetry: sym})
			if !base.Holds {
				replayFCFSWitness(t, base)
			}
			for _, opts := range []Options{{Workers: 2}, {Store: spill}, {Workers: 2, Store: spill}} {
				opts.Symmetry = sym
				got := mustFCFS(c.p(), c.first, c.second, opts)
				if got.String() != base.String() {
					t.Fatalf("workers %d, store %s: %s; workers 0: %s", opts.Workers, opts.Store.String(), got, base)
				}
				if !got.Holds && got.Witness.String() != base.Witness.String() {
					t.Fatalf("%s: witness at workers %d, store %s differs:\n%s\nworkers 0:\n%s",
						got, opts.Workers, opts.Store.String(), got.Witness, base.Witness)
				}
			}
		}
	}
}

// replayFCFSWitness replays a violation witness on the monitored program:
// every step must be a transition of the named process at the named label
// whose state, the monitor cell dropped, is the step's, and the last must
// leave the monitor in its violation phase.
func replayFCFSWitness(t *testing.T, r *FCFSResult) {
	t.Helper()
	mp, inv := fcfsMonitored(r.Prog, r.First, r.Second)
	cell := mp.SharedCells() - 1
	drop := func(s gcl.State) gcl.State { return append(s[:cell:cell], s[cell+1:]...) }
	cur := mp.InitState()
	if !drop(cur).Equal(r.Witness.Init) {
		t.Fatal("witness does not start at the initial state")
	}
	for i, st := range r.Witness.Steps {
		var next gcl.State
		for _, sc := range mp.Succs(cur, st.Pid, gcl.ModeUnbounded, nil) {
			if sc.Label(mp) == st.Label && drop(sc.State).Equal(st.State) {
				next = sc.State
				break
			}
		}
		if next == nil {
			t.Fatalf("%s: witness step %d (p%d:%s) is not a transition of the program", r, i+1, st.Pid, st.Label)
		}
		cur = next
	}
	if inv.Holds(mp, cur) {
		t.Fatalf("%s: the witness leaves the monitor in phase %d", r, cur[cell])
	}
}
