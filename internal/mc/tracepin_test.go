package mc

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// traceHash is the first eight bytes of the SHA-256 of a trace's rendering,
// in hex.
func traceHash(t *Trace) string {
	sum := sha256.Sum256([]byte(t.String()))
	return fmt.Sprintf("%x", sum[:8])
}

// TestCounterexamplesPinned pins four counterexamples byte for byte, at
// Workers 0 and 2. A replayable trace is not enough: any valid parent of a
// state gives one, where the engine must give the first parent BFS met, the
// one the merge recorded. The hashes were taken with parents stored one
// int32 per state, so the succinct parent column must reconstruct the same
// paths: the counterexamples of Check (through trace) on bakery N=4 M=4
// (an overflow, 34 steps), modbakery N=3 M=3, and modbakery N=4 M=3 under
// symmetry and partial-order reduction, and the N=4 -starve 3 lasso of
// bakerypp M=2, whose stem comes from pathFromRoot, with the tree path
// to that graph's deepest state.
func TestCounterexamplesPinned(t *testing.T) {
	inv := []Invariant{Mutex(), NoOverflow()}
	checks := []struct {
		name string
		p    *gcl.Prog
		opts Options
		want string
	}{
		{"bakery N=4 M=4", specs.Bakery(specs.Config{N: 4, M: 4}), Options{Invariants: inv}, "ec614009adbf193a"},
		{"modbakery N=3 M=3", specs.ModBakery(3, 3), Options{Invariants: inv}, "37ab105cb283ef6d"},
		{"modbakery N=4 M=3 symmetry+POR", specs.ModBakery(4, 3), Options{Invariants: inv, Symmetry: true, POR: true}, "5490c1bacb20fa3c"},
	}
	for _, workers := range []int{0, 2} {
		for _, c := range checks {
			opts := c.opts
			opts.Workers = workers
			res := Check(c.p, opts)
			if res.Violation == nil {
				t.Fatalf("%s workers=%d: no counterexample", c.name, workers)
			}
			if got := traceHash(&res.Violation.Trace); got != c.want {
				t.Errorf("%s workers=%d: %d-step %s counterexample hashes to %s, want %s",
					c.name, workers, res.Violation.Trace.Len(), res.Violation.Invariant, got, c.want)
			}
		}

		p := specs.BakeryPP(specs.Config{N: 4, M: 2})
		g, err := BuildGraph(p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		l1 := p.LabelIndex(specs.LivenessOf(p).StarveAt)
		rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, 3) == l1 }, []int{0, 1, 2})
		if rep == nil {
			t.Fatalf("bakerypp N=4 M=2 workers=%d: no livelock pins process 3", workers)
		}
		cyc := Trace{Prog: p, Init: rep.Entry.Init, Steps: rep.Cycle}
		if n := len(rep.Entry.Steps); n > 0 {
			cyc.Init = rep.Entry.Steps[n-1].State
		}
		if got, want := traceHash(&rep.Entry)+" "+traceHash(&cyc), "b8e1ebb9084e7fa0 d3b870d859faf610"; got != want {
			t.Errorf("bakerypp N=4 M=2 -starve 3 workers=%d: %d-step stem and %d-step cycle hash to %s, want %s",
				workers, len(rep.Entry.Steps), len(rep.Cycle), got, want)
		}
		// The lasso's stem is one step; the last state numbered is the
		// deepest, so its tree path walks the whole parent chain.
		last := int32(g.NumStates() - 1)
		path := g.pathFromRoot(last)
		sum := sha256.Sum256([]byte(fmt.Sprint(path)))
		if got, want := fmt.Sprintf("%x", sum[:8]), "027bf2fb9790e36f"; len(path) != int(g.expl.depthOf(last)) || got != want {
			t.Errorf("bakerypp N=4 M=2 workers=%d: tree path to state %d has %d steps (depth %d), hashes to %s, want %s",
				workers, last, len(path), g.expl.depthOf(last), got, want)
		}
	}
}
