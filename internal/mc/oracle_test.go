package mc

// An independent oracle for Check: a deliberately naive breadth-first
// search over a map keyed by the formatted state vector — no arenas,
// fingerprints, stores, pre-pass or reductions. The Workers-0 versus
// Workers-N parity suites compare the engine with itself; this is the
// reference they lack.

import (
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// naiveResult is the oracle's account of a safety check, in Result's terms.
type naiveResult struct {
	states, transitions, depth int
	// violated names the first invariant broken, in BFS discovery order
	// ("" when none is).
	violated string
	// dist is every discovered state's BFS distance from the initial state.
	dist map[string]int
}

func naiveKey(s gcl.State) string { return fmt.Sprint([]int32(s)) }

// naiveCheck explores p breadth-first, expanding processes in pid order
// and each process's branches in declaration order, and stops at the first
// state that breaks an invariant.
func naiveCheck(p *gcl.Prog, invs []Invariant) naiveResult {
	broken := func(s gcl.State) string {
		for _, inv := range invs {
			if !inv.Holds(p, s) {
				return inv.Name
			}
		}
		return ""
	}
	init := p.InitState()
	r := naiveResult{states: 1, dist: map[string]int{naiveKey(init): 0}}
	if r.violated = broken(init); r.violated != "" {
		return r
	}
	queue := []gcl.State{init}
	for h := 0; h < len(queue); h++ {
		d := r.dist[naiveKey(queue[h])]
		r.depth = d
		for pid := 0; pid < p.N; pid++ {
			for _, sc := range p.Succs(queue[h], pid, gcl.ModeUnbounded, nil) {
				r.transitions++
				k := naiveKey(sc.State)
				if _, seen := r.dist[k]; seen {
					continue
				}
				r.dist[k] = d + 1
				queue = append(queue, sc.State)
				r.states++
				if r.violated = broken(sc.State); r.violated != "" {
					return r
				}
			}
		}
	}
	return r
}

// replayCounterexample re-executes a trace against the program: every step
// must be a real transition of the named process at the named label, and
// the final state must break the named invariant.
func replayCounterexample(t *testing.T, p *gcl.Prog, v *Violation, invs []Invariant) {
	t.Helper()
	if !v.Trace.Init.Equal(p.InitState()) {
		t.Fatal("counterexample does not start at the initial state")
	}
	cur := v.Trace.Init
	for i, st := range v.Trace.Steps {
		ok := false
		for _, sc := range p.Succs(cur, st.Pid, gcl.ModeUnbounded, nil) {
			if sc.Label(p) == st.Label && sc.State.Equal(st.State) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("step %d (p%d:%s) is not a transition of the program", i+1, st.Pid, st.Label)
		}
		cur = st.State
	}
	for _, inv := range invs {
		if inv.Name == v.Invariant {
			if inv.Holds(p, cur) {
				t.Fatalf("counterexample's last state satisfies %s", v.Invariant)
			}
			return
		}
	}
	t.Fatalf("counterexample names unknown invariant %q", v.Invariant)
}

// TestCheckMatchesNaiveOracle cross-checks Check, sequentially and with the
// parallel pre-pass, against the naive search on every registered
// specification at N <= 3 (full search, exact store): same verdict, same
// state, transition and depth counts — at the early stop of a violating
// run too, since both search in the same order — and every counterexample
// replays, ends in a state breaking the named invariant, and is as short
// as the oracle's BFS distance to that state.
func TestCheckMatchesNaiveOracle(t *testing.T) {
	invs := []Invariant{Mutex(), NoOverflow()}
	for _, name := range specs.Names() {
		for _, n := range []int{2, 3} {
			cfg := specs.Config{N: n, M: 2}
			p, err := specs.Get(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveCheck(p, invs)
			for _, workers := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s-n%d-m%d/w%d", name, cfg.N, cfg.M, workers), func(t *testing.T) {
					res := Check(p, Options{Invariants: invs, Workers: workers})
					got := ""
					if res.Violation != nil {
						got = res.Violation.Invariant
					}
					if got != want.violated || res.Complete != (want.violated == "") {
						t.Fatalf("verdict: Check violated %q (complete %v), oracle %q", got, res.Complete, want.violated)
					}
					if res.States != want.states || res.Transitions != want.transitions || res.Depth != want.depth {
						t.Fatalf("Check (%d states, %d transitions, depth %d), oracle (%d, %d, %d)",
							res.States, res.Transitions, res.Depth, want.states, want.transitions, want.depth)
					}
					if res.Violation == nil {
						return
					}
					replayCounterexample(t, p, res.Violation, invs)
					last := res.Violation.Trace.Init
					if k := res.Violation.Trace.Len(); k > 0 {
						last = res.Violation.Trace.Steps[k-1].State
					}
					if d := want.dist[naiveKey(last)]; res.Violation.Trace.Len() != d {
						t.Fatalf("counterexample has %d steps, the oracle reaches its last state in %d", res.Violation.Trace.Len(), d)
					}
				})
			}
		}
	}
}
