package mc

import (
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// Quotient reports whether the graph's visited store was symmetry-reduced;
// TestLivenessMatchesNaiveOracle prints it beside each verdict. BuildGraph
// never plans symmetry, so it is false.
func (g *Graph) Quotient() bool { return g.expl.symmetry }

// allSCCs collects every component sccs hands out, unfiltered.
func allSCCs(g *Graph) [][]int32 {
	var out [][]int32
	g.sccs(func(int32) bool { return true }, func(v, ei int32) bool { return true }, func(comp []int32) bool {
		out = append(out, append([]int32(nil), comp...))
		return false
	})
	return out
}

// checkExplorer runs Check's exploration loop for p under opts' safety
// plan to the end of the state space — no invariant stops, no bound — and
// returns the explorer, whose numbered states are the ones Check stores.
func checkExplorer(t *testing.T, p *gcl.Prog, opts Options) *explorer {
	t.Helper()
	plan, err := planFor(p, opts, SafetyAnalysis{Invariants: opts.Invariants})
	if err != nil {
		t.Fatal(err)
	}
	e := newExplorer(p, opts, plan)
	defer e.join()
	e.addInit(p.InitState())
	for head := int32(0); int(head) < e.numStates(); head++ {
		x := e.expansionOf(head)
		lo, hi := e.commit(x, e.depthOf(head))
		for i := lo; i < hi; i++ {
			e.addSucc(x, i, head)
		}
	}
	return e
}

// TestCursorResetPreservesSuccessors guards the liveAt contract the
// dead-cursor reset rests on: zeroing a cursor where it is declared dead
// must not change what a process can do. For every registered spec at
// N=2,3 it walks every naively reachable state s, crash successors
// included, and requires each pid's successors of s and of
// NormalizeCursors(s) to match in (pid, label, branch) order with equal
// normalized states, and each pid's crash successors to agree up to the
// reset. States that overflow (classic Bakery's unbounded tickets) are
// checked but not expanded, which keeps every walk finite. A liveAt list
// missing a label where the cursor is read fails here; without the test it
// would silently corrupt every cycle verdict.
func TestCursorResetPreservesSuccessors(t *testing.T) {
	overflow := NoOverflow()
	for _, name := range specs.Names() {
		for _, n := range []int{2, 3} {
			p, err := specs.Get(name, specs.Config{N: n, M: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s-n%d", name, n), func(t *testing.T) {
				seen := map[string]bool{}
				queue := []gcl.State{p.InitState()}
				seen[p.Key(queue[0])] = true
				add := func(s gcl.State) {
					if k := p.Key(s); !seen[k] {
						seen[k] = true
						queue = append(queue, s)
					}
				}
				reset := 0
				for h := 0; h < len(queue); h++ {
					s := queue[h]
					norm := p.NormalizeCursors(s)
					if !norm.Equal(s) {
						reset++
					}
					for pid := 0; pid < n; pid++ {
						got := p.Succs(norm, pid, gcl.ModeUnbounded, nil)
						want := p.Succs(s, pid, gcl.ModeUnbounded, nil)
						if len(got) != len(want) {
							t.Fatalf("p%d has %d successors at %s but %d at its reset image %s",
								pid, len(want), p.Format(s), len(got), p.Format(norm))
						}
						for k := range want {
							w, g := &want[k], &got[k]
							if w.Pid != g.Pid || w.LabelIdx != g.LabelIdx || w.Branch != g.Branch ||
								!p.NormalizeCursors(w.State).Equal(p.NormalizeCursors(g.State)) {
								t.Fatalf("successor %d of p%d: %s takes p%d:%s branch %d to %s, its reset image %s takes p%d:%s branch %d to %s",
									k, pid, p.Format(s), w.Pid, w.Label(p), w.Branch, p.Format(w.State),
									p.Format(norm), g.Pid, g.Label(p), g.Branch, p.Format(g.State))
							}
						}
						crash := p.CrashSucc(s, pid)
						if !p.NormalizeCursors(crash).Equal(p.NormalizeCursors(p.CrashSucc(norm, pid))) {
							t.Fatalf("crash of p%d at %s and at its reset image disagree", pid, p.Format(s))
						}
						if !overflow.Holds(p, s) {
							continue
						}
						for k := range want {
							add(want[k].State)
						}
						add(crash)
					}
				}
				t.Logf("%d states, %d with a dead cursor to reset", len(queue), reset)
				if name == "bakerypp" && reset == 0 {
					t.Fatal("no state has a dead cursor to reset: the walk checks nothing")
				}
			})
		}
	}
}

// naiveResetGraph is the reset graph built by a naive map-keyed BFS: every
// successor's dead cursors zeroed with NormalizeCursors, states numbered
// in discovery order, each state's edges its successors' numbers in
// generation order.
func naiveResetGraph(p *gcl.Prog) ([]gcl.State, [][]int32) {
	index := map[string]int32{}
	var states []gcl.State
	var adj [][]int32
	add := func(s gcl.State) int32 {
		if i, ok := index[p.Key(s)]; ok {
			return i
		}
		index[p.Key(s)] = int32(len(states))
		states = append(states, s)
		adj = append(adj, nil)
		return int32(len(states) - 1)
	}
	add(p.NormalizeCursors(p.InitState()))
	for h := 0; h < len(states); h++ {
		for _, sc := range p.AllSuccs(states[h], gcl.ModeUnbounded) {
			to := add(p.NormalizeCursors(sc.State))
			adj[h] = append(adj[h], to)
		}
	}
	return states, adj
}

// TestResetGraphMatchesNormalizedBFS pins BuildGraph's graph, on the exact
// tier and on the spill tier (whose states are read from mapped blocks),
// to the naive normalized BFS: the same states in the same order, the same
// edges. On bakerypp N=3 M=2 both are 14,066 states and 37,076 edges, the
// node and edge counts of the orbit-tracking product the cycle searches
// walked under -symmetry before the reset.
func TestResetGraphMatchesNormalizedBFS(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	states, adj := naiveResetGraph(p)
	edges := 0
	for _, out := range adj {
		edges += len(out)
	}
	if len(states) != 14066 || edges != 37076 {
		t.Fatalf("naive reset graph: %d states, %d edges; want 14066 and 37076", len(states), edges)
	}
	for _, store := range []string{"exact", "exact,spill"} {
		g, err := BuildGraph(p, Options{Store: mustStore(t, store)})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumStates() != len(states) || g.Summary.Transitions != edges {
			t.Fatalf("%s: graph has %d states, %d transitions; naive %d, %d",
				store, g.NumStates(), g.Summary.Transitions, len(states), edges)
		}
		for v := range states {
			if !g.State(v).Equal(states[v]) {
				t.Fatalf("%s: state %d is %s, naive %s", store, v, p.Format(g.State(v)), p.Format(states[v]))
			}
			if int(g.degree(int32(v))) != len(adj[v]) {
				t.Fatalf("%s: state %d has %d edges, naive %d", store, v, g.degree(int32(v)), len(adj[v]))
			}
			for k, to := range adj[v] {
				if e := g.edge(int32(v), int32(k)); e.To != to {
					t.Fatalf("%s: edge %d of state %d goes to %d, naive %d", store, k, v, e.To, to)
				}
			}
		}
	}
}
