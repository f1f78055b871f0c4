package mc

// An independent oracle for Check: a deliberately naive breadth-first
// search over a map keyed by the formatted state vector — no arenas,
// fingerprints, stores, pre-pass or reductions. The Workers-0 versus
// Workers-N parity suites compare the engine with itself; this is the
// reference they lack.

import (
	"fmt"
	"slices"
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
	// reached lists the discovered states in BFS discovery order.
	reached []gcl.State
	// producers lists, index-aligned with reached, the action that
	// discovered each state (pid -1 and no label for the initial state).
	producers []naiveProducer
}

// naiveProducer is the action that discovered a state: the moving pid and
// the label it moved from.
type naiveProducer struct {
	pid   int
	label string
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
	r.reached = []gcl.State{init}
	r.producers = []naiveProducer{{pid: -1}}
	if r.violated = broken(init); r.violated != "" {
		return r
	}
	for h := 0; h < len(r.reached); h++ {
		d := r.dist[naiveKey(r.reached[h])]
		r.depth = d
		for pid := 0; pid < p.N; pid++ {
			for _, sc := range p.Succs(r.reached[h], pid, gcl.ModeUnbounded, nil) {
				r.transitions++
				k := naiveKey(sc.State)
				if _, seen := r.dist[k]; seen {
					continue
				}
				r.dist[k] = d + 1
				r.reached = append(r.reached, sc.State)
				r.producers = append(r.producers, naiveProducer{pid: sc.Pid, label: sc.Label(p)})
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

// TestProducerMatchesNaiveOracle checks the engine's re-derived producers
// against the naive search on the same grid as TestCheckMatchesNaiveOracle:
// every state the oracle numbers, up to its stop at a violation, has the
// engine's number, and the action
// the engine re-derives from its parent (explorer.producer) is the one
// whose successor the oracle discovered it by, at workers 0 and 2.
func TestProducerMatchesNaiveOracle(t *testing.T) {
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
					// Check's merge loop, run to the oracle's stop.
					opts := Options{Invariants: invs, Workers: workers}
					plan, err := planFor(p, opts, SafetyAnalysis{Invariants: invs})
					if err != nil {
						t.Fatal(err)
					}
					e := newExplorer(p, opts, plan)
					defer e.join()
					e.addInit(p.InitState())
					for head := int32(0); e.numStates() < want.states; head++ {
						x := e.expansionOf(head)
						lo, hi := e.commit(x, e.depthOf(head))
						for i := lo; i < hi && e.numStates() < want.states; i++ {
							e.addSucc(x, i, head)
						}
					}
					var w wctx
					e.initCtx(&w)
					for i := 1; i < want.states; i++ {
						s := e.stateAt(int32(i))
						if !s.Equal(want.reached[i]) {
							t.Fatalf("state %d is %v, the oracle's is %v", i, s, want.reached[i])
						}
						parent := e.parent.at(int32(i))
						pid, lb := e.producer(&w, parent, e.stateAt(parent), s)
						if got := (naiveProducer{pid: pid, label: e.labelName(lb)}); got != want.producers[i] {
							t.Fatalf("state %d: re-derived producer p%d:%s, the oracle's p%d:%s",
								i, got.pid, got.label, want.producers[i].pid, want.producers[i].label)
						}
					}
				})
			}
		}
	}
}

// A naive lasso oracle for the cycle analyses: the reachable graph as a
// map keyed by the formatted state vector, with each edge's moving pid and
// branch tag, and a plain recursive Tarjan under a fairness filter. It
// shares nothing with the engine — no product, no reductions, no helpers of
// this package beyond naiveKey — so full and quotient verdicts are checked
// against a reference rather than against each other.

// naiveEdge is one transition of the oracle's graph.
type naiveEdge struct {
	to, pid int
	tag     string
}

// naiveGraph is the reachable graph of a program, states numbered in
// breadth-first discovery order.
type naiveGraph struct {
	states []gcl.State
	adj    [][]naiveEdge
}

func naiveBuildGraph(p *gcl.Prog) naiveGraph {
	var g naiveGraph
	index := map[string]int{}
	add := func(s gcl.State) int {
		k := naiveKey(s)
		if i, ok := index[k]; ok {
			return i
		}
		index[k] = len(g.states)
		g.states = append(g.states, s)
		g.adj = append(g.adj, nil)
		return len(g.states) - 1
	}
	add(p.InitState())
	for h := 0; h < len(g.states); h++ {
		for pid := 0; pid < p.N; pid++ {
			for _, sc := range p.Succs(g.states[h], pid, gcl.ModeUnbounded, nil) {
				to := add(sc.State)
				g.adj[h] = append(g.adj[h], naiveEdge{to: to, pid: pid, tag: sc.Tag(p)})
			}
		}
	}
	return g
}

// naiveFairCycle reports whether g has a cycle on which ok holds at every
// state, no edge is tagged avoid ("" avoids nothing), and every pid in
// mustMove takes a step: a strongly connected component of the filtered
// graph with at least one internal edge and an internal edge of every
// mustMove pid.
func naiveFairCycle(g naiveGraph, ok func(gcl.State) bool, avoid string, mustMove []int) bool {
	n := len(g.states)
	keep := func(v int, e naiveEdge) bool {
		return ok(g.states[v]) && ok(g.states[e.to]) && (avoid == "" || e.tag != avoid)
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter, ncomp := 0, 0
	var visit func(v int)
	visit = func(v int) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range g.adj[v] {
			if !keep(v, e) {
				continue
			}
			if index[e.to] < 0 {
				visit(e.to)
				low[v] = min(low[v], low[e.to])
			} else if onStack[e.to] {
				low[v] = min(low[v], index[e.to])
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 && ok(g.states[v]) {
			visit(v)
		}
	}
	moved := make([]map[int]bool, ncomp)
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			continue
		}
		for _, e := range g.adj[v] {
			if keep(v, e) && comp[e.to] == comp[v] {
				if moved[comp[v]] == nil {
					moved[comp[v]] = map[int]bool{}
				}
				moved[comp[v]][e.pid] = true
			}
		}
	}
	for _, m := range moved {
		if m == nil {
			continue // no internal edge: not a cycle
		}
		all := true
		for _, pid := range mustMove {
			all = all && m[pid]
		}
		if all {
			return true
		}
	}
	return false
}

// TestLivenessMatchesNaiveOracle cross-checks FindStarvation (pinned at the
// spec's gate label, and active) and FindNoProgress, on the full graph and
// on the symmetry quotient, against the naive lasso oracle for every
// liveness parity cell at N <= 3.
func TestLivenessMatchesNaiveOracle(t *testing.T) {
	for _, cell := range parityCells() {
		if cell.cfg.N > 3 {
			continue
		}
		cell := cell
		t.Run(fmt.Sprintf("%s-n%d-m%d", cell.algo, cell.cfg.N, cell.cfg.M), func(t *testing.T) {
			mk := func() *gcl.Prog {
				p, err := specs.Get(cell.algo, cell.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			p := mk()
			live := specs.LivenessOf(p)
			oracle := naiveBuildGraph(p)
			var graphs []*Graph
			for _, sym := range []bool{false, true} {
				g, err := BuildGraph(mk(), Options{Symmetry: sym})
				if err != nil {
					t.Fatal(err)
				}
				graphs = append(graphs, g)
			}
			check := func(what string, want bool, got func(g *Graph) bool) {
				t.Helper()
				t.Logf("%s: oracle finds a cycle: %v", what, want)
				for _, g := range graphs {
					if got(g) != want {
						t.Errorf("%s (quotient %v): engine found %v, oracle %v", what, g.Quotient(), !want, want)
					}
				}
			}

			slow := p.N - 1
			var fast []int
			for pid := 0; pid < p.N; pid++ {
				if pid != slow {
					fast = append(fast, pid)
				}
			}
			all := allPids(p.N)
			if live.StarveAt != "" {
				li := p.LabelIndex(live.StarveAt)
				pred := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, slow) == li }
				want := naiveFairCycle(oracle, func(s gcl.State) bool { return pred(p, s) }, "", fast)
				check("starvation@"+live.StarveAt, want, func(g *Graph) bool { return g.FindStarvation(pred, fast) != nil })
			}
			cs := p.LabelIndex("cs")
			active := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, slow) != cs }
			want := naiveFairCycle(oracle, func(s gcl.State) bool { return active(p, s) }, "", all)
			check("active starvation", want, func(g *Graph) bool { return g.FindStarvation(active, all) != nil })
			if live.NoProgress {
				want := naiveFairCycle(oracle, func(gcl.State) bool { return true }, "cs-enter", all)
				check("no-progress", want, func(g *Graph) bool { return g.FindNoProgress(all) != nil })
			}
		})
	}
}

// A naive orbit oracle for the symmetry reduction: the canonical key of a
// state recomputed by brute force — every permutation of the pids, kept
// when it respects the state's scan history (PermValid), applied to the
// cursor-normalized state, least image wins — with no segment sort.

// naivePerms lists every permutation of 0..n-1.
func naivePerms(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, rest := range naivePerms(n - 1) {
		for at := 0; at <= len(rest); at++ {
			perm := append(append(append([]int{}, rest[:at]...), n-1), rest[at:]...)
			out = append(out, perm)
		}
	}
	return out
}

// naiveOrbitKey is the least valid image of s's cursor-normalized form.
func naiveOrbitKey(p *gcl.Prog, s gcl.State, perms [][]int) gcl.State {
	norm := p.NormalizeCursors(s)
	var best gcl.State
	for _, perm := range perms {
		if !p.PermValid(norm, perm) {
			continue
		}
		if img := p.Permute(norm, perm); best == nil || slices.Compare(img, best) < 0 {
			best = img
		}
	}
	return best
}

// TestSymmetryMatchesNaiveOrbits cross-checks the symmetry reduction
// against the naive orbit oracle on every specification that can
// canonicalize, at N=2,3 M=2:
//
//   - Canonicalize equals the brute-force key on every naively reachable
//     state (up to the first violation, for the violating specs);
//   - every state Check's symmetry-reduced store holds is naively
//     reachable, one per orbit;
//   - for the violating specs, Check under symmetry, and under symmetry
//     plus POR, names the invariant the naive search breaks first;
//   - the stored and reachable orbit counts are pinned. The quotient does
//     not hit every reachable orbit: quasi-symmetric dedup expands one
//     representative per orbit, whose successors need not cover its
//     orbit-mates' (docs/model-checking.md, "Soundness: dedup only").
func TestSymmetryMatchesNaiveOrbits(t *testing.T) {
	invs := []Invariant{Mutex(), NoOverflow()}
	// stored/reachable orbit counts, by spec and N.
	pins := map[string]map[int][2]int{
		"bakerypp":  {2: {270, 374}, 3: {2552, 6830}},
		"szymanski": {2: {38, 42}, 3: {130, 152}},
	}
	for _, name := range specs.Names() {
		for _, n := range []int{2, 3} {
			cfg := specs.Config{N: n, M: 2}
			p, err := specs.Get(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !p.CanCanonicalize() {
				continue
			}
			t.Run(fmt.Sprintf("%s-n%d-m%d", name, n, cfg.M), func(t *testing.T) {
				perms := naivePerms(n)
				want := naiveCheck(p, invs)
				orbits := map[string]bool{}
				for _, s := range want.reached {
					key := naiveOrbitKey(p, s, perms)
					if got := p.Canonicalize(s); !got.Equal(key) {
						t.Fatalf("state %s: Canonicalize %v, brute force %v", p.Format(s), got, key)
					}
					orbits[naiveKey(key)] = true
				}
				if want.violated != "" {
					for _, por := range []bool{false, true} {
						res := Check(p, Options{Invariants: invs, Symmetry: true, POR: por})
						if res.Violation == nil || res.Violation.Invariant != want.violated {
							t.Fatalf("symmetry (por %v): %v, naive search violates %q", por, res, want.violated)
						}
					}
					return
				}
				e := checkExplorer(t, p, Options{Invariants: invs, Symmetry: true})
				if !e.symmetry {
					t.Fatal("Check did not reduce")
				}
				stored := map[string]bool{}
				for i := 0; i < e.numStates(); i++ {
					s := e.stateAt(int32(i))
					if _, ok := want.dist[naiveKey(s)]; !ok {
						t.Fatalf("stored state %d (%s) is not naively reachable", i, p.Format(s))
					}
					k := naiveKey(naiveOrbitKey(p, s, perms))
					if stored[k] {
						t.Fatalf("stored state %d repeats an orbit", i)
					}
					stored[k] = true
				}
				t.Logf("%d stored orbits of %d reachable (%d states)", len(stored), len(orbits), len(want.reached))
				if pin, ok := pins[name][n]; ok && (len(stored) != pin[0] || len(orbits) != pin[1]) {
					t.Fatalf("stored/reachable orbits %d/%d, want %d/%d", len(stored), len(orbits), pin[0], pin[1])
				}
			})
		}
	}
}
