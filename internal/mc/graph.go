package mc

import (
	"fmt"
	"time"

	"bakerypp/internal/gcl"
)

// Edge is one transition of the reachability graph. Pid is the moving
// process in the SOURCE state's slot coordinates. LabelIdx is the source
// label's index in the program's label table (crashLabelIdx for crash
// pseudo-transitions); storing the index instead of the string keeps edges
// pointer-free — the GC never scans the adjacency lists — and makes edge
// comparisons integer compares. Render with Graph.EdgeLabel.
type Edge struct {
	To       int32
	Pid      int8
	LabelIdx int32
	// Perm, on a symmetry-reduced (quotient) graph, is the index of the
	// permutation ρ relating the concrete successor t to the stored
	// representative of its orbit: NormalizeCursors(t) =
	// Permute(NormalizeCursors(State(To)), ρ). Index 0 is the identity —
	// in particular every edge to a fresh state, and every edge of an
	// unreduced graph. The quotient-product liveness analyses compose
	// these annotations along paths to recover concrete pid identities
	// (see quotient.go). int32 because indices range over N! — up to
	// 40320 at the N=8 table cap, past int16.
	Perm int32
}

// Graph is the full reachability graph of a program, built by BuildGraph.
// States are indexed densely in BFS discovery order; index 0 is the initial
// state.
type Graph struct {
	// Summary carries the same statistics a Check would produce (states,
	// transitions, first invariant violation if any).
	Summary *Result
	expl    *explorer
	Adj     [][]Edge
	// prod caches the tracking product (quotient.go) across the cycle
	// analyses: it is immutable once built and dominates any single SCC
	// pass, so FindStarvation followed by FindNoProgress must not pay the
	// construction twice. Graphs are not safe for concurrent analysis
	// calls (they never were: the analyses share the explorer's scratch).
	prod *product
}

// NumStates returns the number of reachable states.
func (g *Graph) NumStates() int { return g.expl.numStates() }

// EdgeLabel renders an edge's action label ("CRASH" for crash edges).
func (g *Graph) EdgeLabel(e Edge) string { return g.expl.labelName(e.LabelIdx) }

// State returns the state at a graph index.
func (g *Graph) State(i int) gcl.State { return g.expl.stateAt(int32(i)) }

// BuildGraph explores the complete reachable state space of p and returns
// its transition graph. Unlike Check it does not stop at invariant
// violations (Summary.Violation still records the first one found); it
// fails only if the state bound is exceeded, since an incomplete graph
// would make cycle analysis meaningless. Options.Workers sets how many
// goroutines expand states; state numbering and edge order do not depend
// on it. The reduction plan comes from the pipeline's GraphAnalysis
// declaration: POR never applies (the graph analyses — SCCs, starvation
// and no-progress cycles — quantify over every interleaving, which a
// partial-order-reduced graph by design omits), but symmetry does — the
// result is then the QUOTIENT graph, one state per encountered orbit, with
// permutation-annotated edges the cycle analyses lift concrete pid
// identities through (quotient.go).
func BuildGraph(p *gcl.Prog, opts Options) (*Graph, error) {
	plan, err := planFor(p, opts, GraphAnalysis{Invariants: opts.Invariants})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	e := newExplorer(p, opts, plan)
	defer e.join()
	res := &Result{Prog: p, Symmetry: e.symmetry}
	g := &Graph{Summary: res, expl: e}

	init := p.InitState()
	e.add(&e.wc, init, -1, -1, crashLabelIdx)
	g.Adj = append(g.Adj, nil)
	if v := e.checkInvariants(init); v >= 0 {
		res.Violation = &Violation{Invariant: e.opts.Invariants[v].Name, Trace: e.trace(0)}
	}

	for head := int32(0); int(head) < e.numStates(); head++ {
		if e.numStates() > e.opts.MaxStates {
			return nil, fmt.Errorf("mc: %s: state bound %d exceeded while building graph",
				p.Name, e.opts.MaxStates)
		}
		d := e.depth.at(head)
		res.Depth = int(d)
		x := e.expansionOf(head)
		lo, hi := e.commit(x, d)
		for i := lo; i < hi; i++ {
			res.Transitions++
			idx, fresh := e.addSucc(x, i, head)
			if fresh {
				g.Adj = append(g.Adj, nil)
				if res.Violation == nil {
					if v := e.violation(x, i); v >= 0 {
						res.Violation = &Violation{Invariant: e.opts.Invariants[v].Name, Trace: e.trace(idx)}
					}
				}
			}
			sc := &x.succs[i]
			g.Adj[head] = append(g.Adj[head], Edge{To: idx, Pid: int8(sc.Pid), LabelIdx: sc.LabelIdx,
				Perm: e.edgePermIdx(x.preps[i].perm, idx, fresh)})
		}
	}
	res.States = e.numStates()
	res.Store = e.storeReport()
	res.Complete = true
	res.Elapsed = time.Since(start)
	return g, nil
}

// Quotient reports whether the graph is symmetry-reduced: states are orbit
// representatives and edges carry permutation annotations. The cycle
// analyses below automatically run orbit-aware on such graphs.
func (g *Graph) Quotient() bool { return g.expl.trackPerms }

// Trace reconstructs the BFS path from the initial state to graph index i.
func (g *Graph) Trace(i int) Trace { return g.expl.trace(int32(i)) }

// SCCs returns the strongly connected components of the graph (Tarjan,
// iterative), in reverse topological order. Trivial single-state components
// without a self-loop are included; callers filter as needed.
func (g *Graph) SCCs() [][]int32 {
	n := len(g.Adj)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack   []int32
		sccs    [][]int32
		counter int32
	)

	type frame struct {
		v    int32
		edge int
	}
	var call []frame
	for root := int32(0); root < int32(n); root++ {
		if index[root] != -1 {
			continue
		}
		call = append(call[:0], frame{v: root})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.edge < len(g.Adj[f.v]) {
				w := g.Adj[f.v][f.edge].To
				f.edge++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				if pv := call[len(call)-1].v; low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}

// StarvationReport describes a reachable cycle on which a predicate holds
// forever while a given set of processes keeps taking steps — the shape of
// the paper's Section 6.3 scenario ("the two fast processes keep competing
// ... and they reach M again" while the slow process never leaves L1).
type StarvationReport struct {
	// ComponentSize is the number of states in the witnessing SCC — full
	// states on an unreduced graph, product states (orbit representative ×
	// tracking permutation) on a quotient graph.
	ComponentSize int
	// EntryLen is the number of steps from the initial state to the
	// component.
	EntryLen int
	// Entry is the path from the initial state into the component. It is
	// always a concrete execution; on a quotient graph it is replayed from
	// the product lasso and re-verified step by step (quotient.go).
	Entry Trace
	// MovesByPid counts, for each process, the transitions it owns inside
	// the component. On a quotient graph pids are CONCRETE identities,
	// recovered through the edges' permutation annotations.
	MovesByPid []int
	// Component lists the graph indices of the component's states, so
	// callers can assert additional properties (e.g. that the starved
	// process is genuinely blocked somewhere on the cycle, ruling out
	// plain unfair-scheduler starvation). On a quotient graph these are
	// the distinct orbit representatives the product component touches.
	Component []int32
	// Quotient reports the analysis ran orbit-aware on the quotient graph.
	Quotient bool
	// Cycle, on a quotient graph, is the concrete execution closing the
	// lasso: starting from Entry's final state, every listed step is a
	// real transition, the predicate holds throughout, every mustMove pid
	// moves, and the final state revisits the starting state's orbit
	// position — verified by execution before the report is returned.
	// Unreduced analyses leave it nil (the SCC itself is the witness).
	Cycle []Step
}

// FindStarvation searches for a reachable strongly connected component with
// at least one edge, all of whose states satisfy pred, and inside which
// every process in mustMove takes at least one step. It returns nil if no
// such component exists. pred typically pins the starved process to a label
// (e.g. "pc of process 2 is l1") while mustMove lists the fast processes.
//
// On a quotient graph (BuildGraph under symmetry) the search runs on the
// permutation-tracked product, so pred still reads CONCRETE pid positions:
// it is evaluated on the orbit representative permuted back into the
// concrete frame of each path that reaches it. Predicates must not depend
// on dead scan-cursor values (normalized away in orbit keys); pc- and
// shared-value predicates are unaffected. A found lasso is replayed to a
// concrete full-space execution and re-verified before being reported.
func (g *Graph) FindStarvation(pred func(p *gcl.Prog, s gcl.State) bool, mustMove []int) *StarvationReport {
	if g.Quotient() {
		return g.findStarvationQuotient(pred, mustMove)
	}
	n := len(g.Adj)
	ok := make([]bool, n)
	for i := 0; i < n; i++ {
		ok[i] = pred(g.expl.p, g.expl.stateAt(int32(i)))
	}
	// Build the subgraph induced by pred and run SCC over it by masking
	// edges whose endpoints fall outside.
	masked := &Graph{expl: g.expl, Adj: make([][]Edge, n)}
	for v := 0; v < n; v++ {
		if !ok[v] {
			continue
		}
		for _, e := range g.Adj[v] {
			if ok[e.To] {
				masked.Adj[v] = append(masked.Adj[v], e)
			}
		}
	}
	// Component membership via epoch marking: one int32 slice reused
	// across components (a fresh epoch per component) instead of a
	// per-SCC map — the SCC loop over a million-state graph allocates
	// nothing and probes by index.
	mark := make([]int32, n)
	epoch := int32(0)
	for _, comp := range masked.SCCs() {
		if len(comp) == 1 && !hasSelfLoop(masked, comp[0]) {
			continue
		}
		epoch++
		predOK := true
		for _, v := range comp {
			if !ok[v] {
				predOK = false
				break
			}
			mark[v] = epoch
		}
		if !predOK {
			continue
		}
		moves := make([]int, g.expl.p.N)
		for _, v := range comp {
			for _, e := range masked.Adj[v] {
				if mark[e.To] == epoch && e.Pid >= 0 {
					moves[e.Pid]++
				}
			}
		}
		all := true
		for _, pid := range mustMove {
			if moves[pid] == 0 {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		entry := comp[0]
		for _, v := range comp {
			if g.expl.depth.at(v) < g.expl.depth.at(entry) {
				entry = v
			}
		}
		return &StarvationReport{
			ComponentSize: len(comp),
			EntryLen:      int(g.expl.depth.at(entry)),
			Entry:         g.expl.trace(entry),
			MovesByPid:    moves,
			Component:     comp,
		}
	}
	return nil
}

// NoProgressReport describes a reachable cycle on which every listed
// process keeps taking steps yet no critical-section entry ever happens —
// a global livelock. For Bakery++ its absence (a nil report with mustMove =
// all processes) means the algorithm cannot spin forever without service
// under weak fairness: any cycle that starves one process still serves the
// others (the Section 6.3 cycle found by FindStarvation has cs-enter edges
// for the fast pair).
type NoProgressReport struct {
	// ComponentSize counts full states on an unreduced graph, product
	// states on a quotient graph.
	ComponentSize int
	// MovesByPid attributes component-internal moves to CONCRETE pids (on
	// a quotient graph, recovered through the edge permutations).
	MovesByPid []int
	Entry      Trace
	// Quotient/Cycle: as in StarvationReport — set on quotient graphs,
	// where the replayed concrete cycle (no cs-enter step, every mustMove
	// pid moving, orbit position revisited) is verified by execution.
	Quotient bool
	Cycle    []Step
}

// FindNoProgress searches for a reachable SCC with at least one edge, in
// which every process in mustMove takes a step but no edge carries the
// "cs-enter" tag. It returns nil when no such component exists. On a
// quotient graph the search runs on the permutation-tracked product
// exactly like FindStarvation, with found lassos replayed and re-verified.
func (g *Graph) FindNoProgress(mustMove []int) *NoProgressReport {
	if g.Quotient() {
		return g.findNoProgressQuotient(mustMove)
	}
	n := len(g.Adj)
	// Mask out cs-enter edges and SCC the remainder: a qualifying cycle
	// must avoid entries entirely.
	masked := &Graph{expl: g.expl, Adj: make([][]Edge, n)}
	for v := 0; v < n; v++ {
		for _, e := range g.Adj[v] {
			if g.tagOf(v, e) == "cs-enter" {
				continue
			}
			masked.Adj[v] = append(masked.Adj[v], e)
		}
	}
	// Epoch-marked membership; see FindStarvation.
	mark := make([]int32, n)
	epoch := int32(0)
	for _, comp := range masked.SCCs() {
		if len(comp) == 1 && !hasSelfLoop(masked, comp[0]) {
			continue
		}
		epoch++
		for _, v := range comp {
			mark[v] = epoch
		}
		moves := make([]int, g.expl.p.N)
		for _, v := range comp {
			for _, e := range masked.Adj[v] {
				if mark[e.To] == epoch && e.Pid >= 0 {
					moves[e.Pid]++
				}
			}
		}
		ok := true
		for _, pid := range mustMove {
			if moves[pid] == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		entry := comp[0]
		for _, v := range comp {
			if g.expl.depth.at(v) < g.expl.depth.at(entry) {
				entry = v
			}
		}
		return &NoProgressReport{
			ComponentSize: len(comp),
			MovesByPid:    moves,
			Entry:         g.expl.trace(entry),
		}
	}
	return nil
}

// tagOf recovers the branch tag of an edge by re-deriving it from the
// source state (edges do not store tags to keep the graph small).
func (g *Graph) tagOf(from int, e Edge) string {
	if e.LabelIdx < 0 {
		return ""
	}
	p := g.expl.p
	s := g.expl.stateAt(int32(from))
	// Under symmetry reduction the stored target is the orbit
	// representative, so successors must be compared through the store's
	// canonical keys; the target's key is hoisted out of the loop.
	var fpTo uint64
	var keyTo gcl.State
	if g.expl.symmetry {
		fpTo, keyTo = g.expl.store.Prepare(g.expl.stateAt(e.To))
	}
	toState := g.expl.stateAt(e.To)
	for _, sc := range p.Succs(s, int(e.Pid), g.expl.opts.Mode, nil) {
		if sc.LabelIdx != e.LabelIdx {
			continue
		}
		if !g.expl.symmetry {
			if sc.State.Equal(toState) {
				return sc.Tag
			}
			continue
		}
		if fp, key := g.expl.store.Prepare(sc.State); fp == fpTo && key.Equal(keyTo) {
			return sc.Tag
		}
	}
	return ""
}

func hasSelfLoop(g *Graph, v int32) bool {
	for _, e := range g.Adj[v] {
		if e.To == v {
			return true
		}
	}
	return false
}
