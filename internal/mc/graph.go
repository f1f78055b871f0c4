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
	To  int32
	Pid int8
	// Branch is the index of the taken branch within the source label
	// (0 for crash edges); Prog.BranchTag resolves its tag. It fills the
	// padding after Pid, so an Edge stays 16 bytes; gcl.Build refuses
	// labels of more than 64 branches, well inside int8.
	Branch   int8
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

// State returns the state at a graph index: on a quotient graph, a fresh
// decode of the stored orbit representative.
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
// identities through (quotient.go). Edge k of a state is its k-th successor
// in generation order: every process's program successors in pid order,
// then the crash transitions.
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
	e.addInit(init)
	g.Adj = append(g.Adj, nil)
	if v := e.checkInvariants(init); v >= 0 {
		res.Violation = &Violation{Invariant: e.opts.Invariants[v].Name, Trace: e.trace(0)}
	}

	d := int32(0)
	for head := int32(0); int(head) < e.numStates(); head++ {
		if e.numStates() > e.opts.MaxStates {
			return nil, fmt.Errorf("mc: %s: state bound %d exceeded while building graph",
				p.Name, e.opts.MaxStates)
		}
		if int(d+1) < len(e.levels) && head == e.levels[d+1] {
			d++
		}
		res.Depth = int(d)
		x := e.expansionOf(head)
		lo, hi := e.commit(x, d)
		for i := lo; i < hi; i++ {
			res.Transitions++
			idx, fresh := e.addSucc(x, i, head)
			if fresh {
				g.Adj = append(g.Adj, nil)
				if res.Violation == nil {
					if v := e.checkInvariants(x.succs[i].State); v >= 0 {
						res.Violation = &Violation{Invariant: e.opts.Invariants[v].Name, Trace: e.trace(idx)}
					}
				}
			}
			sc := &x.succs[i]
			g.Adj[head] = append(g.Adj[head], Edge{To: idx, Pid: int8(sc.Pid), Branch: int8(sc.Branch),
				LabelIdx: sc.LabelIdx, Perm: e.edgePermIdx(x.witness(i), idx, fresh)})
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
// analyses below run on such graphs' orbit-tracking product, and on an
// unreduced graph's product under the trivial group — the graph itself.
func (g *Graph) Quotient() bool { return g.expl.trackPerms }

// Trace reconstructs the BFS path from the initial state to graph index i.
func (g *Graph) Trace(i int) Trace { return g.expl.trace(int32(i)) }

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
	// Entry is the path from the initial state into the component, a
	// concrete execution replayed from the product lasso and re-verified
	// step by step (quotient.go).
	Entry Trace
	// MovesByPid counts, for each process, the transitions it owns inside
	// the component. On a quotient graph pids are CONCRETE identities,
	// recovered through the edges' permutation annotations.
	MovesByPid []int
	// Component lists the graph indices of the component's states, so
	// callers can assert additional properties (e.g. that the starved
	// process is genuinely blocked somewhere on the cycle, ruling out
	// plain unfair-scheduler starvation), in ascending order. On a
	// quotient graph these are the distinct orbit representatives the
	// product component touches.
	Component []int32
	// Quotient reports the analysis ran orbit-aware on the quotient graph.
	Quotient bool
	// Cycle is the concrete execution closing the lasso: starting from
	// Entry's final state, every listed step is a real transition, the
	// predicate holds throughout, every mustMove pid moves, and the final
	// state revisits the starting state (on a quotient graph, its orbit
	// position) — verified by execution before the report is returned.
	Cycle []Step
}

// FindStarvation searches for a reachable strongly connected component with
// at least one edge, all of whose states satisfy pred, and inside which
// every process in mustMove takes at least one step. It returns nil if no
// such component exists. pred typically pins the starved process to a label
// (e.g. "pc of process 2 is l1") while mustMove lists the fast processes.
//
// The search runs on the graph's tracking product (quotient.go). On a
// quotient graph (BuildGraph under symmetry) pred still reads CONCRETE pid
// positions: it is evaluated on the orbit representative permuted back
// into the concrete frame of each path that reaches it. Predicates must
// not depend on dead scan-cursor values (normalized away in orbit keys);
// pc- and shared-value predicates are unaffected. A found lasso is
// replayed to a concrete execution and re-verified before being reported.
func (g *Graph) FindStarvation(pred func(p *gcl.Prog, s gcl.State) bool, mustMove []int) *StarvationReport {
	p := g.expl.p
	pr := g.buildProduct()
	ok := make([]bool, len(pr.nodes))
	view := make(gcl.State, p.StateLen())
	for i := range pr.nodes {
		pr.viewInto(view, pr.nodes[i])
		ok[i] = pred(p, view)
	}
	edgeOK := func(v, ei int32) bool { return ok[pr.targets[pr.offs[v]+ei]] }
	verify := func(start gcl.State, cycle []Step, _ []string) bool {
		if !pred(p, start) {
			return false
		}
		for _, st := range cycle {
			if !pred(p, st.State) {
				return false
			}
		}
		return true
	}
	entry, cycle, size, moves, states, entryLen, found :=
		g.findFairCycle(pr, ok, edgeOK, mustMove, verify)
	if !found {
		return nil
	}
	return &StarvationReport{
		ComponentSize: size,
		EntryLen:      entryLen,
		Entry:         entry,
		MovesByPid:    moves,
		Component:     states,
		Quotient:      g.Quotient(),
		Cycle:         cycle,
	}
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
	// Quotient/Cycle: as in StarvationReport; the replayed concrete cycle
	// (no cs-enter step, every mustMove pid moving, start revisited) is
	// verified by execution.
	Quotient bool
	Cycle    []Step
}

// FindNoProgress searches for a reachable SCC with at least one edge, in
// which every process in mustMove takes a step but no edge carries the
// "cs-enter" tag. It returns nil when no such component exists. The search
// runs on the tracking product exactly like FindStarvation, with found
// lassos replayed and re-verified.
func (g *Graph) FindNoProgress(mustMove []int) *NoProgressReport {
	pr := g.buildProduct()
	edgeOK := func(v, ei int32) bool { return !pr.enters[pr.offs[v]+ei] }
	verify := func(_ gcl.State, _ []Step, tags []string) bool {
		for _, tag := range tags {
			if tag == "cs-enter" {
				return false
			}
		}
		return true
	}
	entry, cycle, size, moves, _, _, found :=
		g.findFairCycle(pr, nil, edgeOK, mustMove, verify)
	if !found {
		return nil
	}
	return &NoProgressReport{
		ComponentSize: size,
		MovesByPid:    moves,
		Entry:         entry,
		Quotient:      g.Quotient(),
		Cycle:         cycle,
	}
}
