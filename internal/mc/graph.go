package mc

import (
	"fmt"
	"math"
	"time"

	"bakerypp/internal/gcl"
)

// Edge is one transition of the reachability graph. Pid is the moving
// process. LabelIdx is the source label's index in the program's label
// table (crashLabelIdx for crash pseudo-transitions); storing the index
// instead of the string keeps edges pointer-free — the GC never scans the
// edge pages — and makes edge comparisons integer compares. Render with
// Graph.EdgeLabel. An Edge is 12 bytes.
type Edge struct {
	To  int32
	Pid int8
	// Branch is the index of the taken branch within the source label
	// (0 for crash edges); Prog.BranchTag resolves its tag. It fills the
	// padding after Pid; gcl.Build refuses labels of more than 64
	// branches, well inside int8.
	Branch   int8
	LabelIdx int32
}

// Graph is the dead-cursor-reset reachability graph of a program, built by
// BuildGraph. States are indexed densely in BFS discovery order; index 0 is
// the initial state.
type Graph struct {
	// Summary carries the same statistics a Check would produce (states,
	// transitions, first invariant violation if any).
	Summary *Result
	expl    *explorer
	// edges holds every state's out-edges in generation order, state i's
	// at edges[offs[i]:offs[i+1]] (compressed sparse rows), in pages that
	// are never copied as the graph grows; the cycle analyses read them in
	// place.
	edges column[Edge]
	offs  column[int32]
}

// graphMaxStates is BuildGraph's state bound when Options.MaxStates is 0
// and the store does not spill (a spilling store keeps its own, larger
// default): four times Check's, so the reset Bakery++ N=5 M=2 graph
// (12.9M states) completes with default options.
const graphMaxStates = 4 * DefaultMaxStates

// NumStates returns the number of reachable states.
func (g *Graph) NumStates() int { return g.expl.numStates() }

// EdgeLabel renders an edge's action label ("CRASH" for crash edges).
func (g *Graph) EdgeLabel(e Edge) string { return g.expl.labelName(e.LabelIdx) }

// State returns the state at a graph index, its dead scan cursors zeroed.
func (g *Graph) State(i int) gcl.State { return g.expl.stateAt(int32(i)) }

// BuildGraph explores the complete reachable state space of p and returns
// its transition graph. Unlike Check it does not stop at invariant
// violations (Summary.Violation still records the first one found); it
// fails only if the state bound is exceeded, since an incomplete graph
// would make cycle analysis meaningless. Options.Workers sets how many
// goroutines expand states; state numbering and edge order do not depend
// on it. The reduction plan comes from the pipeline's GraphAnalysis
// declaration: every successor's dead scan cursors are zeroed (Plan.Reset),
// an exact bisimulation; neither POR (the graph analyses — SCCs,
// starvation and no-progress cycles — quantify over every interleaving,
// which a partial-order-reduced graph by design omits) nor symmetry
// applies. Edge k of a state is its k-th successor in generation order:
// every process's program successors in pid order, then the crash
// transitions.
func BuildGraph(p *gcl.Prog, opts Options) (*Graph, error) {
	plan, err := planFor(p, opts, GraphAnalysis{Invariants: opts.Invariants})
	if err != nil {
		return nil, err
	}
	if opts.MaxStates == 0 && !plan.Store.Spill {
		opts.MaxStates = graphMaxStates
	}
	start := time.Now()
	e := newExplorer(p, opts, plan)
	defer e.join()
	res := &Result{Prog: p}
	g := &Graph{Summary: res, expl: e}

	init := p.InitState()
	if e.reset {
		p.NormalizeCursorsInPlace(init)
	}
	e.addInit(init)
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
		if g.edges.len() > math.MaxInt32-(hi-lo) {
			return nil, fmt.Errorf("mc: %s: more than %d transitions while building graph", p.Name, math.MaxInt32)
		}
		g.offs.push(int32(g.edges.len()))
		for i := lo; i < hi; i++ {
			res.Transitions++
			idx, fresh := e.addSucc(x, i, head)
			if fresh && res.Violation == nil {
				if v := e.checkInvariants(x.succs[i].State); v >= 0 {
					res.Violation = &Violation{Invariant: e.opts.Invariants[v].Name, Trace: e.trace(idx)}
				}
			}
			sc := &x.succs[i]
			g.edges.push(Edge{To: idx, Pid: int8(sc.Pid), Branch: int8(sc.Branch), LabelIdx: sc.LabelIdx})
		}
	}
	g.offs.push(int32(g.edges.len()))
	res.States = e.numStates()
	res.Store = e.storeReport()
	res.Complete = true
	res.Elapsed = time.Since(start)
	return g, nil
}

// Trace reconstructs the BFS path from the initial state to graph index i.
func (g *Graph) Trace(i int) Trace { return g.expl.trace(int32(i)) }

// StarvationReport describes a reachable cycle on which a predicate holds
// forever while a given set of processes keeps taking steps — the shape of
// the paper's Section 6.3 scenario ("the two fast processes keep competing
// ... and they reach M again" while the slow process never leaves L1).
type StarvationReport struct {
	// ComponentSize is the number of states in the witnessing SCC.
	ComponentSize int
	// EntryLen is the number of steps from the initial state to the
	// component.
	EntryLen int
	// Entry is the path from the initial state into the component, a
	// concrete execution replayed from the graph's BFS tree and re-verified
	// step by step (cycles.go).
	Entry Trace
	// MovesByPid counts, for each process, the transitions it owns inside
	// the component.
	MovesByPid []int
	// Component lists the graph indices of the component's states, so
	// callers can assert additional properties (e.g. that the starved
	// process is genuinely blocked somewhere on the cycle, ruling out
	// plain unfair-scheduler starvation), in ascending order.
	Component []int32
	// Cycle is the concrete execution closing the lasso: starting from
	// Entry's final state, every listed step is a real transition, the
	// predicate holds throughout, every mustMove pid moves, and the final
	// state equals the starting state up to dead scan cursors — verified by
	// execution before the report is returned.
	Cycle []Step
}

// FindStarvation searches for a reachable strongly connected component with
// at least one edge, all of whose states satisfy pred, and inside which
// every process in mustMove takes at least one step. It returns nil if no
// such component exists. pred typically pins the starved process to a label
// (e.g. "pc of process 2 is l1") while mustMove lists the fast processes.
// pred is evaluated on the graph's states, whose dead scan cursors are
// zeroed, so it must not read dead cursor values; pc- and shared-value
// predicates are unaffected. A found lasso is replayed to a concrete
// execution and re-verified before being reported.
func (g *Graph) FindStarvation(pred func(p *gcl.Prog, s gcl.State) bool, mustMove []int) *StarvationReport {
	p := g.expl.p
	ok := make([]bool, g.NumStates())
	view := make(gcl.State, p.StateLen())
	for i := range ok {
		ok[i] = pred(p, g.expl.decodeEntry(view, nil, g.expl.slab.packed(uint32(i))))
	}
	edgeOK := func(v, ei int32) bool { return ok[g.edge(v, ei).To] }
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
	l := g.findFairCycle(ok, edgeOK, mustMove, verify)
	if l == nil {
		return nil
	}
	return &StarvationReport{
		ComponentSize: len(l.comp),
		EntryLen:      len(l.entry.Steps),
		Entry:         l.entry,
		MovesByPid:    l.moves,
		Component:     l.comp,
		Cycle:         l.cycle,
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
	ComponentSize int
	MovesByPid    []int
	Entry         Trace
	// Cycle: as in StarvationReport; the replayed concrete cycle (no
	// cs-enter step, every mustMove pid moving, start revisited up to dead
	// scan cursors) is verified by execution.
	Cycle []Step
}

// FindNoProgress searches for a reachable SCC with at least one edge, in
// which every process in mustMove takes a step but no edge carries the
// "cs-enter" tag. It returns nil when no such component exists. Found
// lassos are replayed and re-verified exactly like FindStarvation's.
func (g *Graph) FindNoProgress(mustMove []int) *NoProgressReport {
	p := g.expl.p
	enters := make([][]bool, len(p.Labels()))
	for li := range enters {
		enters[li] = make([]bool, p.NumBranchesAt(li))
		for bi := range enters[li] {
			enters[li][bi] = p.BranchTag(li, bi) == "cs-enter"
		}
	}
	edgeOK := func(v, ei int32) bool {
		e := g.edge(v, ei)
		return e.LabelIdx < 0 || !enters[e.LabelIdx][e.Branch]
	}
	verify := func(_ gcl.State, _ []Step, tags []string) bool {
		for _, tag := range tags {
			if tag == "cs-enter" {
				return false
			}
		}
		return true
	}
	l := g.findFairCycle(nil, edgeOK, mustMove, verify)
	if l == nil {
		return nil
	}
	return &NoProgressReport{
		ComponentSize: len(l.comp),
		MovesByPid:    l.moves,
		Entry:         l.entry,
		Cycle:         l.cycle,
	}
}
