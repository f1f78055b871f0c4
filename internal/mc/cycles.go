package mc

// The one cycle search behind FindStarvation and FindNoProgress: Tarjan
// over the graph's edges, read in place, a fairness filter, and a stitched
// lasso that is replayed and re-verified by execution.
//
// The graph is the dead-cursor-reset graph (Plan.Reset): BuildGraph zeroes
// every successor's dead scan cursors, the dead-variable reset of SPIN
// (Holzmann, "The Engineering of a Model Checker: the GNU i-Protocol Case
// Study Revisited", SPIN 1999). A cursor is dead at a label when no path
// from it reads the cursor before writing it (the PidLocal liveAt
// declarations), so a state and its reset image have the same successors,
// pid for pid and branch for branch, up to the reset
// (TestCursorResetPreservesSuccessors pins this on every spec). The reset
// graph is therefore an exact bisimulation of the full one: every cycle of
// either projects onto a cycle of the other, and SCC verdicts transfer.
//
// A found lasso is replayed from the concrete initial state without the
// reset: each step re-derives its edge by ordinal with gcl successor
// generation (program edges come first, in generation order; a crash edge
// names its pid), so the reported Entry and Cycle are real executions of
// the full system. Their states carry the cursor values the reset drops,
// so the cycle closes on its start state up to dead cursors.
//
// BuildGraph never plans symmetry: the bakery family is only
// quasi-symmetric, so a sound orbit search must expand true dynamics, and
// such a search (an orbit-representative × tracking-permutation product)
// measured node for node the reset graph — 14,066 states at bakerypp N=3
// M=2, 414,788 at N=4, 12,943,834 at N=5 (docs/model-checking.md,
// "Liveness under reduction").

import (
	"slices"

	"bakerypp/internal/gcl"
)

// step is one graph edge on a path: the source state and the edge's index
// within the source's out-edges.
type step struct {
	v  int32
	ei int32
}

// degree returns the number of edges out of state v.
func (g *Graph) degree(v int32) int32 { return g.offs.at(v+1) - g.offs.at(v) }

// edge returns edge ei of state v.
func (g *Graph) edge(v, ei int32) Edge { return g.edges.at(g.offs.at(v) + ei) }

// sccs runs iterative Tarjan over the graph restricted to states passing
// nodeOK and edges passing edgeOK (both endpoints must pass nodeOK too),
// handing each component to visit in reverse topological order until visit
// returns true. Trivial single-state components without a self-loop are
// included; callers filter as needed. A component lists its states in the
// order Tarjan pops them and aliases the search's stack: it is valid only
// during its visit.
func (g *Graph) sccs(nodeOK func(int32) bool, edgeOK func(v, ei int32) bool, visit func(comp []int32) bool) {
	n := int32(g.NumStates())
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack   []int32
		counter int32
	)
	type frame struct {
		v    int32
		edge int32
	}
	var call []frame
	for root := int32(0); root < n; root++ {
		if index[root] != -1 || !nodeOK(root) {
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
			if f.edge < g.degree(f.v) {
				ei := f.edge
				f.edge++
				w := g.edge(f.v, ei).To
				if !nodeOK(w) || !edgeOK(f.v, ei) {
					continue
				}
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
				k := len(stack) - 1
				for stack[k] != v {
					k--
				}
				comp := stack[k:]
				for _, w := range comp {
					onStack[w] = false
				}
				slices.Reverse(comp)
				if visit(comp) {
					return
				}
				stack = stack[:k]
			}
		}
	}
}

// cycleSearch is one cycle search's edge filter and the scratch of the
// in-component BFS that stitches its lassos, allocated at the first
// component that passes the fairness filter.
type cycleSearch struct {
	g        *Graph
	edgeOK   func(v, ei int32) bool
	mark     []int32 // component epoch per state
	epoch    int32
	seen     []int32
	seenGen  int32
	bfsStep  []step
	bfsQueue []int32
}

// bfsInComp runs a BFS from `from` restricted to the current component and
// edges passing edgeOK, stopping at the first dequeued state for which stop
// selects an edge (returning the path through and including that edge) or,
// with stopNode >= 0, at that state (returning the path to it).
// Deterministic: states dequeue in discovery order, edges scan in
// generation order.
func (cs *cycleSearch) bfsInComp(from int32, stop func(v, ei int32) bool, stopNode int32) ([]step, int32, bool) {
	g := cs.g
	if cs.seen == nil {
		cs.seen = make([]int32, g.NumStates())
		cs.bfsStep = make([]step, g.NumStates())
	}
	cs.seenGen++
	gen := cs.seenGen
	cs.bfsQueue = append(cs.bfsQueue[:0], from)
	cs.seen[from] = gen
	cs.bfsStep[from] = step{v: -1}
	buildPath := func(v int32, last *step) []step {
		var rev []step
		if last != nil {
			rev = append(rev, *last)
		}
		for i := v; cs.bfsStep[i].v >= 0; i = cs.bfsStep[i].v {
			rev = append(rev, cs.bfsStep[i])
		}
		slices.Reverse(rev)
		return rev
	}
	for qi := 0; qi < len(cs.bfsQueue); qi++ {
		v := cs.bfsQueue[qi]
		if v == stopNode {
			return buildPath(v, nil), v, true
		}
		for ei := int32(0); ei < g.degree(v); ei++ {
			w := g.edge(v, ei).To
			if cs.mark[w] != cs.epoch || !cs.edgeOK(v, ei) {
				continue
			}
			if stop != nil && stop(v, ei) {
				return buildPath(v, &step{v: v, ei: ei}), w, true
			}
			if cs.seen[w] != gen {
				cs.seen[w] = gen
				cs.bfsStep[w] = step{v: v, ei: ei}
				cs.bfsQueue = append(cs.bfsQueue, w)
			}
		}
	}
	return nil, -1, false
}

// stitchCycle builds a cycle through entry, inside the current component,
// on which every pid in mustMove moves: repeatedly walk to the nearest
// not-yet-covered required mover's edge, then close back to entry. The
// component is strongly connected under the same edge filter, so every leg
// exists.
func (cs *cycleSearch) stitchCycle(entry int32, mustMove []int) ([]step, bool) {
	g := cs.g
	n := g.expl.p.N
	covered := make([]bool, n)
	var cycle []step
	cur := entry
	noteLeg := func(leg []step) {
		for _, st := range leg {
			covered[g.edge(st.v, st.ei).Pid] = true
		}
		cycle = append(cycle, leg...)
	}
	for _, pid := range mustMove {
		if pid >= 0 && pid < n && covered[pid] {
			continue
		}
		leg, end, ok := cs.bfsInComp(cur, func(v, ei int32) bool {
			return int(g.edge(v, ei).Pid) == pid
		}, -1)
		if !ok {
			return nil, false
		}
		noteLeg(leg)
		cur = end
	}
	if cur == entry && len(cycle) == 0 {
		// Nothing forced a move yet (empty mustMove): take any edge so the
		// cycle is non-empty.
		leg, end, ok := cs.bfsInComp(cur, func(v, ei int32) bool { return true }, -1)
		if !ok {
			return nil, false
		}
		noteLeg(leg)
		cur = end
	}
	if cur != entry {
		leg, _, ok := cs.bfsInComp(cur, nil, entry)
		if !ok {
			return nil, false
		}
		noteLeg(leg)
	}
	return cycle, true
}

// pathFromRoot is the BFS tree path from the initial state to v: each
// state's parent and the first of the parent's edges reaching it, the
// successor the merge numbered it at.
func (g *Graph) pathFromRoot(v int32) []step {
	var rev []step
	for i := v; g.expl.parent.at(i) >= 0; i = g.expl.parent.at(i) {
		par, ei := g.expl.parent.at(i), int32(0)
		for g.edge(par, ei).To != i {
			ei++
		}
		rev = append(rev, step{v: par, ei: ei})
	}
	slices.Reverse(rev)
	return rev
}

// replaySteps walks graph steps as a concrete execution from cur: each
// step's transition is re-derived with gcl successor generation (or
// CrashSucc for crash edges) on the actual concrete state, so every
// returned Step is a real transition of the full, unreset system. A
// program edge is the successor at its ordinal, the edge's index among its
// source's out-edges, and must match the edge's pid, label and branch.
// Returns the steps, the taken branches' tags, the final state, and
// whether every step was realised.
func (g *Graph) replaySteps(cur gcl.State, steps []step) ([]Step, []string, gcl.State, bool) {
	p := g.expl.p
	out := make([]Step, 0, len(steps))
	tags := make([]string, 0, len(steps))
	for _, st := range steps {
		e := g.edge(st.v, st.ei)
		var next gcl.State
		tag, label := "", crashLabel
		if e.LabelIdx < 0 {
			next = p.CrashSucc(cur, int(e.Pid))
		} else {
			succs := p.AllSuccs(cur, g.expl.opts.Mode)
			if int(st.ei) >= len(succs) {
				return nil, nil, nil, false
			}
			sc := &succs[st.ei]
			if sc.Pid != int(e.Pid) || sc.LabelIdx != e.LabelIdx || sc.Branch != int(e.Branch) {
				return nil, nil, nil, false
			}
			next, tag, label = sc.State, sc.Tag(p), sc.Label(p)
		}
		out = append(out, Step{Pid: int(e.Pid), Label: label, State: next})
		tags = append(tags, tag)
		cur = next
	}
	return out, tags, cur, true
}

// coversMustMove checks the replayed cycle's actual movers against the
// requirement.
func coversMustMove(steps []Step, mustMove []int, n int) bool {
	moved := make([]bool, n)
	for _, st := range steps {
		if st.Pid >= 0 && st.Pid < n {
			moved[st.Pid] = true
		}
	}
	for _, pid := range mustMove {
		if pid < 0 || pid >= n || !moved[pid] {
			return false
		}
	}
	return true
}

// lasso is a verified fair cycle: the replayed entry path and cycle, the
// per-pid moves inside the component, and its states in ascending order.
type lasso struct {
	entry Trace
	cycle []Step
	moves []int
	comp  []int32
}

// findFairCycle is the shared engine behind the cycle analyses: SCC the
// filtered graph, find a component in which every mustMove pid moves,
// stitch a lasso, replay it concretely, and hand the verified material to
// the caller for packaging; nil when no component qualifies. ok may be nil
// (all states pass). verify receives the concrete replayed cycle
// (post-states and taken branch tags) plus the cycle's start state and
// must confirm the mined property.
func (g *Graph) findFairCycle(ok []bool, edgeOK func(v, ei int32) bool,
	mustMove []int, verify func(start gcl.State, cycle []Step, tags []string) bool) *lasso {
	p := g.expl.p
	nodeOK := func(v int32) bool { return ok == nil || ok[v] }
	cs := &cycleSearch{g: g, edgeOK: edgeOK, mark: make([]int32, g.NumStates())}
	var found *lasso
	g.sccs(nodeOK, edgeOK, func(comp []int32) bool {
		cs.epoch++
		for _, v := range comp {
			cs.mark[v] = cs.epoch
		}
		if len(comp) == 1 {
			v := comp[0]
			self := false
			for ei := int32(0); ei < g.degree(v); ei++ {
				if g.edge(v, ei).To == v && edgeOK(v, ei) {
					self = true
					break
				}
			}
			if !self {
				return false
			}
		}
		mv := make([]int, p.N)
		for _, v := range comp {
			for ei := int32(0); ei < g.degree(v); ei++ {
				if e := g.edge(v, ei); cs.mark[e.To] == cs.epoch && edgeOK(v, ei) {
					mv[e.Pid]++
				}
			}
		}
		for _, pid := range mustMove {
			if pid < 0 || pid >= p.N || mv[pid] == 0 {
				return false
			}
		}
		ent := comp[0]
		for _, v := range comp {
			if g.expl.depthOf(v) < g.expl.depthOf(ent) {
				ent = v
			}
		}
		loop, ok2 := cs.stitchCycle(ent, mustMove)
		if !ok2 {
			return false
		}
		init := p.InitState()
		entrySteps, _, start, ok3 := g.replaySteps(init, g.pathFromRoot(ent))
		if !ok3 {
			return false
		}
		cycleSteps, tags, end, ok4 := g.replaySteps(start, loop)
		if !ok4 || !p.NormalizeCursors(end).Equal(p.NormalizeCursors(start)) {
			return false
		}
		if !coversMustMove(cycleSteps, mustMove, p.N) || !verify(start, cycleSteps, tags) {
			return false
		}
		found = &lasso{
			entry: Trace{Prog: p, Init: init, Steps: entrySteps},
			cycle: cycleSteps,
			moves: mv,
			comp:  slices.Clone(comp),
		}
		slices.Sort(found.comp)
		return true
	})
	return found
}
