package mc

// The one cycle search behind FindStarvation and FindNoProgress: Tarjan
// over a tracking product, a fairness filter, and a stitched lasso that is
// replayed and re-verified by execution.
//
// On an unreduced graph the product is the graph under the trivial
// symmetry group: node i is state i under the identity, and its edges are
// read straight from Adj (identityProduct). The rest of this comment is
// about the orbit product of a quotient graph.
//
// BuildGraph under symmetry stores one concrete representative per
// encountered orbit and annotates every edge with the permutation ρ
// relating the concrete successor to the stored representative of its
// target orbit (Edge.Perm). The liveness analyses run on a PRODUCT whose
// nodes are (orbit representative, tracking permutation) pairs: node
// (j, τ) stands for the concrete cursor-normalized state
// Permute(NormalizeCursors(State(j)), τ), called its VIEW.
//
// The crucial soundness decision is how product edges are produced. The
// tempting scheme — lift the quotient's stored edges through τ — is only
// correct for programs whose valid permutations are true automorphisms of
// the transition relation. The bakery family is merely QUASI-symmetric
// (the (number[j], j) < (number[i], i) tie-break consults concrete id
// order, and a scan cursor's value names the concrete slot examined
// next), and lifting measurably fabricates and drops transitions there.
// So the product is built from TRUE dynamics instead: each node's view is
// expanded with real gcl successor generation, making every product edge
// a genuine transition of the full system by construction. The quotient
// machinery still carries the analysis:
//
//   - node identity is two int32s; the concrete state is reconstructed on
//     demand by permuting the orbit representative's cached normal form —
//     no per-node state vectors or fingerprint store entries;
//   - the stored annotated edges serve as an exact FAST PATH for
//     identifying where a generated successor lands: guess the lifted
//     target (To, τ∘ρ), verify by direct state comparison, and only on a
//     miss pay a canonicalization (gcl.CanonicalizeWithPerm) plus a
//     lookup in the quotient's canonical store. On a truly equivariant
//     program the guess always hits; on the bakery family it hits for the
//     majority of edges;
//   - orbits the quotient exploration never stored are added to a
//     supplementary table, so the product is complete regardless. This is
//     not a corner case: quasi-symmetric dedup genuinely
//     under-approximates orbit reachability (a stored representative's
//     successors do not cover its orbit-mates' successors), and on
//     bakery++ N=3 M=2 the product reaches more orbits than the quotient
//     store holds — TestQuotientProductCoversNormalizedSpace logs the
//     split.
//
// Node count: the product covers exactly the cursor-normalized reachable
// states (normalization is behaviour-preserving by the PidLocal liveAt
// contract the visited store already relies on), except that states whose
// orbit representative has a non-trivial stabilizer can appear under
// several tracking permutations; such highly symmetric states are rare
// away from the initial configuration, and a concrete cycle through them
// lifts to a (possibly unrolled) product cycle either way. Every product
// cycle projects to a real execution, and every real cycle lifts into the
// product, so SCC-based verdicts transfer exactly — no quasi-symmetry
// caveat. Found lassos are additionally replayed from the initial state
// and re-verified against the property before being reported; the parity
// tests (liveness_parity_test.go) and experiment E16 pin full-vs-quotient
// verdict agreement across the specification matrix at N <= 4. See
// docs/model-checking.md, "Liveness under reduction".

import (
	"fmt"
	"sort"

	"bakerypp/internal/gcl"
)

// prodNode is one product node: an orbit-representative index (into the
// graph's states, or, past their count, into the supplementary table) and
// the index of the tracking permutation.
type prodNode struct {
	rep  int32
	perm int32
}

// pstep is one product edge on a path: the source product node and the
// edge's index within the source's adjacency segment.
type pstep struct {
	v  int32
	ei int32
}

// product is the tracking product of a graph. On a quotient graph it is
// built breadth-first from (state 0, identity) by expanding node views
// with true dynamics; on an unreduced graph it is the graph itself
// (identity). Edges are stored CSR-style.
type product struct {
	g *Graph
	p *gcl.Prog
	// identity marks the product of an unreduced graph: node i is state i,
	// and its view is the stored concrete state.
	identity bool
	nPerms   int32
	// nPrimary is the quotient graph's state count; node reps at or above
	// it index the supplementary extra tables.
	nPrimary int32
	nodes    []prodNode
	idx      map[uint64]int32
	// extra holds the normalized states of orbits absent from the quotient
	// store, extraPerm their canonical witnessing permutations, extraBuck
	// a canonical-key bucket index over them.
	extra     []gcl.State
	extraPerm []int32
	extraBuck map[uint64][]kv
	// norms lazily caches NormalizeCursors of each primary representative.
	norms []gcl.State
	// stabs lazily caches each representative's stabilizer (permutation
	// indices fixing its normal form; identity first). Tracking keys are
	// canonicalized to the least member of their stabilizer coset, so a
	// normalized state is interned exactly once however it is reached.
	stabs [][]int32
	// CSR edge arrays: target node, concrete moving pid, the successor's
	// ordinal within the view's AllSuccs enumeration (negative encodes a
	// crash transition), and whether the branch carried the cs-enter tag.
	offs    []int32
	targets []int32
	movers  []int8
	ords    []int16
	enters  []bool
	// BFS tree for entry paths: parent node and global CSR edge index.
	parent  []int32
	parentE []int32
	depth   []int32
	// fastHits/slowPaths instrument the edge-identification split.
	fastHits  int64
	slowPaths int64
	// composeTab caches permutation composition when the table is small
	// enough (N <= 6); larger programs compose through gcl per edge.
	composeTab []int32
	// scratch
	viewBuf gcl.State
	wantBuf gcl.State
	// bfs scratch for in-component path stitching.
	seen     []int32
	seenGen  int32
	bfsStep  []pstep
	bfsQueue []int32
}

func (pr *product) key(rep, perm int32) uint64 {
	return uint64(rep)*uint64(pr.nPerms) + uint64(perm)
}

// compose returns the index of perms[a]∘perms[b] (b applied first).
func (pr *product) compose(a, b int32) int32 {
	if b == 0 {
		return a // identity annotation: the overwhelmingly common case
	}
	if a == 0 {
		return b
	}
	if pr.composeTab != nil {
		c := &pr.composeTab[int(a)*int(pr.nPerms)+int(b)]
		if *c < 0 {
			*c = int32(pr.p.ComposePermIndex(int(a), int(b)))
		}
		return *c
	}
	return int32(pr.p.ComposePermIndex(int(a), int(b)))
}

// normOf returns the cursor-normalized form of a representative, cached
// for primary states, direct for supplementary ones (stored normalized).
func (pr *product) normOf(rep int32) gcl.State {
	if rep >= pr.nPrimary {
		return pr.extra[rep-pr.nPrimary]
	}
	if pr.norms[rep] == nil {
		pr.norms[rep] = pr.p.NormalizeCursors(pr.g.expl.stateAt(rep))
	}
	return pr.norms[rep]
}

// viewInto writes the concrete view of a product node — the orbit
// representative's normal form permuted into the node's tracking frame —
// into buf.
func (pr *product) viewInto(buf gcl.State, nd prodNode) {
	if pr.identity {
		// An unreduced graph: entries carry no symmetry tail, so decoding
		// needs no key scratch.
		e := pr.g.expl
		e.decodeEntry(buf, nil, e.slab.packed(uint32(nd.rep)))
		return
	}
	pr.p.PermuteInto(buf, pr.normOf(nd.rep), pr.p.PermAt(int(nd.perm)))
}

// stabOf returns the stabilizer of a representative's normal form.
// Computed on first use; the common all-columns-distinct case costs one
// early-exiting pass over the permutation table.
func (pr *product) stabOf(rep int32) []int32 {
	if pr.stabs == nil {
		pr.stabs = make([][]int32, 0)
	}
	for int32(len(pr.stabs)) <= rep {
		pr.stabs = append(pr.stabs, nil)
	}
	if pr.stabs[rep] == nil {
		x := pr.normOf(rep)
		stab := []int32{0}
		for pi := int32(1); pi < pr.nPerms; pi++ {
			if pr.p.PermFixes(x, pr.p.PermAt(int(pi))) {
				stab = append(stab, pi)
			}
		}
		pr.stabs[rep] = stab
	}
	return pr.stabs[rep]
}

// cosetCanon reduces a tracking permutation to the least index in its
// stabilizer coset: τ and τ∘σ produce the same view for σ in the
// stabilizer, so they must intern as one node.
func (pr *product) cosetCanon(rep, perm int32) int32 {
	stab := pr.stabOf(rep)
	if len(stab) == 1 {
		return perm
	}
	best := perm
	for _, s := range stab[1:] {
		if c := pr.compose(perm, s); c < best {
			best = c
		}
	}
	return best
}

// push interns a product node.
func (pr *product) push(rep, perm, parent, parentE int32) int32 {
	k := pr.key(rep, perm)
	if i, ok := pr.idx[k]; ok {
		return i
	}
	i := int32(len(pr.nodes))
	pr.idx[k] = i
	pr.nodes = append(pr.nodes, prodNode{rep: rep, perm: perm})
	pr.parent = append(pr.parent, parent)
	pr.parentE = append(pr.parentE, parentE)
	if parent < 0 {
		pr.depth = append(pr.depth, 0)
	} else {
		pr.depth = append(pr.depth, pr.depth[parent]+1)
	}
	return i
}

// locate identifies the product node a generated successor u of node nd
// lands on. u must already be cursor-normalized and owned by the caller
// (it is retained when it opens a fresh supplementary orbit). The fast
// path tries the stored quotient edges of nd's representative: an edge by
// the matching representative-frame pid and label predicts the landing as
// (Edge.To, τ∘Edge.Perm), confirmed by comparing u against that node's
// view — exact when it matches, silently skipped when quasi-symmetry made
// the stored edge inapplicable to this tracking frame. The slow path
// canonicalizes u and resolves its orbit through the quotient's store.
func (pr *product) locate(nd prodNode, succPid int, labelIdx int32, u gcl.State) (rep, perm int32) {
	p := pr.p
	if nd.rep < pr.nPrimary {
		repSlot := int8(p.InvPermAt(int(nd.perm))[succPid])
		for _, e := range pr.g.Adj[nd.rep] {
			if e.Pid != repSlot || e.LabelIdx != labelIdx {
				continue
			}
			tg := pr.compose(nd.perm, int32(e.Perm))
			p.PermuteInto(pr.wantBuf, pr.normOf(e.To), p.PermAt(int(tg)))
			// The guess must reproduce u AND be a scan-prefix-valid image:
			// an invalid permutation can also express u — as the image of a
			// DIFFERENT orbit's representative — and accepting it would
			// intern u under a second key. Validity pins the orbit to the
			// one u's canonicalization would pick, so both paths agree.
			if u.Equal(pr.wantBuf) && p.PermValid(pr.normOf(e.To), p.PermAt(int(tg))) {
				pr.fastHits++
				return e.To, pr.cosetCanon(e.To, tg)
			}
		}
	}
	pr.slowPaths++
	c, w := p.CanonicalizeWithPerm(u)
	wIdx := int32(p.PermIndexOf(w))
	if j, ok := pr.g.expl.indexOf(c); ok {
		// norm(u) = Permute(norm(states[j]), w⁻¹∘π_j).
		return j, pr.cosetCanon(j, pr.compose(int32(p.InvPermIndex(int(wIdx))), int32(pr.g.expl.witnessIndex(j))))
	}
	// Orbit unknown to the quotient store: intern it in the supplementary
	// table, keyed canonically.
	fp := c.Fingerprint()
	if k, ok := bucketLookup(pr.extraBuck[fp], c); ok {
		r := pr.nPrimary + k
		return r, pr.cosetCanon(r, pr.compose(int32(p.InvPermIndex(int(wIdx))), pr.extraPerm[k]))
	}
	k := int32(len(pr.extra))
	pr.extraBuck[fp] = bucketInsert(pr.extraBuck[fp], c, k)
	pr.extra = append(pr.extra, u)
	pr.extraPerm = append(pr.extraPerm, wIdx)
	return pr.nPrimary + k, 0
}

// productBoundFactor scales Options.MaxStates into the product's node
// bound. A product node is two int32s plus CSR edge words — roughly an
// order of magnitude cheaper than a stored state vector with its visited
// set entry — so the product affords a higher ceiling than the state
// exploration itself; the factor keeps the two bounds proportional. At
// the default MaxStates this admits products of 16M nodes, enough for the
// Bakery++ N=5 M=2 analysis (the normalized space is ≈4.7M nodes) whose
// full graph exhausts the plain bound.
const productBoundFactor = 4

// buildProduct returns the graph's tracking product, building and caching
// it on first use.
func (g *Graph) buildProduct() *product {
	if g.prod == nil {
		if g.Quotient() {
			g.prod = g.orbitProduct()
		} else {
			g.prod = g.identityProduct()
		}
		g.prod.seen = make([]int32, len(g.prod.nodes))
		g.prod.bfsStep = make([]pstep, len(g.prod.nodes))
	}
	return g.prod
}

// identityProduct is the product of an unreduced graph, read straight from
// Adj: no re-expansion, no node table, no locate. Edge k of a state is its
// k-th successor in generation order (program successors, then crashes),
// so a program edge's ordinal is k and crash edges count down from -1 in
// crasher order, as in orbitProduct. Each state's BFS parent is the first
// edge reaching it — the order the explorer numbered states in — so depths
// and entry paths are the explorer's. The cs-enter bit is the taken
// branch's tag.
func (g *Graph) identityProduct() *product {
	p := g.expl.p
	n := int32(len(g.Adj))
	m := g.Summary.Transitions
	pr := &product{
		g: g, p: p, identity: true,
		nPrimary: n,
		nodes:    make([]prodNode, n),
		offs:     make([]int32, 1, n+1),
		targets:  make([]int32, 0, m),
		movers:   make([]int8, 0, m),
		ords:     make([]int16, 0, m),
		enters:   make([]bool, 0, m),
		parent:   make([]int32, n),
		parentE:  make([]int32, n),
		depth:    make([]int32, n),
	}
	for i := range pr.parent {
		pr.parent[i] = -1
	}
	for v := int32(0); v < n; v++ {
		pr.nodes[v] = prodNode{rep: v}
		crash := int16(0)
		for k, e := range g.Adj[v] {
			ord := int16(k)
			if e.LabelIdx < 0 {
				crash--
				ord = crash
			}
			if e.To != 0 && pr.parent[e.To] < 0 {
				pr.parent[e.To], pr.parentE[e.To], pr.depth[e.To] = v, int32(len(pr.targets)), pr.depth[v]+1
			}
			pr.targets = append(pr.targets, e.To)
			pr.movers = append(pr.movers, e.Pid)
			pr.ords = append(pr.ords, ord)
			pr.enters = append(pr.enters, e.LabelIdx >= 0 && p.BranchTag(int(e.LabelIdx), int(e.Branch)) == "cs-enter")
		}
		pr.offs = append(pr.offs, int32(len(pr.targets)))
	}
	return pr
}

// orbitProduct builds the tracking product of a quotient graph. It covers
// exactly the cursor-normalized full state space; productBoundFactor ×
// MaxStates bounds its node count.
func (g *Graph) orbitProduct() *product {
	p := g.expl.p
	pr := &product{
		g: g, p: p,
		nPerms:    int32(p.NumPerms()),
		nPrimary:  int32(g.expl.numStates()),
		idx:       make(map[uint64]int32, 4*g.expl.numStates()),
		extraBuck: map[uint64][]kv{},
		norms:     make([]gcl.State, g.expl.numStates()),
		viewBuf:   make(gcl.State, p.StateLen()),
		wantBuf:   make(gcl.State, p.StateLen()),
	}
	if int(pr.nPerms) <= 720 {
		pr.composeTab = make([]int32, int(pr.nPerms)*int(pr.nPerms))
		for i := range pr.composeTab {
			pr.composeTab[i] = -1
		}
	}
	bound := productBoundFactor * g.expl.opts.MaxStates
	mode := g.expl.opts.Mode
	pr.push(0, 0, -1, -1)
	pr.offs = append(pr.offs, 0)
	for head := int32(0); head < int32(len(pr.nodes)); head++ {
		if len(pr.nodes) > bound {
			panic(fmt.Sprintf("mc: %s: quotient-product bound %d exceeded during orbit-level cycle analysis; raise Options.MaxStates or run the analysis on the full graph", p.Name, bound))
		}
		nd := pr.nodes[head]
		pr.viewInto(pr.viewBuf, nd)
		for i, sc := range p.AllSuccs(pr.viewBuf, mode) {
			u := sc.State // owned: apply clones
			p.NormalizeCursorsInPlace(u)
			rep, perm := pr.locate(nd, sc.Pid, sc.LabelIdx, u)
			t := pr.push(rep, perm, head, int32(len(pr.targets)))
			pr.targets = append(pr.targets, t)
			pr.movers = append(pr.movers, int8(sc.Pid))
			pr.ords = append(pr.ords, int16(i))
			pr.enters = append(pr.enters, sc.Tag(p) == "cs-enter")
		}
		for ci, pid := range g.expl.crashers {
			u := p.CrashSucc(pr.viewBuf, pid)
			p.NormalizeCursorsInPlace(u)
			rep, perm := pr.locate(nd, pid, crashLabelIdx, u)
			t := pr.push(rep, perm, head, int32(len(pr.targets)))
			pr.targets = append(pr.targets, t)
			pr.movers = append(pr.movers, int8(pid))
			pr.ords = append(pr.ords, int16(-1-ci))
			pr.enters = append(pr.enters, false)
		}
		pr.offs = append(pr.offs, int32(len(pr.targets)))
	}
	return pr
}

// degree returns the number of edges out of product node v.
func (pr *product) degree(v int32) int32 { return pr.offs[v+1] - pr.offs[v] }

// sccs runs iterative Tarjan over the product restricted to nodes passing
// nodeOK and edges passing edgeOK (both endpoints must pass nodeOK too),
// returning components in reverse topological order. Trivial single-node
// components without a self-loop are included; callers filter as needed.
func (pr *product) sccs(nodeOK func(int32) bool, edgeOK func(v, ei int32) bool) [][]int32 {
	n := int32(len(pr.nodes))
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
			if f.edge < pr.degree(f.v) {
				ei := f.edge
				f.edge++
				w := pr.targets[pr.offs[f.v]+ei]
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

// pathFromRoot reconstructs the product BFS path from the root to v.
func (pr *product) pathFromRoot(v int32) []pstep {
	var rev []pstep
	for i := v; pr.parent[i] >= 0; i = pr.parent[i] {
		par := pr.parent[i]
		rev = append(rev, pstep{v: par, ei: pr.parentE[i] - pr.offs[par]})
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// bfsInComp runs a BFS from `from` restricted to nodes with mark[v] ==
// epoch and edges passing edgeOK, stopping at the first dequeued node for
// which stop selects an edge (returning the path through and including
// that edge) or, with stopNode >= 0, at that node (returning the path to
// it). Deterministic: nodes dequeue in discovery order, edges scan in
// adjacency order.
func (pr *product) bfsInComp(from int32, mark []int32, epoch int32, edgeOK func(v, ei int32) bool,
	stop func(v, ei int32) bool, stopNode int32) ([]pstep, int32, bool) {
	pr.seenGen++
	gen := pr.seenGen
	pr.bfsQueue = pr.bfsQueue[:0]
	pr.bfsQueue = append(pr.bfsQueue, from)
	pr.seen[from] = gen
	pr.bfsStep[from] = pstep{v: -1}
	buildPath := func(v int32, last *pstep) []pstep {
		var rev []pstep
		if last != nil {
			rev = append(rev, *last)
		}
		for i := v; pr.bfsStep[i].v >= 0; i = pr.bfsStep[i].v {
			rev = append(rev, pr.bfsStep[i])
		}
		for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
			rev[l], rev[r] = rev[r], rev[l]
		}
		return rev
	}
	for qi := 0; qi < len(pr.bfsQueue); qi++ {
		v := pr.bfsQueue[qi]
		if v == stopNode {
			return buildPath(v, nil), v, true
		}
		for ei := int32(0); ei < pr.degree(v); ei++ {
			w := pr.targets[pr.offs[v]+ei]
			if mark[w] != epoch || !edgeOK(v, ei) {
				continue
			}
			if stop != nil && stop(v, ei) {
				return buildPath(v, &pstep{v: v, ei: ei}), w, true
			}
			if pr.seen[w] != gen {
				pr.seen[w] = gen
				pr.bfsStep[w] = pstep{v: v, ei: ei}
				pr.bfsQueue = append(pr.bfsQueue, w)
			}
		}
	}
	return nil, -1, false
}

// stitchCycle builds a product cycle through entry, inside the component
// marked with epoch, on which every pid in mustMove moves: repeatedly walk
// to the nearest not-yet-covered required mover's edge, then close back to
// entry. The component is strongly connected under the same edge filter,
// so every leg exists.
func (pr *product) stitchCycle(entry int32, mark []int32, epoch int32,
	edgeOK func(v, ei int32) bool, mustMove []int) ([]pstep, bool) {
	covered := make([]bool, pr.p.N)
	var cycle []pstep
	cur := entry
	noteLeg := func(leg []pstep) {
		for _, st := range leg {
			covered[pr.movers[pr.offs[st.v]+st.ei]] = true
		}
		cycle = append(cycle, leg...)
	}
	for _, pid := range mustMove {
		if pid >= 0 && pid < pr.p.N && covered[pid] {
			continue
		}
		leg, end, ok := pr.bfsInComp(cur, mark, epoch, edgeOK, func(v, ei int32) bool {
			return int(pr.movers[pr.offs[v]+ei]) == pid
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
		leg, end, ok := pr.bfsInComp(cur, mark, epoch, edgeOK, func(v, ei int32) bool {
			return true
		}, -1)
		if !ok {
			return nil, false
		}
		noteLeg(leg)
		cur = end
	}
	if cur != entry {
		leg, _, ok := pr.bfsInComp(cur, mark, epoch, edgeOK, nil, entry)
		if !ok {
			return nil, false
		}
		noteLeg(leg)
	}
	return cycle, true
}

// replaySteps walks product steps as a concrete execution from cur: each
// step's transition is re-derived with gcl successor generation (or
// CrashSucc for crash edges) on the actual concrete state, so every
// returned Step is a real transition of the full, unreduced system.
// Returns the steps, the taken branches' tags, the final state, and
// whether every step was realised with the recorded mover.
func (pr *product) replaySteps(cur gcl.State, steps []pstep) ([]Step, []string, gcl.State, bool) {
	p := pr.p
	mode := pr.g.expl.opts.Mode
	out := make([]Step, 0, len(steps))
	tags := make([]string, 0, len(steps))
	for _, st := range steps {
		ge := pr.offs[st.v] + st.ei
		mover := int(pr.movers[ge])
		ord := int(pr.ords[ge])
		var next gcl.State
		tag := ""
		label := ""
		if ord < 0 {
			next = p.CrashSucc(cur, mover)
			label = crashLabel
		} else {
			succs := p.AllSuccs(cur, mode)
			if ord >= len(succs) || succs[ord].Pid != mover {
				return nil, nil, nil, false
			}
			next = succs[ord].State
			tag = succs[ord].Tag(p)
			label = succs[ord].Label(p)
		}
		out = append(out, Step{Pid: mover, Label: label, State: next})
		tags = append(tags, tag)
		cur = next
	}
	return out, tags, cur, true
}

// uniqStates collects the distinct primary quotient state indices a
// product component touches, in ascending order.
func (pr *product) uniqStates(comp []int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, v := range comp {
		if s := pr.nodes[v].rep; s < pr.nPrimary && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
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

// findFairCycle is the shared engine behind the cycle analyses: SCC the
// filtered product, find a component in which every mustMove pid moves,
// stitch a lasso, replay it concretely, and hand the verified material to
// the caller for packaging. ok may be nil (all nodes pass). verify
// receives the concrete replayed cycle (post-states and taken branch tags)
// plus the cycle's start state and must confirm the mined property.
func (g *Graph) findFairCycle(pr *product, ok []bool, edgeOK func(v, ei int32) bool,
	mustMove []int, verify func(start gcl.State, cycle []Step, tags []string) bool,
) (entry Trace, cycle []Step, compSize int, moves []int, states []int32, entryLen int, found bool) {
	p := g.expl.p
	nodeOK := func(v int32) bool { return ok == nil || ok[v] }
	mark := make([]int32, len(pr.nodes))
	epoch := int32(0)
	for _, comp := range pr.sccs(nodeOK, edgeOK) {
		epoch++
		for _, v := range comp {
			mark[v] = epoch
		}
		if len(comp) == 1 {
			v := comp[0]
			self := false
			for ei := int32(0); ei < pr.degree(v); ei++ {
				if pr.targets[pr.offs[v]+ei] == v && edgeOK(v, ei) {
					self = true
					break
				}
			}
			if !self {
				continue
			}
		}
		mv := make([]int, p.N)
		for _, v := range comp {
			for ei := int32(0); ei < pr.degree(v); ei++ {
				if w := pr.targets[pr.offs[v]+ei]; mark[w] == epoch && edgeOK(v, ei) {
					mv[pr.movers[pr.offs[v]+ei]]++
				}
			}
		}
		all := true
		for _, pid := range mustMove {
			if pid < 0 || pid >= p.N || mv[pid] == 0 {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		ent := comp[0]
		for _, v := range comp {
			if pr.depth[v] < pr.depth[ent] {
				ent = v
			}
		}
		lasso, ok2 := pr.stitchCycle(ent, mark, epoch, edgeOK, mustMove)
		if !ok2 {
			continue
		}
		entrySteps, _, start, ok3 := pr.replaySteps(g.expl.stateAt(0), pr.pathFromRoot(ent))
		if !ok3 {
			continue
		}
		cycleSteps, tags, end, ok4 := pr.replaySteps(start, lasso)
		if !ok4 || !p.NormalizeCursors(end).Equal(p.NormalizeCursors(start)) {
			continue
		}
		if !coversMustMove(cycleSteps, mustMove, p.N) || !verify(start, cycleSteps, tags) {
			continue
		}
		return Trace{Prog: p, Init: g.expl.stateAt(0), Steps: entrySteps},
			cycleSteps, len(comp), mv, pr.uniqStates(comp), len(entrySteps), true
	}
	return Trace{}, nil, 0, nil, nil, 0, false
}
