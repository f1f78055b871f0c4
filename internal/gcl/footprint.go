package gcl

// Static per-action footprints and the independence (commutation) relation
// over process actions. Build's compile walk over each branch (expr.go,
// step.go) records the shared cells every expression may read, deriving a
// conservative read set (guard + effect right-hand sides + computed
// indices) and write set (effect targets) over the shared variables. Two
// actions of *different* processes are independent when neither's write
// set can touch the other's read or write set: independent actions commute
// as state transformers and cannot enable or disable one another, which is
// exactly the relation ample-set partial-order reduction (internal/mc)
// needs. Per-process state (pc and locals) never enters the footprints —
// the language has no cross-process local access, so blocks of distinct
// pids are disjoint by construction.
//
// The abstraction is deliberately coarse: an index that is not a constant
// or Self() widens to "any cell" (the bakery trial loop's number[j] read,
// the MaxSh scan). Coarseness is always in the safe direction — a reported
// conflict may be spurious, reported independence is real (the oracle test
// in footprint_test.go executes both orders of independent pairs and
// asserts identical results).

// Cells abstracts which cells of one shared variable an action may touch,
// as a function of the executing process id: the process's own cell
// (Self), fixed indices (Idx), or any cell at all (All, the widening for
// computed indices).
type Cells struct {
	Self bool
	All  bool
	Idx  []int // distinct constant indices
}

// clone returns an independent copy.
func (c *Cells) clone() *Cells {
	if c == nil {
		return nil
	}
	out := &Cells{Self: c.Self, All: c.All}
	out.Idx = append(out.Idx, c.Idx...)
	return out
}

// mergeInto widens dst to also cover c.
func (c *Cells) mergeInto(dst *Cells) {
	if c == nil {
		return
	}
	dst.Self = dst.Self || c.Self
	dst.All = dst.All || c.All
	for _, k := range c.Idx {
		dst.addIdx(k)
	}
}

func (c *Cells) addIdx(k int) {
	for _, have := range c.Idx {
		if have == k {
			return
		}
	}
	c.Idx = append(c.Idx, k)
}

// overlaps reports whether the cells touched when executed by pid pa can
// intersect b's cells when executed by pid pb. All is conservative: any
// non-nil opposite set overlaps it.
func (c *Cells) overlaps(pa int, b *Cells, pb int) bool {
	if c == nil || b == nil {
		return false
	}
	if c.All || b.All {
		return true
	}
	on := func(s *Cells, pid, k int) bool {
		if s.Self && pid == k {
			return true
		}
		for _, i := range s.Idx {
			if i == k {
				return true
			}
		}
		return false
	}
	if c.Self && on(b, pb, pa) {
		return true
	}
	for _, k := range c.Idx {
		if on(b, pb, k) {
			return true
		}
	}
	return false
}

// cellMap maps shared variable names to the cells touched.
type cellMap map[string]*Cells

// add widens m to also cover cells of name, returning the (possibly newly
// allocated) map. The Cells value is cloned, never aliased.
func (m cellMap) add(name string, c *Cells) cellMap {
	if c == nil {
		return m
	}
	if m == nil {
		m = cellMap{}
	}
	if have, ok := m[name]; ok {
		c.mergeInto(have)
	} else {
		m[name] = c.clone()
	}
	return m
}

// conflictsWith reports a possible common cell between the two maps for
// the given executing pids.
func (m cellMap) conflictsWith(pa int, o cellMap, pb int) bool {
	for name, c := range m {
		if c.overlaps(pa, o[name], pb) {
			return true
		}
	}
	return false
}

// indexCells abstracts the expression's value when used as an array index:
// a constant selects its cell, Self() the executing process's cell, and
// anything else could be any cell.
func (e Expr) indexCells() *Cells {
	switch {
	case e.is(opConst):
		return &Cells{Idx: []int{int(e.n.k)}}
	case e.is(opSelf):
		return &Cells{Self: true}
	default:
		return &Cells{All: true}
	}
}

// branchFoot is the resolved footprint of one branch: the shared cells its
// guard and effects may read, the shared cells its effects may write,
// whether it touches shared state at all, and whether its guard alone
// reads shared state (the enabledness of such a branch can change under
// other processes' actions, which ample-set selection must respect).
type branchFoot struct {
	reads, writes cellMap
	localOnly     bool
	guardShared   bool
}

// BranchLocalOnly reports whether branch bi of label li neither reads nor
// writes any shared variable: its guard consults only the executing
// process's locals and its effects update only them (and the pc). Such an
// action is independent of every action of every other process. Must be
// called after Build.
func (p *Prog) BranchLocalOnly(li, bi int) bool {
	return p.foot[li][bi].localOnly
}

// BranchGuardReadsShared reports whether the guard of branch bi of label
// li reads any shared variable. While a process sits at the label, the
// enabledness of such a branch can flip under other processes' writes; a
// branch whose guard reads only the process's own locals stays enabled or
// disabled until the process itself moves. Must be called after Build.
func (p *Prog) BranchGuardReadsShared(li, bi int) bool {
	return p.foot[li][bi].guardShared
}

// BranchWritesShared reports whether branch bi of label li may write any
// shared variable. A branch that cannot changes only the executing
// process's pc and locals, so it cannot flip another process's guard:
// guards read shared cells and the evaluating process's own locals only.
// Must be called after Build.
func (p *Prog) BranchWritesShared(li, bi int) bool {
	return len(p.foot[li][bi].writes) > 0
}

// BranchTag returns the statistics tag of branch bi of label li ("" when
// the branch is untagged).
func (p *Prog) BranchTag(li, bi int) string { return p.branches[li][bi].Tag }

// BranchNext returns the label index branch bi of label li jumps to.
func (p *Prog) BranchNext(li, bi int) int {
	return p.labelIdx[p.branches[li][bi].Next]
}

// NumBranchesAt returns how many branches label li declares.
func (p *Prog) NumBranchesAt(li int) int { return len(p.branches[li]) }

// BranchReads returns the abstract cells of shared variable name that
// branch bi of label li may read (guard, effect right-hand sides, computed
// indices), or nil when it cannot read the variable. The result is a copy.
func (p *Prog) BranchReads(li, bi int, name string) *Cells {
	return p.foot[li][bi].reads[name].clone()
}

// BranchWrites returns the abstract cells of shared variable name that
// branch bi of label li may write, or nil. The result is a copy.
func (p *Prog) BranchWrites(li, bi int, name string) *Cells {
	return p.foot[li][bi].writes[name].clone()
}

// ActionsIndependent reports whether the actions "pidA takes branch ba of
// label la" and "pidB takes branch bb of label lb" are independent: for
// pidA != pidB, neither action's shared writes can touch a cell the other
// reads or writes, so executed from any state where both are enabled they
// commute to the same state (with the same overflow accounting) and
// neither enables or disables the other. Actions of one and the same
// process are never independent (they serialise on that process's pc).
// The relation is conservative: false may mean "unknown". Must be called
// after Build.
func (p *Prog) ActionsIndependent(pidA, la, ba, pidB, lb, bb int) bool {
	if pidA == pidB {
		return false
	}
	fa, fb := &p.foot[la][ba], &p.foot[lb][bb]
	if fa.writes.conflictsWith(pidA, fb.reads, pidB) ||
		fa.writes.conflictsWith(pidA, fb.writes, pidB) ||
		fb.writes.conflictsWith(pidB, fa.reads, pidA) {
		return false
	}
	return true
}
