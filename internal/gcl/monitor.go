package gcl

import (
	"maps"
	"slices"
)

// WithMonitor composes an observer into a built program, SPIN's never-claim
// idea: it returns a built copy of p that declares one more shared scalar,
// cell, initially 0, after every shared variable of p — so cell is the last
// shared word of the state vector and every other word keeps its offset
// relative to its section. Every branch whose tag update accepts also
// assigns cell the returned expression, evaluated like every right-hand
// side against the pre-state; other branches leave it alone. A property
// over the observed tag sequence so becomes an invariant over cell. The
// copy keeps p's name, register capacity, ownership and symmetry
// declarations; cell is no pid-indexed variable, so permutations leave it
// in place. Panics if p is not built or already declares cell.
func (p *Prog) WithMonitor(cell string, update func(tag string) (Expr, bool)) *Prog {
	if !p.built {
		panic("gcl: WithMonitor before Build")
	}
	q := New(p.Name, p.N)
	q.M = p.M
	q.shared = slices.Clone(p.shared)
	q.locals = slices.Clone(p.locals)
	q.SharedVar(cell, 0)
	maps.Copy(q.owned, p.owned)
	for li, name := range p.labels {
		brs := slices.Clone(p.branches[li])
		for bi := range brs {
			if e, ok := update(brs[bi].Tag); ok {
				brs[bi].Eff = append(slices.Clip(brs[bi].Eff), Set(cell, e))
			}
		}
		q.Label(name, brs...)
	}
	q.sym = p.sym
	q.pidIndexed = maps.Clone(p.pidIndexed)
	q.pidLocals = maps.Clone(p.pidLocals)
	return q.MustBuild()
}
