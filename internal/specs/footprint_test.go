package specs

// Commutation oracle over the real specifications: for every registered
// algorithm at a small size, walk a bounded prefix of the reachable states
// and, for each pair of enabled successors of different processes that
// gcl.ActionsIndependent declares independent, execute both orders and
// assert they reach the same state. This pins the soundness direction of
// the footprint analysis on exactly the programs the model checker's
// partial-order reduction runs on. A second oracle checks the per-branch
// "writes no shared cell" verdict the scenario layer's wake skip relies
// on against execution.

import (
	"math/bits"
	"testing"

	"bakerypp/internal/gcl"
)

func TestSpecCommutationOracle(t *testing.T) {
	progs := []*gcl.Prog{
		Bakery(Config{N: 3, M: 3}),
		BakeryPP(Config{N: 3, M: 2}),
		BakeryPP(Config{N: 2, M: 2, Fine: true}),
		BakeryPPSafe(2, 2),
		ModBakery(3, 2),
		Szymanski(3),
		Peterson(3),
		BlackWhite(3),
	}
	const maxStates = 3000
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			checked := 0
			queue := []gcl.State{p.InitState()}
			seen := map[string]bool{p.Key(queue[0]): true}
			for head := 0; head < len(queue) && len(queue) < maxStates; head++ {
				s := queue[head]
				succs := p.AllSuccs(s, gcl.ModeUnbounded)
				for _, sc := range succs {
					if k := p.Key(sc.State); !seen[k] {
						seen[k] = true
						queue = append(queue, sc.State)
					}
				}
				for i := 0; i < len(succs); i++ {
					for k := i + 1; k < len(succs); k++ {
						a, b := succs[i], succs[k]
						if a.Pid == b.Pid {
							continue
						}
						la, lb := int(a.LabelIdx), int(b.LabelIdx)
						if !p.ActionsIndependent(a.Pid, la, a.Branch, b.Pid, lb, b.Branch) {
							continue
						}
						ab, okAB := rerun(p, a.State, b)
						ba, okBA := rerun(p, b.State, a)
						if !okAB || !okBA {
							t.Fatalf("independent pair disabled the partner: p%d:%s/%d, p%d:%s/%d in %s",
								a.Pid, a.Label(p), a.Branch, b.Pid, b.Label(p), b.Branch, p.Format(s))
						}
						if !ab.State.Equal(ba.State) {
							t.Fatalf("independent pair does not commute: p%d:%s/%d, p%d:%s/%d\nstate: %s\na;b: %s\nb;a: %s",
								a.Pid, a.Label(p), a.Branch, b.Pid, b.Label(p), b.Branch,
								p.Format(s), p.Format(ab.State), p.Format(ba.State))
						}
						if ab.Overflow != b.Overflow || ba.Overflow != a.Overflow {
							t.Fatalf("independent partner changed overflow accounting (p%d:%s, p%d:%s)",
								a.Pid, a.Label(p), b.Pid, b.Label(p))
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatalf("%s: oracle exercised no independent pairs", p.Name)
			}
			t.Logf("%s: %d independent pairs commuted over %d states", p.Name, checked, len(queue))
		})
	}
}

// TestBranchWritesSharedMatchesExecution: for every specification at
// N=2 and N=3, on a breadth-first prefix of the reachable states, every
// enabled branch that gcl.BranchWritesShared declares shared-write-free
// leaves the shared prefix of the state unchanged when applied.
func TestBranchWritesSharedMatchesExecution(t *testing.T) {
	const maxStates = 3000
	for _, n := range []int{2, 3} {
		for _, p := range append(allSpecs(n, 2), BakeryPPSafe(n, 2)) {
			var buf gcl.SuccBuf
			shared := p.SharedCells()
			next := make(gcl.State, p.StateLen())
			checked := 0
			queue := []gcl.State{p.InitState()}
			seen := map[string]bool{p.Key(queue[0]): true}
			for head := 0; head < len(queue); head++ {
				s := queue[head]
				for pid := 0; pid < p.N; pid++ {
					li := p.PC(s, pid)
					for mask := p.EnabledMask(s, pid, &buf); mask != 0; mask &= mask - 1 {
						bi := bits.TrailingZeros64(mask)
						p.ApplyInto(next, s, pid, bi, gcl.ModeUnbounded, &buf)
						if !p.BranchWritesShared(li, bi) {
							checked++
							if !next[:shared].Equal(s[:shared]) {
								t.Fatalf("%s N=%d: p%d:%s/%d declared shared-write-free but changed shared state\nfrom %s\nto   %s",
									p.Name, n, pid, p.LabelName(li), bi, p.Format(s), p.Format(next))
							}
						}
						if k := p.Key(next); !seen[k] && len(queue) < maxStates {
							seen[k] = true
							queue = append(queue, p.Clone(next))
						}
					}
				}
			}
			if checked == 0 {
				t.Errorf("%s N=%d: no shared-write-free branch was exercised", p.Name, n)
			}
		}
	}
}

func rerun(p *gcl.Prog, s gcl.State, succ gcl.Succ) (gcl.Succ, bool) {
	for _, sc := range p.Succs(s, succ.Pid, gcl.ModeUnbounded, nil) {
		if sc.LabelIdx == succ.LabelIdx && sc.Branch == succ.Branch {
			return sc, true
		}
	}
	return gcl.Succ{}, false
}
