package gcl

// Tests for the static footprint layer and the independence relation: the
// classification of branch read/write sets on the bakery-family shapes,
// the local-only predicate partial-order reduction selects ample processes
// by, and a commutation oracle that executes both orders of every
// statically-independent enabled pair over thousands of reachable states
// and asserts the outcomes are identical.

import "testing"

// bakeryLike builds the classic bakery control skeleton used across the
// footprint tests (a local copy so the tests do not depend on
// internal/specs, which would be an import cycle).
func bakeryLike(n, m int) *Prog {
	p := New("bakery-like", n)
	p.SetM(int64(m))
	p.SharedArray("choosing", n, 0)
	p.SharedArray("number", n, 0)
	p.Own("choosing")
	p.Own("number")
	p.LocalVar("j", 0)

	j := L("j")
	numJ := ShI("number", j)
	numI := ShSelf("number")
	p.Label("ncs", Goto("ch1").WithTag("try"))
	p.Label("ch1", Goto("ch2", SetSelf("choosing", C(1))))
	p.Label("ch2", Goto("ch3", SetSelf("number", Add(C(1), MaxSh("number")))))
	p.Label("ch3", Goto("t1", SetSelf("choosing", C(0)), SetL("j", C(0))))
	p.Label("t1",
		Br(Ge(j, C(n)), "cs").WithTag("cs-enter"),
		Br(Lt(j, C(n)), "t2"),
	)
	p.Label("t2", Br(Eq(ShI("choosing", j), C(0)), "t3"))
	p.Label("t3", Br(Or(
		Eq(numJ, C(0)),
		Not(LexLt(numJ, j, numI, Self())),
	), "t4"))
	p.Label("t4", Goto("t1", SetL("j", Add(j, C(1)))))
	p.Label("cs", Goto("ncs", SetSelf("number", C(0))).WithTag("cs-exit"))
	return p.MustBuild()
}

func TestBranchFootprintClassification(t *testing.T) {
	p := bakeryLike(3, 4)
	li := p.LabelIndex

	// ch2 writes the process's own number cell and reads the whole array.
	if w := p.BranchWrites(li("ch2"), 0, "number"); w == nil || !w.Self || w.All {
		t.Fatalf("ch2 writes(number) = %+v, want Self", w)
	}
	if r := p.BranchReads(li("ch2"), 0, "number"); r == nil || !r.All {
		t.Fatalf("ch2 reads(number) = %+v, want All (MaxSh scan)", r)
	}
	// ch1 writes only choosing[self] and reads nothing shared.
	if w := p.BranchWrites(li("ch1"), 0, "choosing"); w == nil || !w.Self {
		t.Fatalf("ch1 writes(choosing) = %+v, want Self", w)
	}
	if r := p.BranchReads(li("ch1"), 0, "choosing"); r != nil {
		t.Fatalf("ch1 reads(choosing) = %+v, want nil", r)
	}
	// t3's guard reads number through a computed index (the cursor j), so
	// the read widens to All; its own cell read stays visible too.
	if r := p.BranchReads(li("t3"), 0, "number"); r == nil || !r.All {
		t.Fatalf("t3 reads(number) = %+v, want All (cursor-indexed)", r)
	}
	// t2 reads choosing through the cursor.
	if r := p.BranchReads(li("t2"), 0, "choosing"); r == nil || !r.All {
		t.Fatalf("t2 reads(choosing) = %+v, want All", r)
	}
	if w := p.BranchWrites(li("t2"), 0, "choosing"); w != nil {
		t.Fatalf("t2 writes(choosing) = %+v, want nil", w)
	}
}

func TestBranchLocalOnly(t *testing.T) {
	p := bakeryLike(3, 4)
	want := map[string][]bool{
		"ncs": {true},
		"ch1": {false},
		"ch2": {false},
		"ch3": {false},
		"t1":  {true, true}, // both branches move only the pc / read only j
		"t2":  {false},
		"t3":  {false},
		"t4":  {true},
		"cs":  {false},
	}
	for label, branches := range want {
		li := p.LabelIndex(label)
		if got := p.NumBranchesAt(li); got != len(branches) {
			t.Fatalf("%s: %d branches, want %d", label, got, len(branches))
		}
		for bi, w := range branches {
			if got := p.BranchLocalOnly(li, bi); got != w {
				t.Errorf("BranchLocalOnly(%s, %d) = %v, want %v", label, bi, got, w)
			}
		}
	}
}

func TestBranchWritesSharedAndTag(t *testing.T) {
	p := bakeryLike(3, 4)
	want := map[string][]struct {
		writes bool
		tag    string
	}{
		"ncs": {{false, "try"}},
		"ch1": {{true, ""}},
		"ch2": {{true, ""}},
		"ch3": {{true, ""}}, // choosing[self] := 0 beside the local j := 0
		"t1":  {{false, "cs-enter"}, {false, ""}},
		"t2":  {{false, ""}}, // reads choosing[j], writes nothing shared
		"t3":  {{false, ""}},
		"t4":  {{false, ""}},
		"cs":  {{true, "cs-exit"}},
	}
	for label, branches := range want {
		li := p.LabelIndex(label)
		for bi, w := range branches {
			if got := p.BranchWritesShared(li, bi); got != w.writes {
				t.Errorf("BranchWritesShared(%s, %d) = %v, want %v", label, bi, got, w.writes)
			}
			if got := p.BranchTag(li, bi); got != w.tag {
				t.Errorf("BranchTag(%s, %d) = %q, want %q", label, bi, got, w.tag)
			}
		}
	}
}

func TestBranchNext(t *testing.T) {
	p := bakeryLike(2, 2)
	if got := p.BranchNext(p.LabelIndex("t1"), 0); got != p.LabelIndex("cs") {
		t.Fatalf("t1 branch 0 target = %d, want cs", got)
	}
	if got := p.BranchNext(p.LabelIndex("t1"), 1); got != p.LabelIndex("t2") {
		t.Fatalf("t1 branch 1 target = %d, want t2", got)
	}
}

func TestActionsIndependent(t *testing.T) {
	p := bakeryLike(3, 4)
	li := p.LabelIndex
	cases := []struct {
		name           string
		la, ba, lb, bb int
		pa, pb         int
		want           bool
	}{
		// Pure-local steps of distinct processes always commute.
		{"t4 vs t4", li("t4"), 0, li("t4"), 0, 0, 1, true},
		{"ncs vs t1", li("ncs"), 0, li("t1"), 1, 0, 2, true},
		// Writes to distinct own cells, no shared reads: independent.
		{"ch1 vs ch1", li("ch1"), 0, li("ch1"), 0, 0, 1, true},
		// A write to choosing[0] vs a cursor-indexed read of choosing.
		{"ch1 vs t2", li("ch1"), 0, li("t2"), 0, 0, 1, false},
		// The MaxSh scan reads every number cell; ch2 also writes one.
		{"ch2 vs ch2", li("ch2"), 0, li("ch2"), 0, 0, 1, false},
		{"ch2 vs cs", li("ch2"), 0, li("cs"), 0, 0, 1, false},
		// ch1 writes choosing only; ch2 touches number only. Disjoint.
		{"ch1 vs ch2", li("ch1"), 0, li("ch2"), 0, 0, 1, true},
		// Same process never independent, even on pure-local branches.
		{"same pid", li("t4"), 0, li("t4"), 0, 1, 1, false},
	}
	for _, tc := range cases {
		if got := p.ActionsIndependent(tc.pa, tc.la, tc.ba, tc.pb, tc.lb, tc.bb); got != tc.want {
			t.Errorf("%s (pids %d,%d): independent = %v, want %v", tc.name, tc.pa, tc.pb, got, tc.want)
		}
		// The relation is symmetric by definition.
		if got := p.ActionsIndependent(tc.pb, tc.lb, tc.bb, tc.pa, tc.la, tc.ba); got != tc.want {
			t.Errorf("%s reversed: independence not symmetric", tc.name)
		}
	}
}

// TestCommutationOracle is the soundness oracle for the independence
// relation: over a bounded BFS of reachable states, every pair of enabled
// successors of different processes that the relation declares independent
// must (a) commute — executing the two actions in either order reaches the
// same state with the same overflow flags — and (b) preserve each other's
// enabledness, i.e. the second action is still available (same label,
// branch, and pid) after the first.
func TestCommutationOracle(t *testing.T) {
	progs := []*Prog{
		bakeryLike(3, 3),
		bakeryLike(2, 2),
	}
	const maxStates = 4000
	for _, p := range progs {
		t.Run(p.Name, func(t *testing.T) {
			checked := 0
			queue := []State{p.InitState()}
			seen := map[string]bool{p.Key(queue[0]): true}
			for head := 0; head < len(queue) && len(queue) < maxStates; head++ {
				s := queue[head]
				succs := p.AllSuccs(s, ModeUnbounded)
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
						ab, okAB := execBranch(p, a.State, b)
						ba, okBA := execBranch(p, b.State, a)
						if !okAB || !okBA {
							t.Fatalf("independent pair disabled the partner: p%d:%s/%d then p%d:%s/%d (okAB=%v okBA=%v)\nstate: %s",
								a.Pid, a.Label(p), a.Branch, b.Pid, b.Label(p), b.Branch, okAB, okBA, p.Format(s))
						}
						if !ab.State.Equal(ba.State) {
							t.Fatalf("independent pair does not commute: p%d:%s/%d, p%d:%s/%d\nstate: %s\na;b: %s\nb;a: %s",
								a.Pid, a.Label(p), a.Branch, b.Pid, b.Label(p), b.Branch,
								p.Format(s), p.Format(ab.State), p.Format(ba.State))
						}
						if ab.Overflow != b.Overflow || ba.Overflow != a.Overflow {
							t.Fatalf("independent partner changed an action's overflow accounting")
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("oracle exercised no independent pairs")
			}
			t.Logf("%s: %d independent pairs commuted over %d states", p.Name, checked, len(queue))
		})
	}
}

// execBranch executes, from state s, the same action succ records (pid,
// label, branch), reporting whether it is still enabled.
func execBranch(p *Prog, s State, succ Succ) (Succ, bool) {
	for _, sc := range p.Succs(s, succ.Pid, ModeUnbounded, nil) {
		if sc.LabelIdx == succ.LabelIdx && sc.Branch == succ.Branch {
			return sc, true
		}
	}
	return Succ{}, false
}
