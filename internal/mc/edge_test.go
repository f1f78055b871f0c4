package mc

import (
	"testing"
	"unsafe"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// An invariant already false in the initial state yields a zero-step
// counterexample.
func TestViolationAtInitialState(t *testing.T) {
	p := gcl.New("initbad", 1)
	p.SetM(1)
	p.SharedVar("number", 5) // starts above M
	p.Label("ncs", gcl.Goto("ncs"))
	p.MustBuild()
	res := Check(p, Options{Invariants: []Invariant{NoOverflow()}})
	if res.Violation == nil {
		t.Fatal("initial-state violation missed")
	}
	if res.Violation.Trace.Len() != 0 {
		t.Errorf("trace length = %d, want 0", res.Violation.Trace.Len())
	}
	if res.States != 1 {
		t.Errorf("states = %d, want 1", res.States)
	}
}

// NoOverflow is vacuous for programs without a declared capacity.
func TestNoOverflowVacuousWithoutM(t *testing.T) {
	p := gcl.New("unbounded", 1)
	p.SharedVar("x", 0)
	p.Label("a", gcl.Goto("a", gcl.Set("x", gcl.Add(gcl.Sh("x"), gcl.C(1)))))
	p.MustBuild()
	res := Check(p, Options{Invariants: []Invariant{NoOverflow()}, MaxStates: 100})
	if res.Violation != nil {
		t.Error("vacuous invariant reported a violation")
	}
	if res.Complete {
		t.Error("counter program cannot complete in 100 states")
	}
}

// Deadlock detection and invariants interact: the violation is found first
// when it is shallower.
func TestViolationBeforeDeadlock(t *testing.T) {
	p := gcl.New("both", 1)
	p.SetM(1)
	p.SharedVar("number", 0)
	p.Label("a", gcl.Goto("b", gcl.Set("number", gcl.C(5))))
	p.Label("b", gcl.Br(gcl.Eq(gcl.Sh("number"), gcl.C(0)), "a"))
	p.MustBuild()
	res := Check(p, Options{Invariants: []Invariant{NoOverflow()}, Deadlock: true})
	if res.Violation == nil {
		t.Fatal("violation not found")
	}
	if res.Deadlock != nil {
		t.Error("deadlock reported despite earlier violation")
	}
}

// Graph construction on a single-state program.
func TestGraphSingleState(t *testing.T) {
	p := gcl.New("still", 1)
	p.SharedVar("x", 0)
	p.Label("a", gcl.Br(gcl.Eq(gcl.Sh("x"), gcl.C(1)), "a")) // never enabled
	p.MustBuild()
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 1 {
		t.Errorf("states = %d, want 1", g.NumStates())
	}
	all := func(int32) bool { return true }
	if sccs := g.buildProduct().sccs(all, func(v, ei int32) bool { return true }); len(sccs) != 1 || len(sccs[0]) != 1 {
		t.Errorf("SCCs = %v", sccs)
	}
	if rep := g.FindNoProgress([]int{0}); rep != nil {
		t.Error("stuck single state reported as livelock (no edges, no cycle)")
	}
}

// Edge.Branch fills the padding after Pid: adjacency lists stay 16 bytes
// per edge.
func TestEdgeIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Edge{}); n != 16 {
		t.Errorf("unsafe.Sizeof(Edge{}) = %d, want 16", n)
	}
}

// gcl.Succ carries no tag string: the merge reads every record a worker
// wrote, so a successor stays 48 bytes and its tag is looked up on demand.
func TestSuccIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(gcl.Succ{}); n != 48 {
		t.Errorf("unsafe.Sizeof(gcl.Succ{}) = %d, want 48", n)
	}
}

// Succ.Tag resolves through the program's branch table for every program
// successor and is empty for crash successors, on every state of a tagged,
// crash-enabled spec.
func TestSuccTagMatchesBranchTag(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	g, err := BuildGraph(p, Options{Crash: true})
	if err != nil {
		t.Fatal(err)
	}
	e := g.expl
	seen, crashes := map[string]bool{}, 0
	for i := range g.NumStates() {
		e.wc.buf.Reset()
		succs, _, _ := e.successors(g.State(i), &e.wc)
		for _, sc := range succs {
			if sc.LabelIdx < 0 {
				crashes++
				if tag := sc.Tag(p); tag != "" {
					t.Fatalf("state %d: crash successor of p%d has tag %q", i, sc.Pid, tag)
				}
				continue
			}
			want := p.BranchTag(int(sc.LabelIdx), sc.Branch)
			if got := sc.Tag(p); got != want {
				t.Fatalf("state %d: p%d at %s branch %d: Tag = %q, BranchTag = %q",
					i, sc.Pid, sc.Label(p), sc.Branch, got, want)
			}
			seen[want] = true
		}
	}
	for tag := range p.BranchTags() {
		if !seen[tag] {
			t.Errorf("tag %q never taken: the walk is too small to check it", tag)
		}
	}
	if crashes == 0 {
		t.Error("no crash successor generated")
	}
}
