package mc

import (
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

func allPids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// E7 strengthening: Bakery++ admits no GLOBAL livelock — there is no
// reachable cycle on which every process keeps moving yet nobody ever
// enters the critical section. Together with TestStarvationAtL1 this gives
// the full Section 6.3 picture: an individual slow process can starve at
// L1, but the system as a whole always keeps serving customers.
func TestBakeryPPNoGlobalLivelock(t *testing.T) {
	for _, cfg := range []specs.Config{{N: 2, M: 2}, {N: 3, M: 2}, {N: 3, M: 3}} {
		p := specs.BakeryPP(cfg)
		g, err := BuildGraph(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep := g.FindNoProgress(allPids(p.N)); rep != nil {
			t.Errorf("N=%d M=%d: global livelock of %d states, moves %v",
				cfg.N, cfg.M, rep.ComponentSize, rep.MovesByPid)
		}
	}
}

// Ablation 4 finding (DESIGN.md): WITHOUT the L1 gate, Bakery++ has a
// global livelock — a reachable cycle in which all three processes keep
// re-choosing tickets at the bound and resetting, and nobody ever enters
// the critical section. Safety never needed the gate (E1 verifies the
// nogate variant); this shows the gate is what buys global progress. The
// paper introduces the gate without separating the two roles; the model
// checker separates them mechanically.
func TestNoGateAblationHasGlobalLivelock(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2, NoGate: true})
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.FindNoProgress(allPids(3))
	if rep == nil {
		t.Fatal("expected a reset livelock in the gateless variant")
	}
	for pid, m := range rep.MovesByPid {
		if m == 0 {
			t.Errorf("process %d does not move in the livelock component", pid)
		}
	}
	t.Logf("gateless livelock: %d states, moves %v, entry depth %d",
		rep.ComponentSize, rep.MovesByPid, rep.Entry.Len())

	// Two processes already suffice: the resetter's stored maximum (= M)
	// persists until its own reset commits, so each process's scan keeps
	// observing the other's saturated ticket and both reset forever.
	p2 := specs.BakeryPP(specs.Config{N: 2, M: 2, NoGate: true})
	g2, err := BuildGraph(p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := g2.FindNoProgress(allPids(2)); rep == nil {
		t.Error("expected the 2-process gateless reset livelock")
	}
}

// Question Two connection (paper Section 8.2): Bakery++ admits ACTIVE
// individual starvation — a reachable cycle in which a process keeps taking
// steps (scans, resets; weak fairness satisfied) yet never enters its
// critical section, because every overflow reset discards its ticket and
// with it the FCFS protection of the pending attempt. Classic Bakery has no
// such cycle structurally: once a ticket is taken it is never given up, so
// a process that keeps moving must pass through cs. This is the liveness
// price of boundedness, sharper than Section 6.3's slow-process scenario
// (which requires the starved process to be blocked).
func TestBakeryPPActiveStarvation(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := p.LabelIndex("cs")
	rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
		return pr.PC(s, 2) != cs
	}, allPids(3))
	if rep == nil {
		t.Fatal("expected an active-starvation cycle at M=2")
	}
	if rep.MovesByPid[2] == 0 {
		t.Error("the starved process should be moving (that is the point)")
	}
	t.Logf("active starvation: %d states, moves %v", rep.ComponentSize, rep.MovesByPid)
}

// Positive control: a program whose processes spin forever without a
// critical section is detected.
func TestFindNoProgressPositiveControl(t *testing.T) {
	p := gcl.New("spinner", 2)
	p.SharedVar("x", 0)
	p.Label("ncs", gcl.Goto("a"))
	p.Label("a", gcl.Goto("ncs", gcl.Set("x", gcl.Sub(gcl.C(1), gcl.Sh("x")))))
	p.MustBuild()
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.FindNoProgress(allPids(2))
	if rep == nil {
		t.Fatal("spinner livelock not found")
	}
	if rep.MovesByPid[0] == 0 || rep.MovesByPid[1] == 0 {
		t.Error("both processes should move in the component")
	}
}

// The cycle searches read the graph's edges in place and replay a program
// edge by its ordinal, so each state's edges must be its successors in
// generation order: checked edge by edge against independent successor
// generation — target (the successor with its dead cursors reset), mover,
// label and branch, ordinal (crash edges last) — and the cs-enter bit the
// no-progress search derives from the branch against the Succs tag.
func TestTagRecovery(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	g, err := BuildGraph(p, Options{Crash: true, CrashPids: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	enters := 0
	for v := int32(0); v < int32(g.NumStates()); v++ {
		s := g.State(int(v))
		succs := p.AllSuccs(s, gcl.ModeUnbounded)
		if int(g.degree(v)) != len(succs)+1 {
			t.Fatalf("state %d: %d edges, %d successors plus one crash", v, g.degree(v), len(succs))
		}
		for k := int32(0); k < g.degree(v); k++ {
			e := g.edge(v, k)
			want, pid, label, branch, tag := p.CrashSucc(s, 1), 1, int32(crashLabelIdx), 0, ""
			if int(k) < len(succs) {
				sc := succs[k]
				want, pid, label, branch, tag = sc.State, sc.Pid, sc.LabelIdx, sc.Branch, sc.Tag(p)
			}
			if !g.State(int(e.To)).Equal(p.NormalizeCursors(want)) || int(e.Pid) != pid ||
				e.LabelIdx != label || int(e.Branch) != branch {
				t.Fatalf("state %d edge %d: (to %d, p%d, label %d, branch %d) is not successor p%d label %d branch %d",
					v, k, e.To, e.Pid, e.LabelIdx, e.Branch, pid, label, branch)
			}
			enter := e.LabelIdx >= 0 && p.BranchTag(int(e.LabelIdx), int(e.Branch)) == "cs-enter"
			if enter != (tag == "cs-enter") {
				t.Fatalf("state %d edge %d: cs-enter bit %v, Succs tag %q", v, k, enter, tag)
			}
			if enter {
				enters++
			}
		}
	}
	if enters == 0 {
		t.Error("no cs-enter edge in the graph")
	}
}
