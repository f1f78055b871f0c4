package mc

import (
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// The pipeline's reduction choices per analysis, asserted through the
// exported PlanFor: the same options yield different (and differently
// sound) plans depending on what the analysis declares it needs.
func TestPlanForReductionChoices(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	opts := Options{Invariants: []Invariant{Mutex(), NoOverflow()}, Symmetry: true, POR: true}
	mustPlan := func(pr *gcl.Prog, o Options, a Analysis) Plan {
		t.Helper()
		pl, err := PlanFor(pr, o, a)
		if err != nil {
			t.Fatalf("PlanFor(%s): %v", a.Name(), err)
		}
		return pl
	}

	safety := mustPlan(p, opts, SafetyAnalysis{Invariants: opts.Invariants})
	if !safety.Symmetry || !safety.POR || safety.Pinned != nil || safety.Reset {
		t.Errorf("safety plan = %+v, want full symmetry + POR", safety)
	}

	graph := mustPlan(p, opts, GraphAnalysis{Invariants: opts.Invariants})
	if graph.Symmetry || !graph.Reset {
		t.Errorf("graph plan = %+v, want the dead-cursor reset without symmetry", graph)
	}
	if graph.POR {
		t.Error("graph analyses are cycle-sensitive; POR must never be planned")
	}
	gNeeds := GraphAnalysis{}.Needs()
	if !gNeeds.Edges || !gNeeds.Depth || !gNeeds.Cycles {
		t.Errorf("graph needs = %+v, want edges+depth+cycles", gNeeds)
	}

	fcfs := mustPlan(p, opts, FCFSAnalysis{First: 2, Second: 0})
	if fcfs.Symmetry || fcfs.POR || fcfs.Reset {
		t.Errorf("fcfs plan = %+v, want pinned-orbit dedup only", fcfs)
	}
	if len(fcfs.Pinned) != 2 || fcfs.Pinned[0] != 2 || fcfs.Pinned[1] != 0 {
		t.Errorf("fcfs pinned = %v, want [2 0]", fcfs.Pinned)
	}

	refine := mustPlan(p, opts, RefinementAnalysis{})
	if refine.Symmetry || refine.POR || refine.Reset || refine.Pinned != nil {
		t.Errorf("refinement plan = %+v, want no reduction", refine)
	}

	// Crashing a proper pid subset distinguishes identities: symmetry off.
	crashOpts := opts
	crashOpts.Crash = true
	crashOpts.CrashPids = []int{0}
	if pl := mustPlan(p, crashOpts, SafetyAnalysis{Invariants: opts.Invariants}); pl.Symmetry || pl.POR {
		t.Errorf("subset-crash plan = %+v, want no reduction", pl)
	}

	// An invariant without a declared read set blocks POR but not symmetry.
	blind := Options{Invariants: []Invariant{{Name: "opaque", Holds: func(pr *gcl.Prog, s gcl.State) bool { return true }}}, Symmetry: true, POR: true}
	if pl := mustPlan(p, blind, SafetyAnalysis{Invariants: blind.Invariants}); pl.POR || !pl.Symmetry {
		t.Errorf("undeclared-observation plan = %+v, want symmetry without POR", pl)
	}

	// Declared-asymmetric specs fall back entirely.
	bw := specs.BlackWhite(3)
	if pl := mustPlan(bw, opts, GraphAnalysis{Invariants: opts.Invariants}); pl.Symmetry || !pl.Reset {
		t.Errorf("asymmetric-spec graph plan = %+v, want the reset alone", pl)
	}
}
