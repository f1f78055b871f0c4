package mc

// Tests for ample-set partial-order reduction: verdict parity with the
// full search across the spec matrix (alone and composed with symmetry),
// determinism for any worker count, concreteness of reduced
// counterexample traces, deadlock preservation, the fallback gates, and
// the headline reduction factors the acceptance criteria pin.

import (
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// TestPORVerdictParity sweeps the same spec matrix as the symmetry parity
// test: the POR search (and the POR+symmetry search) must report the same
// pass/fail verdict and violated invariant as the full search while
// exploring no more states. Unlike symmetry, POR needs no spec
// declaration, so it must apply (and stay sound) on the declared-
// asymmetric specs too.
func TestPORVerdictParity(t *testing.T) {
	for _, m := range symMatrix() {
		t.Run(m.name, func(t *testing.T) {
			inv := []Invariant{Mutex(), NoOverflow()}
			full := Check(m.p(), Options{Invariants: inv})
			if full.POR {
				t.Fatal("full run must not report POR")
			}
			fv, fi := verdictOf(full)
			for _, sym := range []bool{false, true} {
				red := Check(m.p(), Options{Invariants: inv, POR: true, Symmetry: sym})
				if !red.POR {
					t.Fatalf("POR not applied (symmetry=%v)", sym)
				}
				rv, ri := verdictOf(red)
				if fv != rv || fi != ri {
					t.Fatalf("verdicts differ (symmetry=%v): full %s/%s, reduced %s/%s", sym, fv, fi, rv, ri)
				}
				if red.States > full.States {
					t.Fatalf("reduced search explored more states (%d) than full (%d)", red.States, full.States)
				}
			}
		})
	}
}

// TestPORDeterministicAcrossWorkers pins the acceptance contract that POR
// runs (alone and composed with symmetry) are byte-identical for any
// worker count: state counts, transition counts, verdicts, and
// counterexample traces all agree between the engines.
func TestPORDeterministicAcrossWorkers(t *testing.T) {
	models := []struct {
		name string
		p    func() *gcl.Prog
		sym  bool
	}{
		{"bakerypp-N3-M2-por", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, false},
		{"bakerypp-N3-M2-both", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, true},
		{"bakery-N3-M3-both", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 3, M: 3}) }, true},
		{"peterson-N3-por", func() *gcl.Prog { return specs.Peterson(3) }, false},
		{"szymanski-N3-both", func() *gcl.Prog { return specs.Szymanski(3) }, true},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			inv := []Invariant{Mutex(), NoOverflow()}
			base := Check(m.p(), Options{Invariants: inv, POR: true, Symmetry: m.sym})
			if !base.POR {
				t.Fatal("POR not applied")
			}
			for _, workers := range []int{1, 4, -1} {
				r := Check(m.p(), Options{Invariants: inv, POR: true, Symmetry: m.sym, Workers: workers})
				if r.States != base.States || r.Transitions != base.Transitions ||
					r.Depth != base.Depth || r.Complete != base.Complete ||
					r.Symmetry != base.Symmetry || r.POR != base.POR {
					t.Fatalf("workers=%d diverges: states=%d/%d transitions=%d/%d depth=%d/%d",
						workers, r.States, base.States, r.Transitions, base.Transitions, r.Depth, base.Depth)
				}
				bv, bi := verdictOf(base)
				rv, ri := verdictOf(r)
				if bv != rv || bi != ri {
					t.Fatalf("workers=%d verdict diverges: %s/%s vs %s/%s", workers, rv, ri, bv, bi)
				}
				if base.Violation != nil &&
					base.Violation.Trace.String() != r.Violation.Trace.String() {
					t.Fatalf("workers=%d counterexample trace diverges", workers)
				}
			}
		})
	}
}

// TestPORTraceIsConcrete replays every reduced-run counterexample step as
// a real program transition: compressed local chains must be expanded back
// into their concrete intermediate steps, so traces remain valid
// executions from the initial state. This is also the regression test for
// the modbakery strawman — its mutual-exclusion violation must survive
// every reduction mode.
func TestPORTraceIsConcrete(t *testing.T) {
	cases := []struct {
		name string
		p    func() *gcl.Prog
		inv  []Invariant
		sym  bool
	}{
		{"modbakery-mutex-por", func() *gcl.Prog { return specs.ModBakery(2, 2) }, []Invariant{Mutex()}, false},
		{"modbakery-mutex-both", func() *gcl.Prog { return specs.ModBakery(2, 2) }, []Invariant{Mutex()}, true},
		{"bakery-overflow-por", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 3, M: 3}) }, []Invariant{NoOverflow()}, false},
		{"bakery-overflow-both", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 3, M: 3}) }, []Invariant{NoOverflow()}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.p()
			res := Check(p, Options{Invariants: c.inv, POR: true, Symmetry: c.sym})
			if !res.POR || res.Violation == nil {
				t.Fatalf("expected a POR-reduced violation, got %v", res)
			}
			tr := res.Violation.Trace
			cur := tr.Init
			if !cur.Equal(p.InitState()) {
				t.Fatal("trace does not start at the initial state")
			}
			for i, st := range tr.Steps {
				found := false
				for _, sc := range p.AllSuccs(cur, gcl.ModeUnbounded) {
					if sc.Pid == st.Pid && sc.Label(p) == st.Label && sc.State.Equal(st.State) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("step %d (p%d:%s) is not a real transition of the predecessor state",
						i+1, st.Pid, st.Label)
				}
				cur = st.State
			}
			// The final state must actually violate the invariant.
			for _, inv := range c.inv {
				if inv.Holds(p, cur) {
					t.Fatalf("trace end does not violate %s", inv.Name)
				}
			}
		})
	}
}

// deadlockProg is a two-process program that deadlocks: both processes
// take one local step and then block forever on a guard that can never
// hold. POR compresses the local steps into a chain; the deadlock state
// must still be found and its trace must replay.
func deadlockProg() *gcl.Prog {
	p := gcl.New("deadlocker", 2)
	p.SharedVar("x", 0)
	p.Label("ncs", gcl.Goto("w"))
	p.Label("w", gcl.Br(gcl.Eq(gcl.Sh("x"), gcl.C(1)), "ncs"))
	return p.MustBuild()
}

func TestPORDeadlockPreserved(t *testing.T) {
	full := Check(deadlockProg(), Options{Deadlock: true})
	red := Check(deadlockProg(), Options{Deadlock: true, POR: true})
	if full.Deadlock == nil || red.Deadlock == nil {
		t.Fatalf("deadlock missed: full=%v reduced=%v", full.Deadlock != nil, red.Deadlock != nil)
	}
	if !red.POR {
		t.Fatal("POR not applied")
	}
	if red.States > full.States {
		t.Fatalf("reduced deadlock search explored more states (%d) than full (%d)", red.States, full.States)
	}
	// The reduced deadlock trace must replay concretely into a state with
	// no enabled process.
	p := deadlockProg()
	cur := red.Deadlock.Init
	for _, st := range red.Deadlock.Steps {
		found := false
		for _, sc := range p.AllSuccs(cur, gcl.ModeUnbounded) {
			if sc.Pid == st.Pid && sc.Label(p) == st.Label && sc.State.Equal(st.State) {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("deadlock trace step is not a real transition")
		}
		cur = st.State
	}
	var buf gcl.SuccBuf
	for pid := 0; pid < p.N; pid++ {
		if p.EnabledMask(cur, pid, &buf) != 0 {
			t.Fatal("deadlock trace does not end in a deadlock state")
		}
	}
}

// mixedGuardProg builds the ample-condition edge case: at label "l" a
// process has a local, invisible branch (always enabled) next to a
// DISABLED branch whose shared guard another process can turn on. The
// process must not be singled out as ample there — its dependent "bad"
// branch could become its first executed action once the other process
// writes flag — or the reachable bad state is pruned away.
func mixedGuardProg() *gcl.Prog {
	p := gcl.New("mixedguard", 2)
	p.SharedVar("flag", 0)
	p.Label("start",
		gcl.Br(gcl.Eq(gcl.Self(), gcl.C(0)), "l"),
		gcl.Br(gcl.Ne(gcl.Self(), gcl.C(0)), "w"),
	)
	p.Label("l",
		gcl.Goto("l2"),
		gcl.Br(gcl.Eq(gcl.Sh("flag"), gcl.C(1)), "bad"),
	)
	p.Label("w", gcl.Goto("done", gcl.Set("flag", gcl.C(1))))
	p.Label("l2", gcl.Goto("l2"))
	p.Label("bad", gcl.Goto("bad"))
	p.Label("done", gcl.Goto("done"))
	return p.MustBuild()
}

// TestPORMixedGuardLabelSoundness is the regression test for the C1
// subtlety above: the "bad" label is reachable (process 1 enables the
// guarded branch while process 0 still sits at "l"), and the reduced
// search must find the violation exactly like the full search does.
func TestPORMixedGuardLabelSoundness(t *testing.T) {
	inv := []Invariant{AtMostAtLabel("bad", 0)}
	full := Check(mixedGuardProg(), Options{Invariants: inv})
	red := Check(mixedGuardProg(), Options{Invariants: inv, POR: true})
	if !red.POR {
		t.Fatal("POR not applied")
	}
	fv, fi := verdictOf(full)
	rv, ri := verdictOf(red)
	if fv != "violation" {
		t.Fatalf("full search must reach the bad label, got %s", fv)
	}
	if fv != rv || fi != ri {
		t.Fatalf("verdicts differ: full %s/%s, reduced %s/%s", fv, fi, rv, ri)
	}
}

// TestPORFallbacks pins the automatic full-search fallbacks: crash
// transitions, invariants without Observes declarations, and graph
// construction must all disable the reduction.
func TestPORFallbacks(t *testing.T) {
	mk := func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 2, M: 2}) }
	inv := []Invariant{Mutex(), NoOverflow()}

	crash := Check(mk(), Options{Invariants: inv, Crash: true, POR: true})
	if crash.POR {
		t.Fatal("crash transitions must disable POR")
	}
	crashFull := Check(mk(), Options{Invariants: inv, Crash: true})
	if crash.States != crashFull.States {
		t.Fatalf("disabled reduction must match the full search: %d vs %d", crash.States, crashFull.States)
	}

	opaque := Invariant{
		Name:  "opaque",
		Holds: func(p *gcl.Prog, s gcl.State) bool { return true },
	}
	und := Check(mk(), Options{Invariants: append(inv, opaque), POR: true})
	if und.POR {
		t.Fatal("an invariant without Observes must disable POR")
	}
	undFull := Check(mk(), Options{Invariants: append(inv, opaque)})
	if und.States != undFull.States {
		t.Fatalf("disabled reduction must match the full search: %d vs %d", und.States, undFull.States)
	}

	declared := Invariant{
		Name:     "never-three-at-t2",
		Holds:    func(p *gcl.Prog, s gcl.State) bool { return p.CountAtLabel(s, "t2") <= 2 },
		Observes: &Observation{Labels: []string{"t2"}},
	}
	dec := Check(mk(), Options{Invariants: append(inv, declared), POR: true})
	if !dec.POR {
		t.Fatal("a declared invariant must keep POR on")
	}

	gFull, err := BuildGraph(mk(), Options{Invariants: inv})
	if err != nil {
		t.Fatal(err)
	}
	gPOR, err := BuildGraph(mk(), Options{Invariants: inv, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	if gPOR.Summary.POR {
		t.Fatal("BuildGraph must ignore POR")
	}
	requireGraphsIdentical(t, gFull, gPOR)
}

// TestPORGainBakeryPPN4 is the acceptance bar: composed with symmetry,
// POR must cut the bakery++ N=4, M=2 quotient by at least another 2x
// while reaching the same verdict.
func TestPORGainBakeryPPN4(t *testing.T) {
	inv := []Invariant{Mutex(), NoOverflow()}
	mk := func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 4, M: 2}) }
	sym := Check(mk(), Options{Invariants: inv, Symmetry: true, Workers: -1})
	both := Check(mk(), Options{Invariants: inv, Symmetry: true, POR: true, Workers: -1})
	sv, si := verdictOf(sym)
	bv, bi := verdictOf(both)
	if sv != bv || si != bi {
		t.Fatalf("verdicts differ: symmetry %s/%s, both %s/%s", sv, si, bv, bi)
	}
	if !both.Symmetry || !both.POR {
		t.Fatalf("expected both reductions applied: symmetry=%v por=%v", both.Symmetry, both.POR)
	}
	if both.States*2 > sym.States {
		t.Fatalf("POR gain below 2x on top of symmetry: symmetry %d states, both %d", sym.States, both.States)
	}
	t.Logf("bakery++ N=4 M=2: symmetry %d states, symmetry+por %d (%.1fx further)",
		sym.States, both.States, float64(sym.States)/float64(both.States))
}

// TestAmpleNeverExhaustive pins the static skip in ampleSingle: a label
// marked ampleNever must fail ampleProcessOKMask for every enabled-branch
// mask, checked exhaustively on every registered spec at N=3 for every
// label with at most 12 branches.
func TestAmpleNeverExhaustive(t *testing.T) {
	opts := Options{Invariants: []Invariant{Mutex(), NoOverflow()}, POR: true}
	for _, name := range specs.Names() {
		p, err := specs.Get(name, specs.Config{N: 3, M: 2})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planFor(p, opts, SafetyAnalysis{Invariants: opts.Invariants})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.POR {
			t.Fatalf("%s: POR not planned", name)
		}
		e := newExplorer(p, opts, plan)
		marked := 0
		for pc, never := range e.ampleNever {
			nb := p.NumBranchesAt(pc)
			if !never || nb > 12 {
				continue
			}
			marked++
			for m := uint64(0); m < 1<<uint(nb); m++ {
				if e.ampleProcessOKMask(pc, m) {
					t.Fatalf("%s: label %s is ampleNever but mask %b passes", name, p.Labels()[pc], m)
				}
			}
		}
		t.Logf("%s: %d of %d labels never ample", name, marked, len(e.ampleNever))
	}
}
