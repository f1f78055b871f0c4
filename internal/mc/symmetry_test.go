package mc

// Tests for symmetry-reduced exploration: verdict parity with the full
// search across the spec matrix, determinism for any worker count, the
// concreteness of reduced counterexample traces, and the headline
// reduction factors the docs table records.

import (
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// symMatrix is the spec matrix the parity tests sweep: every registered
// algorithm at N <= 4, plus the safe-register build, with the stock safety
// invariants. Declared-asymmetric specs ride along to pin the fallback.
func symMatrix() []struct {
	name string
	p    func() *gcl.Prog
	want bool // symmetry reduction expected to apply
} {
	return []struct {
		name string
		p    func() *gcl.Prog
		want bool
	}{
		{"bakery-N2-M3", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 2, M: 3}) }, true},
		{"bakery-N3-M3", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 3, M: 3}) }, true},
		{"bakery-fine-N2-M2", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 2, M: 2, Fine: true}) }, true},
		{"bakerypp-N2-M2", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 2, M: 2}) }, true},
		{"bakerypp-N3-M2", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, true},
		{"bakerypp-N4-M2", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 4, M: 2}) }, true},
		{"bakerypp-fine-N2-M3", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 2, M: 3, Fine: true}) }, true},
		{"bakerypp-safe-N2-M2", func() *gcl.Prog { return specs.BakeryPPSafe(2, 2) }, true},
		{"modbakery-N2-M2", func() *gcl.Prog { return specs.ModBakery(2, 2) }, true},
		{"modbakery-N3-M2", func() *gcl.Prog { return specs.ModBakery(3, 2) }, true},
		{"szymanski-N3", func() *gcl.Prog { return specs.Szymanski(3) }, true},
		{"szymanski-N4", func() *gcl.Prog { return specs.Szymanski(4) }, true},
		{"blackwhite-N3", func() *gcl.Prog { return specs.BlackWhite(3) }, false},
		{"peterson-N3", func() *gcl.Prog { return specs.Peterson(3) }, false},
	}
}

func verdictOf(r *Result) (string, string) {
	switch {
	case r.Violation != nil:
		return "violation", r.Violation.Invariant
	case r.Deadlock != nil:
		return "deadlock", ""
	case !r.Complete:
		return "incomplete", ""
	}
	return "verified", ""
}

// TestSymmetryVerdictParity checks, across the whole spec matrix, that the
// symmetry-reduced search reports the same pass/fail verdict and violated
// invariant as the full search, while exploring no more (and, for
// symmetric specs with N >= 3, strictly fewer) states.
func TestSymmetryVerdictParity(t *testing.T) {
	for _, m := range symMatrix() {
		t.Run(m.name, func(t *testing.T) {
			inv := []Invariant{Mutex(), NoOverflow()}
			full := Check(m.p(), Options{Invariants: inv})
			red := Check(m.p(), Options{Invariants: inv, Symmetry: true})
			if red.Symmetry != m.want {
				t.Fatalf("symmetry applied = %v, want %v", red.Symmetry, m.want)
			}
			if full.Symmetry {
				t.Fatal("full run must not report symmetry")
			}
			fv, fi := verdictOf(full)
			rv, ri := verdictOf(red)
			if fv != rv || fi != ri {
				t.Fatalf("verdicts differ: full %s/%s, reduced %s/%s", fv, fi, rv, ri)
			}
			if red.States > full.States {
				t.Fatalf("reduced search explored more states (%d) than full (%d)", red.States, full.States)
			}
			if m.want && full.Complete && full.Prog.N >= 3 && red.States >= full.States {
				t.Fatalf("expected a strict reduction at N=%d: full %d, reduced %d",
					full.Prog.N, full.States, red.States)
			}
			if !m.want && red.States != full.States {
				t.Fatalf("declared-asymmetric spec must fall back to the full search: full %d, reduced %d",
					full.States, red.States)
			}
		})
	}
}

// TestSymmetryDeterministicAcrossWorkers pins the acceptance contract that
// reduced runs are byte-identical for any worker count: state counts,
// transition counts, verdicts, and the full BFS graph all agree between
// the sequential engine and the parallel engine at several widths.
func TestSymmetryDeterministicAcrossWorkers(t *testing.T) {
	models := []struct {
		name  string
		p     func() *gcl.Prog
		graph bool // unbounded specs (classic bakery) cannot be graph-built
	}{
		{"bakerypp-N3-M2", func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }, true},
		{"szymanski-N3", func() *gcl.Prog { return specs.Szymanski(3) }, true},
		{"bakery-N3-M3", func() *gcl.Prog { return specs.Bakery(specs.Config{N: 3, M: 3}) }, false},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			inv := []Invariant{Mutex(), NoOverflow()}
			base := Check(m.p(), Options{Invariants: inv, Symmetry: true})
			for _, workers := range []int{1, 4, -1} {
				r := Check(m.p(), Options{Invariants: inv, Symmetry: true, Workers: workers})
				if r.States != base.States || r.Transitions != base.Transitions ||
					r.Depth != base.Depth || r.Complete != base.Complete || r.Symmetry != base.Symmetry {
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
			if !m.graph {
				return
			}
			seq, err := BuildGraph(m.p(), Options{Symmetry: true})
			if err != nil {
				t.Fatal(err)
			}
			par, err := BuildGraph(m.p(), Options{Symmetry: true, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			requireGraphsIdentical(t, seq, par)
		})
	}
}

// TestSymmetryTraceIsConcrete replays every reduced-run counterexample
// step as a real program transition: the symmetry store only dedups, it
// never substitutes a permuted image for a reachable state, so traces must
// be valid concrete executions from the initial state.
func TestSymmetryTraceIsConcrete(t *testing.T) {
	cases := []struct {
		name string
		p    *gcl.Prog
		inv  []Invariant
	}{
		{"modbakery-mutex", specs.ModBakery(2, 2), []Invariant{Mutex()}},
		{"bakery-overflow", specs.Bakery(specs.Config{N: 3, M: 3}), []Invariant{NoOverflow()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := Check(c.p, Options{Invariants: c.inv, Symmetry: true})
			if !res.Symmetry || res.Violation == nil {
				t.Fatalf("expected a symmetry-reduced violation, got %v", res)
			}
			tr := res.Violation.Trace
			cur := tr.Init
			if !cur.Equal(c.p.InitState()) {
				t.Fatal("trace does not start at the initial state")
			}
			for i, st := range tr.Steps {
				found := false
				for _, sc := range c.p.AllSuccs(cur, gcl.ModeUnbounded) {
					if sc.Pid == st.Pid && sc.Label(c.p) == st.Label && sc.State.Equal(st.State) {
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
		})
	}
}

// TestSymmetryBakeryN4Reduction is the acceptance bar: with symmetry on,
// bakery at N=4 reaches the same verdict while exploring at most a tenth
// of the states the full run does.
func TestSymmetryBakeryN4Reduction(t *testing.T) {
	inv := []Invariant{Mutex(), NoOverflow()}
	mk := func() *gcl.Prog { return specs.Bakery(specs.Config{N: 4, M: 3}) }
	full := Check(mk(), Options{Invariants: inv})
	red := Check(mk(), Options{Invariants: inv, Symmetry: true, Workers: -1})
	fv, fi := verdictOf(full)
	rv, ri := verdictOf(red)
	if fv != rv || fi != ri {
		t.Fatalf("verdicts differ: full %s/%s, reduced %s/%s", fv, fi, rv, ri)
	}
	if red.States*10 > full.States {
		t.Fatalf("reduction below 10x: full %d states, reduced %d", full.States, red.States)
	}
	t.Logf("bakery N=4: full %d states, reduced %d (%.1fx)",
		full.States, red.States, float64(full.States)/float64(red.States))
}

// TestSymmetryBakeryPPN5UnderBound is the scaling acceptance criterion:
// bakery++ at N=5 completes under the default state bound once symmetry
// reduction is on (the full run does not get close).
func TestSymmetryBakeryPPN5UnderBound(t *testing.T) {
	if testing.Short() {
		t.Skip("N=5 quotient exploration is seconds-long; skipped in -short")
	}
	p := specs.BakeryPP(specs.Config{N: 5, M: 2})
	res := Check(p, Options{Invariants: []Invariant{Mutex(), NoOverflow()}, Symmetry: true, Workers: -1})
	if !res.Symmetry {
		t.Fatal("symmetry not applied")
	}
	if res.Violation != nil || res.Deadlock != nil {
		t.Fatalf("unexpected failure: %v", res)
	}
	if !res.Complete {
		t.Fatalf("did not complete under the default bound: %d states", res.States)
	}
	t.Logf("bakery++ N=5 quotient: %d states, %d transitions", res.States, res.Transitions)
}

// TestSymmetryCrashHandling pins the soundness gate on crash transitions:
// crashing all processes preserves symmetry, crashing a proper subset
// distinguishes identities and must fall back to the full search.
func TestSymmetryCrashHandling(t *testing.T) {
	inv := []Invariant{Mutex(), NoOverflow()}
	mk := func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 2, M: 2}) }
	all := Check(mk(), Options{Invariants: inv, Crash: true, Symmetry: true})
	if !all.Symmetry {
		t.Fatal("crash over all processes should keep symmetry reduction on")
	}
	sub := Check(mk(), Options{Invariants: inv, Crash: true, CrashPids: []int{0}, Symmetry: true})
	if sub.Symmetry {
		t.Fatal("crashing a proper pid subset must disable symmetry reduction")
	}
	// A duplicated entry must not masquerade as full coverage.
	dup := Check(mk(), Options{Invariants: inv, Crash: true, CrashPids: []int{0, 0}, Symmetry: true})
	if dup.Symmetry {
		t.Fatal("duplicated crash pids must disable symmetry reduction")
	}
	explicit := Check(mk(), Options{Invariants: inv, Crash: true, CrashPids: []int{1, 0}, Symmetry: true})
	if !explicit.Symmetry {
		t.Fatal("explicitly listing every pid should keep symmetry reduction on")
	}
	fullSub := Check(mk(), Options{Invariants: inv, Crash: true, CrashPids: []int{0}})
	if sub.States != fullSub.States {
		t.Fatalf("disabled reduction must match the full search: %d vs %d", sub.States, fullSub.States)
	}
}

// TestStateStoreBasics exercises the store implementations directly:
// fingerprint+Equal exactness, overwrite semantics, extra key words, and
// the canonical keying of the symmetry-aware variant.
func TestStateStoreBasics(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	s1 := p.InitState()
	s2 := p.Clone(s1)
	p.SetShared(s2, "number", 1, 2)
	s3 := p.Clone(s1)
	p.SetShared(s3, "number", 2, 2) // orbit-mate of s2
	st := newStateStore(p, Plan{})
	fp1, k1 := st.Prepare(s1)
	if _, ok := st.Lookup(fp1, k1); ok {
		t.Fatal("empty store reported a hit")
	}
	st.Insert(fp1, k1, 0)
	if v, ok := st.Lookup(fp1, k1); !ok || v != 0 {
		t.Fatalf("lookup after insert = (%d, %v)", v, ok)
	}
	st.Insert(fp1, k1, 7) // overwrite
	if v, _ := st.Lookup(fp1, k1); v != 7 {
		t.Fatalf("overwrite did not take: %d", v)
	}
	fp2, k2 := st.Prepare(s2)
	if _, ok := st.Lookup(fp2, k2); ok {
		t.Fatal("distinct state reported present")
	}
	// Extra key words distinguish otherwise-equal states.
	fpA, kA := st.Prepare(s1, 1)
	if _, ok := st.Lookup(fpA, kA); ok {
		t.Fatal("extra-word key collided with the bare key")
	}

	sym := newStateStore(p, Plan{Symmetry: true})
	fpS2, kS2 := sym.Prepare(s2)
	fpS3, kS3 := sym.Prepare(s3)
	if fpS2 != fpS3 || !kS2.Equal(kS3) {
		t.Fatal("orbit-mates must prepare to the same canonical key")
	}
	sym.Insert(fpS2, kS2, 4)
	if v, ok := sym.Lookup(fpS3, kS3); !ok || v != 4 {
		t.Fatal("orbit-mate lookup missed")
	}
}
