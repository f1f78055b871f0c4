package gcl

import (
	"strings"
	"testing"
	"testing/quick"
)

// tinyProg builds a 2-process program: each process increments the shared
// counter cell it owns, then waits for the other to catch up, then loops.
func tinyProg() *Prog {
	p := New("tiny", 2)
	p.SetM(10)
	p.SharedArray("cnt", 2, 0)
	p.Own("cnt")
	p.LocalVar("t", 0)
	other := func(q int) Expr { return C(1 - q) }
	_ = other
	p.Label("inc",
		Goto("wait",
			SetSelf("cnt", Add(ShSelf("cnt"), C(1))),
			SetL("t", Add(L("t"), C(1))),
		),
	)
	p.Label("wait",
		Br(Eq(ShI("cnt", C(0)), ShI("cnt", C(1))), "inc"),
	)
	return p.MustBuild()
}

func TestBuilderValidation(t *testing.T) {
	t.Run("duplicate variable", func(t *testing.T) {
		defer expectPanic(t, "duplicate")
		p := New("x", 1)
		p.SharedVar("a", 0)
		p.LocalVar("a", 0)
	})
	t.Run("duplicate label", func(t *testing.T) {
		defer expectPanic(t, "duplicate")
		p := New("x", 1)
		p.Label("l", Goto("l"))
		p.Label("l", Goto("l"))
	})
	t.Run("label without branches", func(t *testing.T) {
		defer expectPanic(t, "no branches")
		p := New("x", 1)
		p.Label("l")
	})
	t.Run("undeclared jump target", func(t *testing.T) {
		p := New("x", 1)
		p.Label("l", Goto("nowhere"))
		if err := p.Build(); err == nil || !strings.Contains(err.Error(), "undeclared") {
			t.Errorf("Build err = %v, want undeclared-label error", err)
		}
	})
	t.Run("owned var wrong size", func(t *testing.T) {
		p := New("x", 3)
		p.SharedArray("a", 2, 0)
		p.Own("a")
		p.Label("l", Goto("l"))
		if err := p.Build(); err == nil || !strings.Contains(err.Error(), "size N") {
			t.Errorf("Build err = %v, want size-N error", err)
		}
	})
	t.Run("owned var not shared", func(t *testing.T) {
		p := New("x", 1)
		p.Own("ghost")
		p.Label("l", Goto("l"))
		if err := p.Build(); err == nil || !strings.Contains(err.Error(), "not declared shared") {
			t.Errorf("Build err = %v, want not-declared error", err)
		}
	})
	t.Run("double build", func(t *testing.T) {
		p := New("x", 1)
		p.Label("l", Goto("l"))
		if err := p.Build(); err != nil {
			t.Fatal(err)
		}
		if err := p.Build(); err == nil {
			t.Error("second Build did not error")
		}
	})
	t.Run("no labels", func(t *testing.T) {
		if err := New("x", 1).Build(); err == nil {
			t.Error("Build with no labels did not error")
		}
	})
	// Guards and effects are compiled at Build, so a name the program does
	// not declare, or a constant index outside its array, is refused there
	// with the label and branch named, even on a label no run reaches.
	refusals := []struct {
		name, want string
		br         Branch
	}{
		{"unknown local in guard", `unknown local "ghost"`, Br(Eq(L("ghost"), C(0)), "l")},
		{"unknown shared in guard", `unknown shared variable "ghost"`, Br(Lt(ShI("ghost", L("x")), C(1)), "l")},
		{"unknown local in value", `unknown local "ghost"`, Goto("l", SetL("x", Add(L("ghost"), C(1))))},
		{"unknown shared in value", `unknown shared variable "ghost"`, Goto("l", SetSelf("a", MaxSh("ghost")))},
		{"unknown local in index", `unknown local "ghost"`, Goto("l", SetI("a", L("ghost"), C(1)))},
		{"unknown shared in index", `unknown shared variable "ghost"`, Goto("l", SetI("a", Sh("ghost"), C(1)))},
		{"unknown assignment target", `unknown shared variable "ghost"`, Goto("l", Set("ghost", C(1)))},
		{"constant read index past the array", `index 2 out of range for "a"`, Br(Eq(ShI("a", C(2)), C(0)), "l")},
		{"negative constant read index", `index -1 out of range for "a"`, Goto("l", SetL("x", ShI("a", C(-1))))},
		{"constant write index past the array", `index 2 out of range for "a"`, Goto("l", SetI("a", C(2), C(1)))},
	}
	for _, tc := range refusals {
		t.Run(tc.name, func(t *testing.T) {
			p := New("x", 2)
			p.SharedArray("a", 2, 0)
			p.LocalVar("x", 0)
			p.Label("l", Goto("l"))
			p.Label("unreachable", Goto("l"), tc.br)
			err := p.Build()
			if err == nil || !strings.Contains(err.Error(), `label "unreachable" branch 1`) ||
				!strings.Contains(err.Error(), tc.want) {
				t.Errorf("Build err = %v, want one naming label \"unreachable\" branch 1 and %s", err, tc.want)
			}
		})
	}
	// A computed index is only known at evaluation; out of range, it
	// panics there, naming the variable.
	t.Run("dynamic index out of range", func(t *testing.T) {
		p := New("x", 1)
		p.SharedArray("a", 2, 0)
		p.LocalVar("x", 5)
		p.Label("l", Br(Eq(ShI("a", L("x")), C(0)), "l"), Goto("l", SetI("a", Add(L("x"), C(0)), C(1))))
		p.MustBuild()
		s := p.InitState()
		func() {
			defer expectPanic(t, `index 5 out of range for "a"`)
			p.EnabledMask(s, 0, &SuccBuf{})
		}()
		func() {
			defer expectPanic(t, `index 5 out of range for "a"`)
			p.ApplyInto(make(State, len(s)), s, 0, 1, ModeUnbounded, &SuccBuf{})
		}()
	})
}

func expectPanic(t *testing.T, substr string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Errorf("expected panic containing %q", substr)
		return
	}
	if msg, ok := r.(string); ok && !strings.Contains(msg, substr) {
		t.Errorf("panic %q does not contain %q", msg, substr)
	}
}

func TestInitStateLayout(t *testing.T) {
	p := tinyProg()
	s := p.InitState()
	if got, want := p.StateLen(), 2+2*2; got != want { // cnt[2] + 2*(pc,t)
		t.Fatalf("StateLen = %d, want %d", got, want)
	}
	for pid := 0; pid < 2; pid++ {
		if p.PC(s, pid) != 0 {
			t.Errorf("initial pc of %d = %d, want 0", pid, p.PC(s, pid))
		}
		if p.PCLabel(s, pid) != "inc" {
			t.Errorf("initial label = %q, want inc", p.PCLabel(s, pid))
		}
		if p.Local(s, pid, "t") != 0 {
			t.Errorf("initial t = %d", p.Local(s, pid, "t"))
		}
	}
	if p.Shared(s, "cnt", 0) != 0 || p.Shared(s, "cnt", 1) != 0 {
		t.Error("shared array not zero-initialised")
	}
}

func TestInitialValuesRespected(t *testing.T) {
	p := New("iv", 2)
	p.SharedVar("color", 7)
	p.SharedArray("a", 3, 2)
	p.LocalVar("l", 5)
	p.Label("x", Goto("x"))
	p.MustBuild()
	s := p.InitState()
	if p.Shared(s, "color", 0) != 7 {
		t.Error("scalar init ignored")
	}
	for i := 0; i < 3; i++ {
		if p.Shared(s, "a", i) != 2 {
			t.Error("array init ignored")
		}
	}
	if p.Local(s, 1, "l") != 5 {
		t.Error("local init ignored")
	}
}

func TestKeyRoundTripDistinct(t *testing.T) {
	p := tinyProg()
	s1 := p.InitState()
	s2 := p.Clone(s1)
	if p.Key(s1) != p.Key(s2) {
		t.Error("identical states produced different keys")
	}
	p.SetShared(s2, "cnt", 1, 3)
	if p.Key(s1) == p.Key(s2) {
		t.Error("distinct states produced identical keys")
	}
	if len(p.Key(s1)) != 2*p.StateLen() {
		t.Errorf("key length = %d, want %d", len(p.Key(s1)), 2*p.StateLen())
	}
}

func TestKeyPanicsOutOfRange(t *testing.T) {
	p := tinyProg()
	s := p.InitState()
	p.SetShared(s, "cnt", 0, 70000)
	defer func() {
		if recover() == nil {
			t.Error("Key with >16-bit value did not panic")
		}
	}()
	p.Key(s)
}

func TestExprOps(t *testing.T) {
	p := tinyProg()
	s := p.InitState()
	p.SetShared(s, "cnt", 0, 4)
	p.SetShared(s, "cnt", 1, 9)
	p.SetLocal(s, 1, "t", 3)
	c := &Ctx{P: p, S: s, Pid: 1}

	cases := []struct {
		name string
		e    Expr
		want int32
	}{
		{"C", C(42), 42},
		{"Self", Self(), 1},
		{"L", L("t"), 3},
		{"ShI", ShI("cnt", C(0)), 4},
		{"ShSelf", ShSelf("cnt"), 9},
		{"MaxSh", MaxSh("cnt"), 9},
		{"Add", Add(C(2), C(3)), 5},
		{"Sub", Sub(C(7), C(3)), 4},
		{"Mod", Mod(C(9), C(4)), 1},
		{"Eq true", Eq(C(2), C(2)), 1},
		{"Eq false", Eq(C(2), C(3)), 0},
		{"Ne", Ne(C(2), C(3)), 1},
		{"Lt", Lt(C(2), C(3)), 1},
		{"Le", Le(C(3), C(3)), 1},
		{"Gt", Gt(C(4), C(3)), 1},
		{"Ge false", Ge(C(2), C(3)), 0},
		{"Not", Not(C(0)), 1},
		{"And", And(C(1), C(2)), 1},
		{"And false", And(C(1), C(0)), 0},
		{"Or", Or(C(0), C(5)), 1},
		{"Or false", Or(C(0), C(0)), 0},
		{"AndN", AndN(3, func(q int) Expr { return C(1) }), 1},
		{"AndN false", AndN(3, func(q int) Expr { return b2iE(q != 1) }), 0},
		{"OrN", OrN(3, func(q int) Expr { return b2iE(q == 2) }), 1},
		{"OrN false", OrN(3, func(q int) Expr { return C(0) }), 0},
	}
	for _, tc := range cases {
		if got := tc.e.Eval(c); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func b2iE(b bool) Expr {
	if b {
		return C(1)
	}
	return C(0)
}

func TestMax2(t *testing.T) {
	p := tinyProg()
	c := &Ctx{P: p, S: p.InitState(), Pid: 0}
	cases := []struct{ a, b, want int }{{1, 2, 2}, {5, 3, 5}, {4, 4, 4}, {0, 0, 0}}
	for _, tc := range cases {
		if got := Max2(C(tc.a), C(tc.b)).Eval(c); got != int32(tc.want) {
			t.Errorf("Max2(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMaxN(t *testing.T) {
	p := tinyProg()
	s := p.InitState()
	p.SetShared(s, "cnt", 0, 9)
	p.SetShared(s, "cnt", 1, 4)
	c := &Ctx{P: p, S: s, Pid: 0}
	// Max over all cells.
	all := MaxN(2, func(q int) (Expr, Expr) { return C(1), ShI("cnt", C(q)) })
	if got := all.Eval(c); got != 9 {
		t.Errorf("unconditional MaxN = %d, want 9", got)
	}
	// Max restricted to cell 1 only.
	only1 := MaxN(2, func(q int) (Expr, Expr) { return b2iE(q == 1), ShI("cnt", C(q)) })
	if got := only1.Eval(c); got != 4 {
		t.Errorf("restricted MaxN = %d, want 4", got)
	}
	// No condition holds: zero.
	none := MaxN(2, func(q int) (Expr, Expr) { return C(0), ShI("cnt", C(q)) })
	if got := none.Eval(c); got != 0 {
		t.Errorf("empty MaxN = %d, want 0", got)
	}
}

func TestModByZeroPanics(t *testing.T) {
	p := tinyProg()
	c := &Ctx{P: p, S: p.InitState(), Pid: 0}
	defer func() {
		if recover() == nil {
			t.Error("Mod by zero did not panic")
		}
	}()
	Mod(C(1), C(0)).Eval(c)
}

// LexLt must implement the paper's ordered-pair comparison: (a,b) < (c,d)
// iff a < c, or a = c and b < d. Property-checked against the definition.
func TestLexLtMatchesDefinition(t *testing.T) {
	p := tinyProg()
	c := &Ctx{P: p, S: p.InitState(), Pid: 0}
	f := func(a, b, cc, d uint8) bool {
		got := LexLt(C(int(a)), C(int(b)), C(int(cc)), C(int(d))).Eval(c) == 1
		want := a < cc || (a == cc && b < d)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// LexLt is a strict total order on distinct (value, pid) pairs — exactly why
// bakery tickets break ties by process id. Property: trichotomy.
func TestLexLtTrichotomy(t *testing.T) {
	p := tinyProg()
	c := &Ctx{P: p, S: p.InitState(), Pid: 0}
	f := func(a, b, cc, d uint8) bool {
		lt := LexLt(C(int(a)), C(int(b)), C(int(cc)), C(int(d))).Eval(c) == 1
		gt := LexLt(C(int(cc)), C(int(d)), C(int(a)), C(int(b))).Eval(c) == 1
		eq := a == cc && b == d
		n := 0
		for _, x := range []bool{lt, gt, eq} {
			if x {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStepAndGuards(t *testing.T) {
	p := tinyProg()
	s := p.InitState()

	var buf SuccBuf
	enabled := func(s State, pid int) bool { return p.EnabledMask(s, pid, &buf) != 0 }
	// Both processes are at "inc" and enabled.
	if !enabled(s, 0) || !enabled(s, 1) {
		t.Fatal("inc should be unguarded")
	}
	succs := p.AllSuccs(s, ModeUnbounded)
	if len(succs) != 2 {
		t.Fatalf("AllSuccs = %d successors, want 2", len(succs))
	}

	// After p0 increments, p0 waits: guard cnt[0]==cnt[1] is false, so p0
	// is blocked while p1 still moves.
	var after State
	for _, sc := range succs {
		if sc.Pid == 0 {
			after = sc.State
		}
	}
	if got := p.Shared(after, "cnt", 0); got != 1 {
		t.Errorf("cnt[0] = %d, want 1", got)
	}
	if got := p.Local(after, 0, "t"); got != 1 {
		t.Errorf("t = %d, want 1", got)
	}
	if p.PCLabel(after, 0) != "wait" {
		t.Errorf("p0 at %q, want wait", p.PCLabel(after, 0))
	}
	if enabled(after, 0) {
		t.Error("p0 should be blocked at wait (await semantics)")
	}
	if !enabled(after, 1) {
		t.Error("p1 should still be enabled")
	}
	// Pre-state must be untouched (apply copies).
	if got := p.Shared(s, "cnt", 0); got != 0 {
		t.Errorf("pre-state mutated: cnt[0] = %d", got)
	}
}

func TestSimultaneousAssignment(t *testing.T) {
	// swap: a, b = b, a in one action must use pre-state values.
	p := New("swap", 1)
	p.SharedVar("a", 1)
	p.SharedVar("b", 2)
	p.Label("s", Goto("s", Set("a", Sh("b")), Set("b", Sh("a"))))
	p.MustBuild()
	s := p.InitState()
	succs := p.AllSuccs(s, ModeUnbounded)
	if len(succs) != 1 {
		t.Fatal("want one successor")
	}
	next := succs[0].State
	if p.Shared(next, "a", 0) != 2 || p.Shared(next, "b", 0) != 1 {
		t.Errorf("swap produced a=%d b=%d, want a=2 b=1",
			p.Shared(next, "a", 0), p.Shared(next, "b", 0))
	}
}

func TestOverflowFlagUnboundedMode(t *testing.T) {
	p := New("ovf", 1)
	p.SetM(3)
	p.SharedVar("n", 3)
	p.Label("s", Goto("s", Set("n", Add(Sh("n"), C(1)))))
	p.MustBuild()
	succs := p.AllSuccs(p.InitState(), ModeUnbounded)
	if !succs[0].Overflow {
		t.Error("store of 4 with M=3 did not flag overflow")
	}
	if got := p.Shared(succs[0].State, "n", 0); got != 4 {
		t.Errorf("unbounded mode stored %d, want raw 4", got)
	}
}

func TestOverflowWrapMode(t *testing.T) {
	p := New("ovf", 1)
	p.SetM(3)
	p.SharedVar("n", 3)
	p.Label("s", Goto("s", Set("n", Add(Sh("n"), C(1)))))
	p.MustBuild()
	succs := p.AllSuccs(p.InitState(), ModeWrap)
	if !succs[0].Overflow {
		t.Error("wrap mode did not flag overflow")
	}
	if got := p.Shared(succs[0].State, "n", 0); got != 0 {
		t.Errorf("wrap mode stored %d, want 0 (4 mod 4)", got)
	}
}

func TestLocalStoresNotOverflowChecked(t *testing.T) {
	// Locals model loop indices (the paper's j); they are bounded by N by
	// construction and are not subject to M accounting.
	p := New("loc", 1)
	p.SetM(2)
	p.LocalVar("j", 0)
	p.Label("s", Goto("s", SetL("j", Add(L("j"), C(1)))))
	p.MustBuild()
	s := p.InitState()
	for i := 0; i < 5; i++ {
		succs := p.AllSuccs(s, ModeWrap)
		if succs[0].Overflow {
			t.Fatal("local store flagged overflow")
		}
		s = succs[0].State
	}
	if got := p.Local(s, 0, "j"); got != 5 {
		t.Errorf("j = %d, want 5", got)
	}
}

func TestNegativeStorePanics(t *testing.T) {
	p := New("neg", 1)
	p.SharedVar("n", 0)
	p.Label("s", Goto("s", Set("n", Sub(Sh("n"), C(1)))))
	p.MustBuild()
	defer func() {
		if recover() == nil {
			t.Error("negative store did not panic")
		}
	}()
	p.AllSuccs(p.InitState(), ModeUnbounded)
}

func TestCrashSucc(t *testing.T) {
	p := tinyProg()
	s := p.InitState()
	// Advance p0: inc then sit at wait with cnt[0]=1, t=1.
	s = p.AllSuccs(s, ModeUnbounded)[0].State
	if p.PCLabel(s, 0) != "wait" {
		t.Fatalf("setup: p0 at %q", p.PCLabel(s, 0))
	}
	crashed := p.CrashSucc(s, 0)
	if p.PC(crashed, 0) != 0 {
		t.Error("crash did not reset pc to first label")
	}
	if p.Local(crashed, 0, "t") != 0 {
		t.Error("crash did not reset local")
	}
	if p.Shared(crashed, "cnt", 0) != 0 {
		t.Error("crash did not reset owned shared cell")
	}
	// Other process's cell untouched.
	p.SetShared(s, "cnt", 1, 5)
	crashed = p.CrashSucc(s, 0)
	if p.Shared(crashed, "cnt", 1) != 5 {
		t.Error("crash reset another process's cell")
	}
}

func TestCountAtLabel(t *testing.T) {
	p := tinyProg()
	s := p.InitState()
	if got := p.CountAtLabel(s, "inc"); got != 2 {
		t.Errorf("CountAtLabel(inc) = %d, want 2", got)
	}
	p.SetPC(s, 0, p.LabelIndex("wait"))
	if got := p.CountAtLabel(s, "inc"); got != 1 {
		t.Errorf("CountAtLabel(inc) = %d, want 1", got)
	}
}

func TestFormatMentionsEverything(t *testing.T) {
	p := tinyProg()
	out := p.Format(p.InitState())
	for _, want := range []string{"cnt=", "p0@inc", "p1@inc", "t=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output %q missing %q", out, want)
		}
	}
}

func TestSharedNamesAndSizes(t *testing.T) {
	p := tinyProg()
	names := p.SharedNames()
	if len(names) != 1 || names[0] != "cnt" {
		t.Errorf("SharedNames = %v", names)
	}
	if p.SharedSize("cnt") != 2 {
		t.Errorf("SharedSize = %d", p.SharedSize("cnt"))
	}
}

func TestModeString(t *testing.T) {
	if ModeUnbounded.String() != "unbounded" || ModeWrap.String() != "wrap" {
		t.Error("mode names wrong")
	}
	if Mode(7).String() != "mode(7)" {
		t.Error("unknown mode name wrong")
	}
}

func TestDeadlockDetectionHelper(t *testing.T) {
	p := New("dead", 2)
	p.SharedVar("never", 0)
	p.Label("w", Br(Eq(Sh("never"), C(1)), "w"))
	p.MustBuild()
	var buf SuccBuf
	for pid := 0; pid < p.N; pid++ {
		if p.EnabledMask(p.InitState(), pid, &buf) != 0 {
			t.Errorf("fully blocked program reports p%d enabled", pid)
		}
	}
}

// TestBranchWidthChecked: Build refuses a label of more than MaxBranches
// branches with an error naming it, since EnabledMask and the model
// checker's ample-set check read enabled branches as one 64-bit mask; 64
// branches build.
func TestBranchWidthChecked(t *testing.T) {
	wide := func(branches int) *Prog {
		p := New("wide", 2)
		p.LocalVar("x", 0)
		brs := make([]Branch, branches)
		for i := range brs {
			// Only the last branch is ever enabled.
			brs[i] = Br(Eq(L("x"), C(branches-1-i)), "ncs")
		}
		p.Label("ncs", Goto("fan"))
		p.Label("fan", brs...)
		return p
	}
	p := wide(64)
	if err := p.Build(); err != nil {
		t.Fatalf("64 branches refused: %v", err)
	}
	atFan := p.Succs(p.InitState(), 0, ModeUnbounded, nil)[0].State
	if m := p.EnabledMask(atFan, 0, &SuccBuf{}); m != 1<<63 {
		t.Errorf("EnabledMask at fan = %b, want only bit 63 (the last branch)", m)
	}
	err := wide(65).Build()
	if err == nil || !strings.Contains(err.Error(), `label "fan"`) {
		t.Errorf("65 branches: error %v, want one naming label \"fan\"", err)
	}
}
