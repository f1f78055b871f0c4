package gcl_test

// The compiled guards and effects against a naive tree interpreter
// (naive_test.go) on every specification, and on a synthetic program that
// exercises every operator and every compiled form of a read.

import (
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// formsProg writes one shared or local cell per step at "w", then walks
// its process through labels whose guards cover every operator, each
// comparison with a constant and with a variable right operand, over each
// form of read Build compiles differently: a local, a shared scalar, a
// constant-index cell, the process's own cell, a local-indexed cell, a
// Self()-indexed cell and a computed value.
func formsProg(n int) *gcl.Prog {
	p := gcl.New("forms", n)
	p.SetM(3)
	p.SharedVar("s", 0)
	p.SharedArray("a", n, 0)
	p.LocalVar("x", 0)
	p.LocalVar("i", 0)
	x, i, s := gcl.L("x"), gcl.L("i"), gcl.Sh("s")

	var writes []gcl.Branch
	for v := 0; v <= 4; v++ { // 4 > M: overflow accounting
		writes = append(writes,
			gcl.Goto("g0", gcl.SetSelf("a", gcl.C(v))),
			gcl.Goto("g0", gcl.Set("s", gcl.C(v))),
			gcl.Goto("g0", gcl.SetL("x", gcl.C(v))),
			gcl.Goto("g0", gcl.SetI("a", i, gcl.C(v))),
		)
	}
	for q := 0; q < n; q++ {
		writes = append(writes, gcl.Goto("g0", gcl.SetL("i", gcl.C(q)), gcl.SetI("a", gcl.C(q), x)))
	}
	writes = append(writes,
		gcl.Goto("g0", gcl.SetI("a", gcl.Mod(gcl.Add(x, gcl.C(1)), gcl.C(n)), gcl.Sub(gcl.C(4), s))),
		gcl.Goto("g0", gcl.SetL("x", gcl.Mod(gcl.MaxSh("a"), gcl.C(5))), gcl.Set("s", gcl.ShI("a", i))),
	)
	p.Label("w", writes...)

	lefts := []gcl.Expr{
		x, s, gcl.ShI("a", gcl.C(n-1)), gcl.ShSelf("a"), gcl.ShI("a", i),
		gcl.ShI("a", gcl.Self()), gcl.Add(x, gcl.C(1)), gcl.Add(gcl.C(1), s), gcl.Self(),
	}
	cmps := []func(a, b gcl.Expr) gcl.Expr{gcl.Eq, gcl.Ne, gcl.Lt, gcl.Le, gcl.Gt, gcl.Ge}
	var guards []gcl.Expr
	for _, l := range lefts {
		for _, cmp := range cmps {
			guards = append(guards, cmp(l, gcl.C(2)), cmp(l, i))
		}
	}
	guards = append(guards,
		gcl.And(gcl.Lt(x, gcl.C(2)), gcl.Eq(s, gcl.C(1))),
		gcl.And(gcl.Ge(x, gcl.C(1)), gcl.Ge(s, gcl.C(1)), gcl.Ne(gcl.ShSelf("a"), gcl.C(0))),
		gcl.Or(gcl.Eq(x, gcl.C(3)), gcl.Gt(gcl.ShI("a", i), x)),
		gcl.Or(gcl.Eq(x, gcl.C(0)), gcl.Eq(s, gcl.C(4)), gcl.Lt(gcl.ShSelf("a"), i)),
		gcl.And(), gcl.Or(),
		gcl.Not(gcl.Eq(gcl.ShI("a", i), gcl.C(0))),
		gcl.LexLt(gcl.ShSelf("a"), gcl.Self(), gcl.ShI("a", i), i),
		gcl.Gt(gcl.Max2(x, s), gcl.C(2)),
		gcl.Eq(gcl.MaxN(n, func(q int) (gcl.Expr, gcl.Expr) {
			return gcl.Ne(gcl.ShI("a", gcl.C(q)), x), gcl.ShI("a", gcl.C(q))
		}), gcl.C(3)),
		gcl.Ge(gcl.MaxSh("a"), x),
		gcl.Lt(gcl.Sub(x, s), gcl.C(0)),
		gcl.Eq(gcl.Mod(gcl.Add(x, s), gcl.C(3)), gcl.C(1)),
		gcl.Add(x, s),
		gcl.AndN(n, func(q int) gcl.Expr { return gcl.Lt(gcl.ShI("a", gcl.C(q)), gcl.C(3)) }),
		gcl.OrN(n, func(q int) gcl.Expr { return gcl.Eq(gcl.ShI("a", gcl.C(q)), gcl.Add(gcl.Self(), gcl.C(1))) }),
	)
	const perLabel = 40
	for k := 0; k*perLabel < len(guards); k++ {
		next := fmt.Sprintf("g%d", k+1)
		if (k+1)*perLabel >= len(guards) {
			next = "w"
		}
		var brs []gcl.Branch
		for _, g := range guards[k*perLabel : min((k+1)*perLabel, len(guards))] {
			brs = append(brs, gcl.Br(g, next))
		}
		p.Label(fmt.Sprintf("g%d", k), append(brs, gcl.Goto(next))...)
	}
	return p.MustBuild()
}

// TestCompiledExprMatchesNaive: on the first 5k breadth-first states of
// every specification (the bakerypp ablations and the split-register
// variant included) and of formsProg at N=2..4, EnabledMask
// must agree with the interpreted guard of every branch, and ApplyInto
// must produce the interpreted successor and overflow flag of every
// enabled branch in both store modes.
func TestCompiledExprMatchesNaive(t *testing.T) {
	cells := []struct {
		name string
		mk   func(n int) *gcl.Prog
	}{
		{"bakery", func(n int) *gcl.Prog { return specs.Bakery(specs.Config{N: n, M: 3}) }},
		{"bakery-fine", func(n int) *gcl.Prog { return specs.Bakery(specs.Config{N: n, M: 3, Fine: true}) }},
		{"bakerypp", func(n int) *gcl.Prog { return specs.BakeryPP(specs.Config{N: n, M: 3}) }},
		{"bakerypp-fine", func(n int) *gcl.Prog { return specs.BakeryPP(specs.Config{N: n, M: 3, Fine: true}) }},
		{"bakerypp-splitreset", func(n int) *gcl.Prog { return specs.BakeryPP(specs.Config{N: n, M: 3, SplitReset: true}) }},
		{"bakerypp-eqcheck", func(n int) *gcl.Prog { return specs.BakeryPP(specs.Config{N: n, M: 3, EqCheck: true}) }},
		{"bakerypp-nogate", func(n int) *gcl.Prog { return specs.BakeryPP(specs.Config{N: n, M: 3, NoGate: true}) }},
		{"bakerypp-safe", func(n int) *gcl.Prog { return specs.BakeryPPSafe(n, 3) }},
		{"blackwhite", specs.BlackWhite},
		{"peterson", specs.Peterson},
		{"szymanski", specs.Szymanski},
		{"modbakery", func(n int) *gcl.Prog { return specs.ModBakery(n, 3) }},
		{"forms", formsProg},
	}
	for _, c := range cells {
		for n := 2; n <= 4; n++ {
			t.Run(fmt.Sprintf("%s-n%d", c.name, n), func(t *testing.T) {
				p := c.mk(n)
				var buf gcl.SuccBuf
				dst := make(gcl.State, p.StateLen())
				guards, applied := 0, 0
				for _, s := range bfsStates(p, 5000) {
					for pid := 0; pid < n; pid++ {
						li := p.PC(s, pid)
						mask := p.EnabledMask(s, pid, &buf)
						for bi := 0; bi < p.NumBranchesAt(li); bi++ {
							guards++
							want := gcl.NaiveGuard(p, s, pid, bi)
							if got := mask>>uint(bi)&1 == 1; got != want {
								t.Fatalf("p%d %s/%d in %s: compiled guard %t, interpreted %t",
									pid, p.LabelName(li), bi, p.Format(s), got, want)
							}
							if !want {
								continue
							}
							applied++
							for _, mode := range []gcl.Mode{gcl.ModeUnbounded, gcl.ModeWrap} {
								ov := p.ApplyInto(dst, s, pid, bi, mode, &buf)
								next, wantOv := gcl.NaiveSucc(p, s, pid, bi, mode)
								if !dst.Equal(next) || ov != wantOv {
									t.Fatalf("p%d %s/%d (%s) from %s:\ncompiled    %s overflow=%t\ninterpreted %s overflow=%t",
										pid, p.LabelName(li), bi, mode, p.Format(s), p.Format(dst), ov, p.Format(next), wantOv)
								}
							}
						}
					}
				}
				t.Logf("%d guard evaluations, %d effects applied", guards, applied)
			})
		}
	}
}
