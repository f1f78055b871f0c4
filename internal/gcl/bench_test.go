package gcl

import "testing"

func benchProg(n int) *Prog {
	p := New("bench", n)
	p.SetM(7)
	p.SharedArray("number", n, 0)
	p.Own("number")
	p.LocalVar("j", 0)
	p.Label("a", Goto("b",
		SetSelf("number", Add(MaxSh("number"), C(1))),
		SetL("j", C(0))))
	p.Label("b", Br(Lt(L("j"), C(n)), "c"), Br(Ge(L("j"), C(n)), "d"))
	p.Label("c", Goto("b", SetL("j", Add(L("j"), C(1)))))
	p.Label("d", Goto("a", SetSelf("number", C(0))))
	return p.MustBuild()
}

func BenchmarkAllSuccs(b *testing.B) {
	p := benchProg(4)
	s := p.InitState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		succs := p.AllSuccs(s, ModeUnbounded)
		s = succs[i%len(succs)].State
		if p.Shared(s, "number", 0) > 6 {
			s = p.InitState()
		}
	}
}

func BenchmarkKey(b *testing.B) {
	p := benchProg(8)
	s := p.InitState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Key(s)
	}
}

func BenchmarkCrashSucc(b *testing.B) {
	p := benchProg(4)
	s := p.InitState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.CrashSucc(s, i%4)
	}
}

// BenchmarkGuardEval times one compiled guard, the Bakery++ gate "every
// number[q] < 7", through EnabledMask: the guard compiled by Build, not
// Expr.Eval (which compiles its expression on every call).
func BenchmarkGuardEval(b *testing.B) {
	p := New("guard", 4)
	p.SharedArray("number", 4, 0)
	p.Label("g", Br(AndN(4, func(q int) Expr {
		return Lt(ShI("number", C(q)), C(7))
	}), "g"))
	p.MustBuild()
	s := p.InitState()
	var buf SuccBuf
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.EnabledMask(s, 0, &buf) != 1 {
			b.Fatal("gate closed on the initial state")
		}
	}
}
