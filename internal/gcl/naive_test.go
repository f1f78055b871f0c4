package gcl

// A deliberately naive interpreter of the expression tree, the oracle the
// compiled closures are checked against (compile_test.go): every name is
// resolved through Prog.Local and Prog.Shared on every read, every node is
// evaluated by one recursive switch, and nothing is specialised.

// naiveEval evaluates e for process pid in state s.
func naiveEval(p *Prog, s State, pid int, e Expr) int32 {
	ev := func(x Expr) int32 { return naiveEval(p, s, pid, x) }
	truth := func(b bool) int32 {
		if b {
			return 1
		}
		return 0
	}
	n := e.n
	switch n.op {
	case opConst:
		return n.k
	case opSelf:
		return int32(pid)
	case opLocal:
		return p.Local(s, pid, n.name)
	case opShared:
		return p.Shared(s, n.name, 0)
	case opSharedI:
		return p.Shared(s, n.name, int(ev(n.a)))
	case opSharedSelf:
		return p.Shared(s, n.name, pid)
	case opMaxSh:
		max := int32(0)
		for i := 0; i < p.SharedSize(n.name); i++ {
			if v := p.Shared(s, n.name, i); v > max {
				max = v
			}
		}
		return max
	case opMax2:
		x, y := ev(n.a), ev(n.b)
		if x > y {
			return x
		}
		return y
	case opMaxN:
		half := len(n.xs) / 2
		max := int32(0)
		for q := 0; q < half; q++ {
			if ev(n.xs[q]) != 0 && ev(n.xs[half+q]) > max {
				max = ev(n.xs[half+q])
			}
		}
		return max
	case opAdd:
		return ev(n.a) + ev(n.b)
	case opSub:
		return ev(n.a) - ev(n.b)
	case opMod:
		return ev(n.a) % ev(n.b)
	case opEq:
		return truth(ev(n.a) == ev(n.b))
	case opNe:
		return truth(ev(n.a) != ev(n.b))
	case opLt:
		return truth(ev(n.a) < ev(n.b))
	case opLe:
		return truth(ev(n.a) <= ev(n.b))
	case opGt:
		return truth(ev(n.a) > ev(n.b))
	case opGe:
		return truth(ev(n.a) >= ev(n.b))
	case opNot:
		return truth(ev(n.a) == 0)
	case opAnd:
		for _, x := range n.xs {
			if ev(x) == 0 {
				return 0
			}
		}
		return 1
	case opOr:
		for _, x := range n.xs {
			if ev(x) != 0 {
				return 1
			}
		}
		return 0
	case opLexLt:
		a1, b1, a2, b2 := ev(n.xs[0]), ev(n.xs[1]), ev(n.xs[2]), ev(n.xs[3])
		return truth(a1 < a2 || (a1 == a2 && b1 < b2))
	}
	panic("naiveEval: unknown operator")
}

// NaiveGuard interprets the guard of branch bi at process pid's label.
func NaiveGuard(p *Prog, s State, pid, bi int) bool {
	b := p.branches[p.PC(s, pid)][bi]
	return !b.Guard.defined() || naiveEval(p, s, pid, b.Guard) != 0
}

// NaiveSucc interprets the effect of branch bi at process pid's label
// against s: every right-hand side and index is evaluated in the
// pre-state, then written through SetLocal/SetShared, with the overflow
// accounting of mode.
func NaiveSucc(p *Prog, s State, pid, bi int, mode Mode) (State, bool) {
	b := p.branches[p.PC(s, pid)][bi]
	next := p.Clone(s)
	overflow := false
	for _, a := range b.Eff {
		v := naiveEval(p, s, pid, a.Val)
		if a.Local {
			p.SetLocal(next, pid, a.Name, v)
			continue
		}
		idx := 0
		if a.Idx.defined() {
			idx = int(naiveEval(p, s, pid, a.Idx))
		}
		if p.M > 0 && int64(v) > p.M {
			overflow = true
			if mode == ModeWrap {
				v = int32(int64(v) % (p.M + 1))
			}
		}
		p.SetShared(next, a.Name, idx, v)
	}
	p.SetPC(next, pid, p.LabelIndex(b.Next))
	return next, overflow
}
