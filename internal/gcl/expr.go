package gcl

import "fmt"

// Ctx is the evaluation context of an expression: a program, a state, the
// id of the process executing the action, and the word offset of that
// process's block (its pc; locals sit at Base+offset).
type Ctx struct {
	P    *Prog
	S    State
	Pid  int
	Base int
}

// op is the operator of an expression node.
type op uint8

const (
	opConst op = iota
	opSelf
	opLocal      // L(name)
	opShared     // Sh(name)
	opSharedI    // ShI(name, a)
	opSharedSelf // ShSelf(name)
	opMaxSh      // MaxSh(name)
	opMax2
	opMaxN // xs holds the conditions, then the values
	opAdd
	opSub
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opNot
	opAnd
	opOr
	opLexLt // xs holds a1, b1, a2, b2
)

// node is one immutable expression node: an operator, the variable it
// names, a constant, and its operands (a and b for unary and binary
// operators, xs for the n-ary ones).
type node struct {
	op   op
	name string
	k    int32
	a, b Expr
	xs   []Expr
}

// Expr is an expression over a program's variables: a small immutable tree
// that Build compiles, once, into closures bound to the program's layout
// (see compiler below), deriving its shared-read footprint in the same
// walk.
// Booleans are represented as 0 (false) and 1 (true), C-style. The zero
// value is "no expression" (an absent guard or index).
type Expr struct{ n *node }

// Eval evaluates the expression in c. It compiles e against c.P on every
// call (c.Base is recomputed from c.Pid), so it suits tests and one-off
// evaluations; a built program evaluates its guards and effects through
// the closures Build compiled. Eval panics if e names a variable c.P does
// not declare.
func (e Expr) Eval(c *Ctx) int32 {
	cp := compiler{p: c.P}
	f := cp.compile(e)
	if cp.err != nil {
		panic(fmt.Sprintf("gcl: %s: %v", c.P.Name, cp.err))
	}
	cc := *c
	cc.Base = c.P.blockBase(c.Pid)
	return f(&cc)
}

// defined reports whether the expression was constructed (vs the zero
// value used for "no guard" / "no index").
func (e Expr) defined() bool { return e.n != nil }

func mk(o op, a, b Expr) Expr { return Expr{&node{op: o, a: a, b: b}} }

// C returns a constant expression.
func C(v int) Expr { return Expr{&node{op: opConst, k: int32(v)}} }

// Self returns the executing process id.
func Self() Expr { return Expr{&node{op: opSelf}} }

// L reads the executing process's local variable. Locals live in the
// process's private block, so they never enter shared footprints.
func L(name string) Expr { return Expr{&node{op: opLocal, name: name}} }

// Sh reads a shared scalar.
func Sh(name string) Expr { return Expr{&node{op: opShared, name: name}} }

// ShI reads a shared array cell at a computed index.
func ShI(name string, idx Expr) Expr { return Expr{&node{op: opSharedI, name: name, a: idx}} }

// ShSelf reads the executing process's own cell of a shared array; it is
// ShI(name, Self()) compiled to one word read.
func ShSelf(name string) Expr { return Expr{&node{op: opSharedSelf, name: name}} }

// MaxSh returns the maximum over all cells of a shared array, the paper's
// "maximum (number[1], ..., number[N])" read as one atomic action (the
// coarse-grained doorway; internal/specs also provides a fine-grained
// variant that reads one cell per step).
func MaxSh(name string) Expr { return Expr{&node{op: opMaxSh, name: name}} }

// Max2 returns the larger of a and b.
func Max2(a, b Expr) Expr { return mk(opMax2, a, b) }

// MaxN returns the maximum of val(q) over all q in 0..n-1 with cond(q) true,
// or 0 if no condition holds. It expresses the Black-White Bakery's
// colour-restricted maximum "max{number[j] : colour of j equals mine}".
func MaxN(n int, f func(q int) (cond, val Expr)) Expr {
	xs := make([]Expr, 2*n)
	for q := 0; q < n; q++ {
		xs[q], xs[n+q] = f(q)
	}
	return Expr{&node{op: opMaxN, xs: xs}}
}

// Add returns a+b.
func Add(a, b Expr) Expr { return mk(opAdd, a, b) }

// Sub returns a-b.
func Sub(a, b Expr) Expr { return mk(opSub, a, b) }

// Mod returns a mod b (b must evaluate nonzero).
func Mod(a, b Expr) Expr { return mk(opMod, a, b) }

// Eq returns a == b.
func Eq(a, b Expr) Expr { return mk(opEq, a, b) }

// Ne returns a != b.
func Ne(a, b Expr) Expr { return mk(opNe, a, b) }

// Lt returns a < b.
func Lt(a, b Expr) Expr { return mk(opLt, a, b) }

// Le returns a <= b.
func Le(a, b Expr) Expr { return mk(opLe, a, b) }

// Gt returns a > b.
func Gt(a, b Expr) Expr { return mk(opGt, a, b) }

// Ge returns a >= b.
func Ge(a, b Expr) Expr { return mk(opGe, a, b) }

// Not returns the boolean negation of a.
func Not(a Expr) Expr { return mk(opNot, a, Expr{}) }

// And returns the conjunction of its operands, short-circuiting.
func And(xs ...Expr) Expr { return Expr{&node{op: opAnd, xs: xs}} }

// Or returns the disjunction of its operands, short-circuiting.
func Or(xs ...Expr) Expr { return Expr{&node{op: opOr, xs: xs}} }

// AndN builds a universal quantification over 0..n-1: the conjunction of
// f(0), ..., f(n-1).
func AndN(n int, f func(q int) Expr) Expr {
	xs := make([]Expr, n)
	for q := 0; q < n; q++ {
		xs[q] = f(q)
	}
	return And(xs...)
}

// OrN builds an existential quantification over 0..n-1.
func OrN(n int, f func(q int) Expr) Expr {
	xs := make([]Expr, n)
	for q := 0; q < n; q++ {
		xs[q] = f(q)
	}
	return Or(xs...)
}

// LexLt returns the paper's ordered-pair comparison: (a1, b1) < (a2, b2)
// iff a1 < a2, or a1 = a2 and b1 < b2 (Algorithm 1's "<" on tickets).
func LexLt(a1, b1, a2, b2 Expr) Expr {
	return Expr{&node{op: opLexLt, xs: []Expr{a1, b1, a2, b2}}}
}

// Assign is one variable update within an action's effect. All right-hand
// sides of an effect are evaluated against the pre-state, then applied
// simultaneously (TLA+ priming semantics).
type Assign struct {
	Name  string
	Idx   Expr // zero Expr for shared scalars; unused for locals
	Val   Expr
	Local bool
}

// Set assigns a shared scalar.
func Set(name string, val Expr) Assign { return Assign{Name: name, Val: val} }

// SetI assigns a shared array cell at a computed index.
func SetI(name string, idx, val Expr) Assign { return Assign{Name: name, Idx: idx, Val: val} }

// SetSelf assigns the executing process's own cell of a shared array.
func SetSelf(name string, val Expr) Assign { return Assign{Name: name, Idx: Self(), Val: val} }

// SetL assigns a local variable of the executing process.
func SetL(name string, val Expr) Assign { return Assign{Name: name, Val: val, Local: true} }

// Branch is one guarded alternative of a labelled action: when Guard holds
// (the zero Expr means always), the Effect assignments are applied and
// control moves to Next. A label with several branches whose guards overlap
// is nondeterministic; a label none of whose guards hold is blocked (an
// await).
type Branch struct {
	Guard Expr
	Eff   []Assign
	Next  string
	// Tag annotates the branch for statistics ("reset", "cs-enter", ...);
	// it has no semantic effect.
	Tag string
}

// Br returns a guarded branch.
func Br(guard Expr, next string, eff ...Assign) Branch {
	return Branch{Guard: guard, Eff: eff, Next: next}
}

// Goto returns an unguarded branch.
func Goto(next string, eff ...Assign) Branch {
	return Branch{Eff: eff, Next: next}
}

// WithTag returns a copy of the branch carrying a statistics tag.
func (b Branch) WithTag(tag string) Branch {
	b.Tag = tag
	return b
}

// String renders the branch target and shape for listings and debugging.
func (b Branch) String() string {
	return fmt.Sprintf("-> %s (%d assigns, tag=%q)", b.Next, len(b.Eff), b.Tag)
}

// evalFn is a compiled expression. It reads the state through c.S, the
// executing process's block at c.Base and its id c.Pid; every variable
// offset it needs was resolved when it was compiled.
type evalFn func(c *Ctx) int32

// compiler is one Build-time walk over expression trees. It resolves every
// variable name to a word offset, records the shared cells the walked
// expressions may read (their footprint, see footprint.go), and emits one
// closure per node that captures its offsets. The first name it cannot
// resolve, or constant index outside its array, is kept in err; the
// closures emitted alongside are then never run.
type compiler struct {
	p     *Prog
	reads cellMap
	err   error
}

func (cp *compiler) fail(format string, args ...any) {
	if cp.err == nil {
		cp.err = fmt.Errorf(format, args...)
	}
}

// local resolves a local variable to its offset within a process block.
func (cp *compiler) local(name string) int {
	info, ok := cp.p.localInfo[name]
	if !ok {
		cp.fail("unknown local %q", name)
	}
	return info.off
}

// shared resolves a shared variable and records that the walked
// expression may read the given cells of it.
func (cp *compiler) shared(name string, cells *Cells) varInfo {
	info, ok := cp.p.sharedInfo[name]
	if !ok {
		cp.fail("unknown shared variable %q", name)
	}
	cp.reads = cp.reads.add(name, cells)
	return info
}

// is reports whether e is a node of operator o.
func (e Expr) is(o op) bool { return e.n != nil && e.n.op == o }

// constant returns the value of a constant expression.
func (e Expr) constant() (int32, bool) {
	if !e.is(opConst) {
		return 0, false
	}
	return e.n.k, true
}

// direct resolves an expression that reads one fixed word: a local (at
// Base+off, local true) or a shared scalar or constant-index array cell
// (at off). ok is false, and nothing is resolved, for every other form.
func (cp *compiler) direct(e Expr) (off int, local, ok bool) {
	if e.n == nil {
		return 0, false, false
	}
	switch n := e.n; n.op {
	case opLocal:
		return cp.local(n.name), true, true
	case opShared:
		return cp.shared(n.name, &Cells{Idx: []int{0}}).off, false, true
	case opSharedI:
		k, isConst := n.a.constant()
		if !isConst {
			return 0, false, false
		}
		info := cp.shared(n.name, &Cells{Idx: []int{int(k)}})
		if k < 0 || int(k) >= info.size {
			cp.fail("index %d out of range for %q", k, n.name)
		}
		return info.off + int(k), false, true
	}
	return 0, false, false
}

// compile emits the closure of e.
func (cp *compiler) compile(e Expr) evalFn {
	if e.n == nil {
		cp.fail("missing expression")
		return nil
	}
	if off, local, ok := cp.direct(e); ok {
		if local {
			return func(c *Ctx) int32 { return c.S[c.Base+off] }
		}
		return func(c *Ctx) int32 { return c.S[off] }
	}
	n := e.n
	switch n.op {
	case opConst:
		k := n.k
		return func(*Ctx) int32 { return k }
	case opSelf:
		return func(c *Ctx) int32 { return int32(c.Pid) }
	case opSharedI:
		return cp.sharedIdx(n)
	case opSharedSelf:
		p, name := cp.p, n.name
		info := cp.shared(name, &Cells{Self: true})
		off, size := info.off, info.size
		return func(c *Ctx) int32 {
			if c.Pid >= size {
				p.indexPanic(c.Pid, name)
			}
			return c.S[off+c.Pid]
		}
	case opMaxSh:
		info := cp.shared(n.name, &Cells{All: true})
		lo, hi := info.off, info.off+info.size
		return func(c *Ctx) int32 {
			max := int32(0)
			for _, v := range c.S[lo:hi] {
				if v > max {
					max = v
				}
			}
			return max
		}
	case opMax2:
		a, b := cp.compile(n.a), cp.compile(n.b)
		return func(c *Ctx) int32 {
			x, y := a(c), b(c)
			if x > y {
				return x
			}
			return y
		}
	case opMaxN:
		fs := cp.compileAll(n.xs)
		conds, vals := fs[:len(fs)/2], fs[len(fs)/2:]
		return func(c *Ctx) int32 {
			max := int32(0)
			for q, cond := range conds {
				if cond(c) != 0 {
					if v := vals[q](c); v > max {
						max = v
					}
				}
			}
			return max
		}
	case opAdd:
		if k, ok := n.b.constant(); ok {
			a := cp.compile(n.a)
			return func(c *Ctx) int32 { return a(c) + k }
		}
		a, b := cp.compile(n.a), cp.compile(n.b)
		return func(c *Ctx) int32 { return a(c) + b(c) }
	case opSub:
		a, b := cp.compile(n.a), cp.compile(n.b)
		return func(c *Ctx) int32 { return a(c) - b(c) }
	case opMod:
		a, b := cp.compile(n.a), cp.compile(n.b)
		return func(c *Ctx) int32 {
			d := b(c)
			if d == 0 {
				panic("gcl: modulo by zero")
			}
			return a(c) % d
		}
	case opEq, opNe, opLt, opLe, opGt, opGe:
		return cp.compare(n)
	case opNot:
		a := cp.compile(n.a)
		return func(c *Ctx) int32 { return b2i(a(c) == 0) }
	case opAnd:
		fs := cp.compileAll(n.xs)
		if len(fs) == 2 {
			a, b := fs[0], fs[1]
			return func(c *Ctx) int32 {
				if a(c) == 0 {
					return 0
				}
				return b2i(b(c) != 0)
			}
		}
		return func(c *Ctx) int32 {
			for _, f := range fs {
				if f(c) == 0 {
					return 0
				}
			}
			return 1
		}
	case opOr:
		fs := cp.compileAll(n.xs)
		if len(fs) == 2 {
			a, b := fs[0], fs[1]
			return func(c *Ctx) int32 {
				if a(c) != 0 {
					return 1
				}
				return b2i(b(c) != 0)
			}
		}
		return func(c *Ctx) int32 {
			for _, f := range fs {
				if f(c) != 0 {
					return 1
				}
			}
			return 0
		}
	case opLexLt:
		fs := cp.compileAll(n.xs)
		a1, b1, a2, b2 := fs[0], fs[1], fs[2], fs[3]
		return func(c *Ctx) int32 {
			x1, x2 := a1(c), a2(c)
			if x1 != x2 {
				return b2i(x1 < x2)
			}
			return b2i(b1(c) < b2(c))
		}
	}
	panic(fmt.Sprintf("gcl: unknown expression operator %d", n.op))
}

// compileAll compiles the operands in order.
func (cp *compiler) compileAll(xs []Expr) []evalFn {
	fs := make([]evalFn, len(xs))
	for i, x := range xs {
		fs[i] = cp.compile(x)
	}
	return fs
}

// sharedIdx compiles ShI(name, idx) for an index that is not a constant
// (constant indices are direct reads). A local index, the trial loop's
// number[j], is read in the same closure as the cell it selects.
func (cp *compiler) sharedIdx(n *node) evalFn {
	p, name := cp.p, n.name
	if n.a.is(opLocal) {
		loff := cp.local(n.a.n.name)
		info := cp.shared(name, n.a.indexCells())
		off, size := info.off, info.size
		return func(c *Ctx) int32 {
			i := int(c.S[c.Base+loff])
			if i < 0 || i >= size {
				p.indexPanic(i, name)
			}
			return c.S[off+i]
		}
	}
	idx := cp.compile(n.a)
	info := cp.shared(name, n.a.indexCells())
	off, size := info.off, info.size
	return func(c *Ctx) int32 {
		i := int(idx(c))
		if i < 0 || i >= size {
			p.indexPanic(i, name)
		}
		return c.S[off+i]
	}
}

// compare compiles a comparison. A constant right operand is captured in
// the closure, and a direct-read left operand is read in it too.
func (cp *compiler) compare(n *node) evalFn {
	k, isConst := n.b.constant()
	if !isConst {
		a, b := cp.compile(n.a), cp.compile(n.b)
		switch n.op {
		case opEq:
			return func(c *Ctx) int32 { return b2i(a(c) == b(c)) }
		case opNe:
			return func(c *Ctx) int32 { return b2i(a(c) != b(c)) }
		case opLt:
			return func(c *Ctx) int32 { return b2i(a(c) < b(c)) }
		case opLe:
			return func(c *Ctx) int32 { return b2i(a(c) <= b(c)) }
		case opGt:
			return func(c *Ctx) int32 { return b2i(a(c) > b(c)) }
		default:
			return func(c *Ctx) int32 { return b2i(a(c) >= b(c)) }
		}
	}
	off, local, ok := cp.direct(n.a)
	switch {
	case ok && local:
		switch n.op {
		case opEq:
			return func(c *Ctx) int32 { return b2i(c.S[c.Base+off] == k) }
		case opNe:
			return func(c *Ctx) int32 { return b2i(c.S[c.Base+off] != k) }
		case opLt:
			return func(c *Ctx) int32 { return b2i(c.S[c.Base+off] < k) }
		case opLe:
			return func(c *Ctx) int32 { return b2i(c.S[c.Base+off] <= k) }
		case opGt:
			return func(c *Ctx) int32 { return b2i(c.S[c.Base+off] > k) }
		default:
			return func(c *Ctx) int32 { return b2i(c.S[c.Base+off] >= k) }
		}
	case ok:
		switch n.op {
		case opEq:
			return func(c *Ctx) int32 { return b2i(c.S[off] == k) }
		case opNe:
			return func(c *Ctx) int32 { return b2i(c.S[off] != k) }
		case opLt:
			return func(c *Ctx) int32 { return b2i(c.S[off] < k) }
		case opLe:
			return func(c *Ctx) int32 { return b2i(c.S[off] <= k) }
		case opGt:
			return func(c *Ctx) int32 { return b2i(c.S[off] > k) }
		default:
			return func(c *Ctx) int32 { return b2i(c.S[off] >= k) }
		}
	}
	a := cp.compile(n.a)
	switch n.op {
	case opEq:
		return func(c *Ctx) int32 { return b2i(a(c) == k) }
	case opNe:
		return func(c *Ctx) int32 { return b2i(a(c) != k) }
	case opLt:
		return func(c *Ctx) int32 { return b2i(a(c) < k) }
	case opLe:
		return func(c *Ctx) int32 { return b2i(a(c) <= k) }
	case opGt:
		return func(c *Ctx) int32 { return b2i(a(c) > k) }
	default:
		return func(c *Ctx) int32 { return b2i(a(c) >= k) }
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// indexPanic reports a computed array index outside its variable, the one
// failure a built program can still meet at evaluation.
func (p *Prog) indexPanic(i int, name string) {
	panic(fmt.Sprintf("gcl: %s: index %d out of range for %q", p.Name, i, name))
}
