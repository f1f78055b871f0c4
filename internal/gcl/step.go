package gcl

import "fmt"

// Mode selects how shared stores interact with the register capacity M.
type Mode uint8

const (
	// ModeUnbounded stores values verbatim, flagging (but not altering)
	// stores above M. This is the model-checking mode: the paper's
	// no-overflow invariant is "no reachable state holds a value > M".
	ModeUnbounded Mode = iota
	// ModeWrap stores v mod (M+1) like a real b-bit register, flagging the
	// overflow. This is the simulation mode under which classic Bakery
	// malfunctions (paper Section 3).
	ModeWrap
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeUnbounded:
		return "unbounded"
	case ModeWrap:
		return "wrap"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Succ is one successor of a state: the action of process Pid taking branch
// Branch of its current label. The label is carried as an index into the
// program's label table (LabelIdx) so the successor hot loop moves no
// strings; render it with Label, and the branch's tag with Tag. The fields
// are ordered so a record packs into 48 bytes.
type Succ struct {
	State State
	Pid   int
	// Branch is the index of the branch taken within the label.
	Branch int
	// LabelIdx is the index of the label the action executed at (the
	// pre-state pc); resolve it with Label or Prog.LabelName. Negative for
	// crash successors, which take no branch.
	LabelIdx int32
	// Overflow reports that some assignment in the effect attempted to
	// store a value greater than M into a shared variable.
	Overflow bool
}

// Label returns the name of the label the action executed at.
func (sc Succ) Label(p *Prog) string { return p.labels[sc.LabelIdx] }

// Tag returns the statistics tag of the branch taken ("" when the branch is
// untagged, and for crash successors).
func (sc Succ) Tag(p *Prog) string {
	if sc.LabelIdx < 0 {
		return ""
	}
	return p.BranchTag(int(sc.LabelIdx), sc.Branch)
}

// resEff is the Build-time resolution of one Assign: the variable name is
// replaced by the word (or word recipe) it writes, and the value and index
// expressions by their compiled closures, so apply performs no map lookups
// and no bounds arithmetic beyond what the index form requires.
type resEff struct {
	val  evalFn
	idx  evalFn // effSharedDyn only: the runtime index expression
	kind uint8
	off  int // effLocal: offset within the block; effSharedWord: absolute word; effSharedSelf/Dyn: array base
	size int // shared forms: declared size, for the dynamic bounds check
	name string
}

const (
	effLocal      uint8 = iota // dst[block+off] = v
	effSharedWord              // dst[off] = v (scalar, or constant index folded at Build)
	effSharedSelf              // dst[off+pid] = v
	effSharedDyn               // dst[off+eval(idx)] = v, bounds-checked
)

// compileBranches walks every branch once, after the layout exists: it
// compiles the guard into guards, the effect list into reff and the jump
// target into nextPC, and derives the branch's footprint (foot) from the
// same walk. An undeclared variable, or a constant index outside its
// array, is an error naming the label and branch. Called from Build.
func (p *Prog) compileBranches() error {
	p.guards = make([][]evalFn, len(p.branches))
	p.reff = make([][][]resEff, len(p.branches))
	p.nextPC = make([][]int32, len(p.branches))
	p.foot = make([][]branchFoot, len(p.branches))
	for li, brs := range p.branches {
		p.guards[li] = make([]evalFn, len(brs))
		p.reff[li] = make([][]resEff, len(brs))
		p.nextPC[li] = make([]int32, len(brs))
		p.foot[li] = make([]branchFoot, len(brs))
		for bi, b := range brs {
			cp := compiler{p: p}
			if b.Guard.defined() {
				p.guards[li][bi] = cp.compile(b.Guard)
				if cp.err != nil {
					return fmt.Errorf("gcl: %s: label %q branch %d: guard: %w", p.Name, p.labels[li], bi, cp.err)
				}
			}
			f := branchFoot{guardShared: len(cp.reads) > 0}
			effs := make([]resEff, len(b.Eff))
			for i, a := range b.Eff {
				effs[i] = cp.assign(a, &f.writes)
				if cp.err != nil {
					return fmt.Errorf("gcl: %s: label %q branch %d: assignment to %q: %w",
						p.Name, p.labels[li], bi, a.Name, cp.err)
				}
			}
			f.reads = cp.reads
			f.localOnly = len(f.reads) == 0 && len(f.writes) == 0
			p.reff[li][bi] = effs
			p.foot[li][bi] = f
			p.nextPC[li][bi] = int32(p.labelIdx[b.Next])
		}
	}
	p.crashLocals = p.crashLocals[:0]
	for _, d := range p.locals {
		p.crashLocals = append(p.crashLocals, resetCell{off: p.localInfo[d.Name].off, init: d.Init})
	}
	p.crashOwned = p.crashOwned[:0]
	for _, d := range p.shared {
		if p.owned[d.Name] {
			p.crashOwned = append(p.crashOwned, resetCell{off: p.sharedInfo[d.Name].off, init: d.Init})
		}
	}
	return nil
}

// assign compiles one assignment: its value (then, for a computed index,
// the index) joins the branch's read set, its target cells join writes.
func (cp *compiler) assign(a Assign, writes *cellMap) resEff {
	val := cp.compile(a.Val)
	if a.Local {
		return resEff{val: val, kind: effLocal, off: cp.local(a.Name), name: a.Name}
	}
	info, ok := cp.p.sharedInfo[a.Name]
	if !ok {
		cp.fail("unknown shared variable %q", a.Name)
	}
	e := resEff{val: val, kind: effSharedWord, off: info.off, size: info.size, name: a.Name}
	if !a.Idx.defined() {
		*writes = writes.add(a.Name, &Cells{Idx: []int{0}})
		return e
	}
	switch k, isConst := a.Idx.constant(); {
	case isConst:
		if k < 0 || int(k) >= info.size {
			cp.fail("index %d out of range for %q", k, a.Name)
		}
		e.off += int(k)
	case a.Idx.is(opSelf) && info.size >= cp.p.N:
		e.kind = effSharedSelf
	default:
		e.kind, e.idx = effSharedDyn, cp.compile(a.Idx)
	}
	*writes = writes.add(a.Name, a.Idx.indexCells())
	return e
}

// SuccBuf is a chunked slab arena for successor generation: SuccsInto
// writes each successor's state vector into a slab block and appends its
// Succ record, so a BFS loop that Resets the buffer per expanded state (or
// per chunk) performs zero steady-state heap allocations. Blocks grow
// geometrically — the first holds succBufFirst words, each later one
// twice its predecessor up to succBufBlock — and all of them are kept
// across Reset, so a buffer holds about twice the most words one Reset
// cycle used. Blocks are never reallocated once handed out, so every
// State obtained from the buffer stays valid until the next Reset — at
// which point all of them are recycled at once. The zero value is ready to
// use; a SuccBuf must not be shared between goroutines.
type SuccBuf struct {
	blocks [][]int32
	ci     int // index of the block currently being filled
	off    int // fill offset within blocks[ci]
	succs  []Succ
	// ectx is the scratch evaluation context handed to guard and effect
	// closures. Closures take *Ctx, so a stack-local Ctx escapes and costs
	// one heap allocation per evaluation; pointing them at a field of the
	// (already heap-resident, single-goroutine) buffer costs none.
	ectx Ctx
	next int // size of the next block to open; 0 before the first
}

// ctxFor primes the buffer's scratch evaluation context for (s, pid).
// The returned pointer is invalidated by the next ctxFor call. Fields are
// stored one by one: a composite-literal assignment is staged on the stack
// and copied in 16-byte moves that stall on store forwarding, which cost
// 17% of the fleet scenario's CPU profile.
func (b *SuccBuf) ctxFor(p *Prog, s State, pid int) *Ctx {
	b.ectx.P = p
	b.ectx.S = s
	b.ectx.Pid = pid
	b.ectx.Base = p.blockBase(pid)
	return &b.ectx
}

const (
	// succBufFirst is the first slab block's size in int32 words (4 KiB):
	// enough for one head's successors in the shipped specs, so a buffer
	// that expands one head at a time stays at one block.
	succBufFirst = 1 << 10
	// succBufBlock caps the block size in int32 words (256 KiB): once a
	// buffer holds several blocks, doubling again would only add slack.
	succBufBlock = 1 << 16
)

// Reset recycles every block and truncates the successor list. All states
// previously returned by Alloc become invalid.
func (b *SuccBuf) Reset() {
	b.ci = 0
	b.off = 0
	b.succs = b.succs[:0]
}

// Succs returns the successors accumulated since the last Reset. The slice
// is owned by the buffer and valid until the next Reset.
func (b *SuccBuf) Succs() []Succ { return b.succs }

// Truncate drops all but the first n accumulated successors (their states
// stay valid; only the records are discarded).
func (b *SuccBuf) Truncate(n int) { b.succs = b.succs[:n] }

// Append records a successor constructed by the caller — e.g. the model
// checker's crash pseudo-transitions, whose states it allocates from the
// same buffer via Alloc.
func (b *SuccBuf) Append(sc Succ) { b.succs = append(b.succs, sc) }

// Alloc returns an uninitialised n-word state vector carved from the arena,
// valid until the next Reset. It runs once per successor, so it is kept
// within the compiler's inlining budget.
func (b *SuccBuf) Alloc(n int) State {
	for {
		if b.ci < len(b.blocks) {
			if free := b.blocks[b.ci][b.off:]; n <= len(free) {
				b.off += n
				return free[:n:n]
			}
			b.ci++
			b.off = 0
			continue
		}
		sz := max(b.next, succBufFirst, n)
		b.blocks = append(b.blocks, make([]int32, sz))
		b.next = min(2*sz, succBufBlock)
	}
}

// CopyIn copies s into the arena and returns the copy.
func (b *SuccBuf) CopyIn(s State) State {
	out := b.Alloc(len(s))
	copy(out, s)
	return out
}

// EnabledMask returns a bitmask of the enabled branches at process pid's
// current label (bit i set = branch i enabled), evaluating guards only —
// no successor states are materialised. Build refuses labels of more than
// MaxBranches (64) branches, so the mask sees every branch.
// Guards evaluate through buf's scratch context (the partial-order chase
// calls this per hop); nothing is carved from the arena.
func (p *Prog) EnabledMask(s State, pid int, buf *SuccBuf) uint64 {
	c := buf.ctxFor(p, s, pid)
	var mask uint64
	for bi, g := range p.guards[p.PC(s, pid)] {
		if g == nil || g(c) != 0 {
			mask |= 1 << uint(bi)
		}
	}
	return mask
}

// Succs appends to out every successor of s reachable by one action of
// process pid and returns the extended slice. Each successor state is
// freshly heap-allocated; exploration hot loops should use SuccsInto.
func (p *Prog) Succs(s State, pid int, mode Mode, out []Succ) []Succ {
	if !p.built {
		panic("gcl: Succs before Build")
	}
	pc := p.PC(s, pid)
	c := Ctx{P: p, S: s, Pid: pid, Base: p.blockBase(pid)}
	for bi, g := range p.guards[pc] {
		if g != nil && g(&c) == 0 {
			continue
		}
		next := make(State, len(s))
		overflow := p.applyInto(next, &c, pc, bi, mode)
		out = append(out, Succ{
			State:    next,
			Pid:      pid,
			LabelIdx: int32(pc),
			Branch:   bi,
			Overflow: overflow,
		})
	}
	return out
}

// SuccsInto appends every successor of s reachable by one action of process
// pid to buf, carving the successor state vectors out of buf's arena — the
// allocation-free variant of Succs the exploration engines use.
func (p *Prog) SuccsInto(s State, pid int, mode Mode, buf *SuccBuf) {
	if !p.built {
		panic("gcl: SuccsInto before Build")
	}
	pc := p.PC(s, pid)
	c := buf.ctxFor(p, s, pid)
	for bi, g := range p.guards[pc] {
		if g != nil && g(c) == 0 {
			continue
		}
		dst := buf.Alloc(len(s))
		overflow := p.applyInto(dst, c, pc, bi, mode)
		buf.succs = append(buf.succs, Succ{
			State:    dst,
			Pid:      pid,
			LabelIdx: int32(pc),
			Branch:   bi,
			Overflow: overflow,
		})
	}
}

// AllSuccs returns every successor of s across all processes.
func (p *Prog) AllSuccs(s State, mode Mode) []Succ {
	var out []Succ
	for pid := 0; pid < p.N; pid++ {
		out = p.Succs(s, pid, mode, out)
	}
	return out
}

// AllSuccsInto appends every successor of s across all processes to buf.
func (p *Prog) AllSuccsInto(s State, mode Mode, buf *SuccBuf) {
	for pid := 0; pid < p.N; pid++ {
		p.SuccsInto(s, pid, mode, buf)
	}
}

// ApplyInto writes the successor of s by branch bi of process pid's current
// label into dst (which must hold len(s) words) and reports whether any
// shared store overflowed. The branch's guard is NOT evaluated; callers are
// expected to have established enabledness (e.g. via EnabledMask). The
// expression scratch context lives in buf, which the exploration loop
// already owns; no state is carved from its arena.
func (p *Prog) ApplyInto(dst State, s State, pid, bi int, mode Mode, buf *SuccBuf) bool {
	if !p.built {
		panic("gcl: ApplyInto before Build")
	}
	return p.applyInto(dst, buf.ctxFor(p, s, pid), p.PC(s, pid), bi, mode)
}

// applyInto executes branch bi of label pc for c.Pid against the pre-state
// c.S, writing the successor into dst. Right-hand sides (and indices) are
// evaluated against the pre-state; writes land in dst, which realises the
// simultaneous-assignment (TLA+ priming) semantics without collecting a
// write list.
func (p *Prog) applyInto(dst State, c *Ctx, pc, bi int, mode Mode) bool {
	s, pid, base := c.S, c.Pid, c.Base
	copy(dst, s)
	overflow := false
	effs := p.reff[pc][bi]
	for i := range effs {
		a := &effs[i]
		v := a.val(c)
		if v < 0 {
			panic(fmt.Sprintf("gcl: %s: assignment to %q computes negative value %d",
				p.Name, a.name, v))
		}
		if a.kind == effLocal {
			dst[base+a.off] = v
			continue
		}
		word := a.off
		switch a.kind {
		case effSharedSelf:
			word += pid
		case effSharedDyn:
			idx := int(a.idx(c))
			if idx < 0 || idx >= a.size {
				panic(fmt.Sprintf("gcl: %s: index %d out of range for %q", p.Name, idx, a.name))
			}
			word += idx
		}
		if p.M > 0 && int64(v) > p.M {
			overflow = true
			if mode == ModeWrap {
				v = int32(int64(v) % (p.M + 1))
			}
		}
		dst[word] = v
	}
	dst[base] = p.nextPC[pc][bi]
	return overflow
}

// CrashSucc returns the state after process pid crashes and restarts per the
// paper's correctness conditions 3–4: the process goes to its noncritical
// section (the first label), its locals return to their initial values, and
// its cells of every owned shared array read 0 (their initial values).
// Shared variables not marked Own are left untouched — the crash model only
// resets memory the process itself owns.
func (p *Prog) CrashSucc(s State, pid int) State {
	next := make(State, len(s))
	p.CrashSuccInto(next, s, pid)
	return next
}

// CrashSuccInto is CrashSucc into a caller-owned destination buffer of
// len(s) words — the allocation-free variant for the crash-enabled
// exploration hot path.
func (p *Prog) CrashSuccInto(dst State, s State, pid int) {
	copy(dst, s)
	base := p.sharedLen + pid*p.localLen
	dst[base] = 0
	for _, r := range p.crashLocals {
		dst[base+r.off] = r.init
	}
	for _, r := range p.crashOwned {
		dst[r.off+pid] = r.init
	}
}
