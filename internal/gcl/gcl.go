// Package gcl implements a small guarded-command language for specifying
// shared-memory mutual-exclusion algorithms at the same abstraction level as
// the paper's PlusCal specifications: a program is a set of labelled atomic
// actions over shared and per-process integer variables, and an execution is
// an arbitrary interleaving of enabled actions of N cyclic processes.
//
// One label corresponds to one atomic step, exactly as a PlusCal label does.
// Busy-wait loops such as the paper's
//
//	L2: if choosing[j] != 0 then goto L2
//
// are modelled as guarded actions that are simply not enabled until the
// guard holds — the standard TLA+ encoding, which keeps the state space free
// of self-loop noise while preserving all observable behaviours.
//
// The same program objects drive both the explicit-state model checker
// (internal/mc, the repository's TLC analog) and the controlled-interleaving
// simulator (internal/sched).
package gcl

import (
	"fmt"
	"sort"
	"sync"
)

// VarDecl declares a variable. Size 1 declares a scalar; Size > 1 declares
// an array indexed 0..Size-1. Every cell starts at Init.
type VarDecl struct {
	Name string
	Size int
	Init int32
}

// varInfo is the resolved layout of a declared variable.
type varInfo struct {
	off  int
	size int
	init int32
}

// State is a flat vector of variable values: first all shared cells, then
// for each process a block of [pc, locals...]. States are value-like; use
// Prog.Clone before mutating a state you do not own.
type State []int32

// Prog is a guarded-command program for N processes. Zero value is not
// usable; construct with New, declare variables and labels, then call
// MustBuild (or Build) before generating successors.
type Prog struct {
	Name string
	// N is the number of processes, with ids 0..N-1.
	N int
	// M is the register capacity used for overflow accounting on shared
	// variables: storing a value > M is an overflow (paper Section 3).
	// M <= 0 means unbounded ideal registers.
	M int64

	built    bool
	shared   []VarDecl
	locals   []VarDecl
	owned    map[string]bool
	labels   []string
	labelIdx map[string]int
	branches [][]Branch
	// foot holds the per-branch shared-footprint analysis backing the
	// independence relation; see footprint.go.
	foot [][]branchFoot
	// guards, reff and nextPC are the Build-time compilation of every
	// branch's guard (nil when unguarded), effect list and jump target:
	// variable names become word offsets and label names indices once, so
	// the successor hot loop performs no map lookups (see step.go).
	guards [][]evalFn
	reff   [][][]resEff
	nextPC [][]int32
	// crashLocals and crashOwned are the Build-time resolution of the
	// crash-restart rule, so CrashSuccInto performs no map lookups: each
	// entry is one word a crash rewrites — locals relative to the crashed
	// process's block, owned cells as array base + pid.
	crashLocals []resetCell
	crashOwned  []resetCell

	sharedInfo map[string]varInfo
	localInfo  map[string]varInfo
	sharedLen  int
	localLen   int // size of one per-process block, pc at offset 0

	// Process-symmetry declarations and canonicalization support; see
	// symmetry.go.
	sym          Symmetry
	pidIndexed   map[string]bool
	pidLocals    map[string][]string // cursor name -> labels it is live at
	pidArrayOffs []int               // offsets of pid-indexed arrays, declaration order
	pidLocalOffs []int               // block offsets of pid scan cursors
	cursorLive   []uint32            // per-label cursor-liveness bitsets
	canonPool    sync.Pool
}

// resetCell is one word a crash restart rewrites.
type resetCell struct {
	off  int
	init int32
}

// New returns an empty program for n >= 1 processes.
func New(name string, n int) *Prog {
	if n < 1 {
		panic("gcl: need at least one process")
	}
	return &Prog{
		Name:     name,
		N:        n,
		owned:    map[string]bool{},
		labelIdx: map[string]int{},
	}
}

// SetM declares the register capacity M for overflow accounting.
func (p *Prog) SetM(m int64) { p.M = m }

// SharedVar declares a shared scalar with the given initial value.
func (p *Prog) SharedVar(name string, init int32) {
	p.checkFresh(name)
	p.shared = append(p.shared, VarDecl{Name: name, Size: 1, Init: init})
}

// SharedArray declares a shared array of the given size.
func (p *Prog) SharedArray(name string, size int, init int32) {
	p.checkFresh(name)
	if size < 1 {
		panic("gcl: array size must be >= 1")
	}
	p.shared = append(p.shared, VarDecl{Name: name, Size: size, Init: init})
}

// LocalVar declares a per-process local with the given initial value.
func (p *Prog) LocalVar(name string, init int32) {
	p.checkFresh(name)
	p.locals = append(p.locals, VarDecl{Name: name, Size: 1, Init: init})
}

// Own marks a shared array as "owned": cell i belongs to process i and is
// reset to its initial value when process i crashes (paper correctness
// condition 4). Arrays marked Own must have size N.
func (p *Prog) Own(name string) { p.owned[name] = true }

// Label declares a labelled atomic action with one or more guarded branches.
// The first declared label is the initial pc of every process and the
// crash-restart target (the paper's noncritical section).
func (p *Prog) Label(name string, brs ...Branch) {
	if _, dup := p.labelIdx[name]; dup {
		panic(fmt.Sprintf("gcl: duplicate label %q", name))
	}
	if len(brs) == 0 {
		panic(fmt.Sprintf("gcl: label %q has no branches", name))
	}
	p.labelIdx[name] = len(p.labels)
	p.labels = append(p.labels, name)
	p.branches = append(p.branches, brs)
}

func (p *Prog) checkFresh(name string) {
	if p.built {
		panic("gcl: cannot declare after Build")
	}
	for _, d := range p.shared {
		if d.Name == name {
			panic(fmt.Sprintf("gcl: duplicate variable %q", name))
		}
	}
	for _, d := range p.locals {
		if d.Name == name {
			panic(fmt.Sprintf("gcl: duplicate variable %q", name))
		}
	}
}

// Build resolves the variable layout, validates all branch targets, and
// compiles every guard and effect against the layout. A guard or effect
// naming an undeclared variable, or indexing an array with a constant
// outside it, is an error naming the label and branch.
func (p *Prog) Build() error {
	if p.built {
		return fmt.Errorf("gcl: %s already built", p.Name)
	}
	if len(p.labels) == 0 {
		return fmt.Errorf("gcl: %s has no labels", p.Name)
	}
	p.sharedInfo = map[string]varInfo{}
	off := 0
	for _, d := range p.shared {
		p.sharedInfo[d.Name] = varInfo{off: off, size: d.Size, init: d.Init}
		off += d.Size
	}
	p.sharedLen = off

	p.localInfo = map[string]varInfo{}
	loff := 1 // slot 0 of each block is the pc
	for _, d := range p.locals {
		p.localInfo[d.Name] = varInfo{off: loff, size: 1, init: d.Init}
		loff++
	}
	p.localLen = loff

	for name := range p.owned {
		info, ok := p.sharedInfo[name]
		if !ok {
			return fmt.Errorf("gcl: %s: owned variable %q not declared shared", p.Name, name)
		}
		if info.size != p.N {
			return fmt.Errorf("gcl: %s: owned array %q must have size N=%d, has %d", p.Name, name, p.N, info.size)
		}
	}
	for li, brs := range p.branches {
		if len(brs) > MaxBranches {
			return fmt.Errorf("gcl: %s: label %q has %d branches; at most %d are allowed per label",
				p.Name, p.labels[li], len(brs), MaxBranches)
		}
		for bi, b := range brs {
			if _, ok := p.labelIdx[b.Next]; !ok {
				return fmt.Errorf("gcl: %s: label %q branch %d jumps to undeclared label %q",
					p.Name, p.labels[li], bi, b.Next)
			}
		}
	}
	if err := p.compileBranches(); err != nil {
		return err
	}
	if err := p.buildSymmetry(); err != nil {
		return err
	}
	p.built = true
	return nil
}

// MaxBranches is the most branches a label may have; Build refuses more.
// EnabledMask and the model checker's ample-set check read a label's
// enabled branches as one 64-bit mask.
const MaxBranches = 64

// MustBuild is Build that panics on error; specifications are static so an
// error is always a programming mistake.
func (p *Prog) MustBuild() *Prog {
	if err := p.Build(); err != nil {
		panic(err)
	}
	return p
}

// StateLen returns the number of int32 words in a state vector.
func (p *Prog) StateLen() int { return p.sharedLen + p.N*p.localLen }

// InitState returns the initial state: all variables at their declared
// initial values and every process at the first label.
func (p *Prog) InitState() State {
	s := make(State, p.StateLen())
	for _, d := range p.shared {
		info := p.sharedInfo[d.Name]
		for k := 0; k < info.size; k++ {
			s[info.off+k] = d.Init
		}
	}
	for pid := 0; pid < p.N; pid++ {
		base := p.sharedLen + pid*p.localLen
		s[base] = 0 // pc = first label
		for _, d := range p.locals {
			s[base+p.localInfo[d.Name].off] = d.Init
		}
	}
	return s
}

// Clone returns an independent copy of s.
func (p *Prog) Clone(s State) State {
	out := make(State, len(s))
	copy(out, s)
	return out
}

// Key encodes s into a compact string usable as a map key. Values must fit
// in 16 bits; specifications that need larger values should not be model
// checked (the simulator does not use Key).
func (p *Prog) Key(s State) string {
	buf := make([]byte, 2*len(s))
	for i, v := range s {
		if v < 0 || v > 0xffff {
			panic(fmt.Sprintf("gcl: %s: state value %d at word %d outside key range", p.Name, v, i))
		}
		buf[2*i] = byte(v)
		buf[2*i+1] = byte(v >> 8)
	}
	return string(buf)
}

// blockBase returns the word offset of process pid's block (its pc).
func (p *Prog) blockBase(pid int) int { return p.sharedLen + pid*p.localLen }

// PC returns the label index of process pid.
func (p *Prog) PC(s State, pid int) int {
	return int(s[p.sharedLen+pid*p.localLen])
}

// SetPC sets the label index of process pid.
func (p *Prog) SetPC(s State, pid, pc int) {
	s[p.sharedLen+pid*p.localLen] = int32(pc)
}

// PCLabel returns the label name process pid is at.
func (p *Prog) PCLabel(s State, pid int) string {
	return p.labels[p.PC(s, pid)]
}

// LabelIndex returns the index of a label name, panicking if undeclared.
func (p *Prog) LabelIndex(name string) int {
	i, ok := p.labelIdx[name]
	if !ok {
		panic(fmt.Sprintf("gcl: %s: unknown label %q", p.Name, name))
	}
	return i
}

// HasLabel reports whether the label name is declared.
func (p *Prog) HasLabel(name string) bool {
	_, ok := p.labelIdx[name]
	return ok
}

// Labels returns the label names in declaration order.
func (p *Prog) Labels() []string { return p.labels }

// LabelName returns the name of the label with the given index — the
// rendering counterpart of Succ.LabelIdx.
func (p *Prog) LabelName(i int) string { return p.labels[i] }

// Shared returns the value of a shared variable cell. idx is ignored for
// scalars.
func (p *Prog) Shared(s State, name string, idx int) int32 {
	info, ok := p.sharedInfo[name]
	if !ok {
		panic(fmt.Sprintf("gcl: %s: unknown shared variable %q", p.Name, name))
	}
	if idx < 0 || idx >= info.size {
		panic(fmt.Sprintf("gcl: %s: index %d out of range for %q", p.Name, idx, name))
	}
	return s[info.off+idx]
}

// SetShared sets a shared variable cell, bypassing overflow accounting; it
// is intended for tests and initial-condition setup.
func (p *Prog) SetShared(s State, name string, idx int, v int32) {
	info, ok := p.sharedInfo[name]
	if !ok {
		panic(fmt.Sprintf("gcl: %s: unknown shared variable %q", p.Name, name))
	}
	if idx < 0 || idx >= info.size {
		panic(fmt.Sprintf("gcl: %s: index %d out of range for %q", p.Name, idx, name))
	}
	s[info.off+idx] = v
}

// Local returns the value of process pid's local variable.
func (p *Prog) Local(s State, pid int, name string) int32 {
	info, ok := p.localInfo[name]
	if !ok {
		panic(fmt.Sprintf("gcl: %s: unknown local variable %q", p.Name, name))
	}
	return s[p.sharedLen+pid*p.localLen+info.off]
}

// SetLocal sets process pid's local variable.
func (p *Prog) SetLocal(s State, pid int, name string, v int32) {
	info, ok := p.localInfo[name]
	if !ok {
		panic(fmt.Sprintf("gcl: %s: unknown local variable %q", p.Name, name))
	}
	s[p.sharedLen+pid*p.localLen+info.off] = v
}

// CountAtLabel returns how many processes are currently at the given label —
// the building block of the mutual-exclusion invariant.
func (p *Prog) CountAtLabel(s State, label string) int {
	return p.CountAtLabelIdx(s, p.LabelIndex(label))
}

// CountAtLabelIdx is CountAtLabel by label index: invariants evaluated once
// per reached state resolve the label name up front and skip the map lookup.
func (p *Prog) CountAtLabelIdx(s State, idx int) int {
	n := 0
	for pid := 0; pid < p.N; pid++ {
		if p.PC(s, pid) == idx {
			n++
		}
	}
	return n
}

// MaxShared returns the maximum value over all cells of a shared array —
// used by the no-overflow invariant.
func (p *Prog) MaxShared(s State, name string) int32 {
	info, ok := p.sharedInfo[name]
	if !ok {
		panic(fmt.Sprintf("gcl: %s: unknown shared variable %q", p.Name, name))
	}
	max := int32(0)
	for k := 0; k < info.size; k++ {
		if v := s[info.off+k]; v > max {
			max = v
		}
	}
	return max
}

// MaxAnyShared returns the maximum value over every shared register cell.
// It is the allocation-free core of the no-overflow invariant: the shared
// cells are the leading sharedLen words of the vector, so one prefix scan
// replaces the per-variable MaxShared walk (which needs name lookups).
func (p *Prog) MaxAnyShared(s State) int32 {
	max := int32(0)
	for _, v := range s[:p.sharedLen] {
		if v > max {
			max = v
		}
	}
	return max
}

// SharedNames returns the declared shared variable names, sorted.
func (p *Prog) SharedNames() []string {
	names := make([]string, 0, len(p.shared))
	for _, d := range p.shared {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// SharedSize returns the declared size of a shared variable.
func (p *Prog) SharedSize(name string) int {
	info, ok := p.sharedInfo[name]
	if !ok {
		panic(fmt.Sprintf("gcl: %s: unknown shared variable %q", p.Name, name))
	}
	return info.size
}

// BranchTags returns how many branches carry each statistics tag.
func (p *Prog) BranchTags() map[string]int {
	tags := map[string]int{}
	for _, brs := range p.branches {
		for _, b := range brs {
			if b.Tag != "" {
				tags[b.Tag]++
			}
		}
	}
	return tags
}

// NumBranches returns the total number of declared branches, a crude size
// measure used in the complexity comparison table (E8).
func (p *Prog) NumBranches() int {
	n := 0
	for _, brs := range p.branches {
		n += len(brs)
	}
	return n
}

// SharedCells returns the total number of shared register cells the
// algorithm uses — the space-complexity column of the E8 table.
func (p *Prog) SharedCells() int { return p.sharedLen }

// Format renders a state for human consumption in traces.
func (p *Prog) Format(s State) string {
	out := ""
	for _, d := range p.shared {
		info := p.sharedInfo[d.Name]
		if info.size == 1 {
			out += fmt.Sprintf("%s=%d ", d.Name, s[info.off])
		} else {
			out += fmt.Sprintf("%s=%v ", d.Name, []int32(s[info.off:info.off+info.size]))
		}
	}
	for pid := 0; pid < p.N; pid++ {
		out += fmt.Sprintf("p%d@%s", pid, p.labels[p.PC(s, pid)])
		for _, d := range p.locals {
			out += fmt.Sprintf(",%s=%d", d.Name, p.Local(s, pid, d.Name))
		}
		out += " "
	}
	return out[:len(out)-1]
}
