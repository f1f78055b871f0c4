// Package mc is an explicit-state model checker for gcl programs — this
// repository's stand-in for the TLC model checker the paper used to verify
// Bakery++. Like TLC's safety mode, it enumerates the reachable states of
// the interleaving semantics breadth-first, evaluates invariants on every
// state, detects deadlocks, and reconstructs a shortest counterexample
// trace when a check fails.
//
// Beyond plain safety checking it can (a) add crash/restart transitions
// implementing the paper's correctness conditions 3–4, (b) build the full
// reachability graph, and (c) search the graph for starvation scenarios
// such as the Section 6.3 livelock (a slow process pinned at L1 while fast
// processes cycle through their critical sections) via strongly-connected
// component analysis.
package mc

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"bakerypp/internal/gcl"
)

// Invariant is a named state predicate that must hold on every reachable
// state.
type Invariant struct {
	Name  string
	Holds func(p *gcl.Prog, s gcl.State) bool
	// Observes declares the slice of state the predicate reads, so
	// partial-order reduction can prove an action invisible (unable to
	// change the predicate's truth value). nil means "unknown — may read
	// anything", which soundly disables POR. The stock invariants all
	// declare precise observations.
	Observes *Observation
}

// Observation is an invariant's declared read set: the labels whose
// occupancy it may depend on (CountAtLabel-style predicates) and whether
// it may depend on shared variable values. It cannot express reading
// anything else — a predicate that consults local variables, pcs beyond
// label occupancy, or any other part of the state MUST leave
// Invariant.Observes nil (full-search fallback); declaring an empty
// Observation for such a predicate would let POR treat actions that
// change it as invisible.
type Observation struct {
	Labels []string
	Shared bool
}

// labelIdxCache memoizes a label's index for one program, so the stock
// label-counting invariants resolve the name once per program instead of
// once per state (the lookup was a measurable slice of the hot loop). The
// cache is swapped atomically: one Invariant value may serve concurrent
// checks, and a stale entry is harmless — a program mismatch just
// recomputes.
type labelIdxCache struct {
	p   *gcl.Prog
	idx int
}

func countAtCached(c *atomic.Pointer[labelIdxCache], p *gcl.Prog, s gcl.State, label string) int {
	lc := c.Load()
	if lc == nil || lc.p != p {
		lc = &labelIdxCache{p: p, idx: p.LabelIndex(label)}
		c.Store(lc)
	}
	return p.CountAtLabelIdx(s, lc.idx)
}

// Mutex is the mutual-exclusion invariant: at most one process resides at
// the label "cs" (the specs package convention for "inside the critical
// section").
func Mutex() Invariant {
	var cache atomic.Pointer[labelIdxCache]
	return Invariant{
		Name: "mutual-exclusion",
		Holds: func(p *gcl.Prog, s gcl.State) bool {
			return countAtCached(&cache, p, s, "cs") <= 1
		},
		Observes: &Observation{Labels: []string{"cs"}},
	}
}

// NoOverflow is the paper's overflow invariant: no shared register ever
// holds a value greater than the program's capacity M ("we say an overflow
// occurs if C tries to store a value v > M", Section 3). Programs are
// checked in ModeUnbounded, so an attempted over-store is visible as a
// reachable state holding the raw value.
func NoOverflow() Invariant {
	return Invariant{
		Name: "no-overflow",
		Holds: func(p *gcl.Prog, s gcl.State) bool {
			return p.M <= 0 || int64(p.MaxAnyShared(s)) <= p.M
		},
		Observes: &Observation{Shared: true},
	}
}

// AtMostAtLabel bounds how many processes may simultaneously sit at a label.
func AtMostAtLabel(label string, k int) Invariant {
	var cache atomic.Pointer[labelIdxCache]
	return Invariant{
		Name: fmt.Sprintf("at-most-%d-at-%s", k, label),
		Holds: func(p *gcl.Prog, s gcl.State) bool {
			return countAtCached(&cache, p, s, label) <= k
		},
		Observes: &Observation{Labels: []string{label}},
	}
}

// Options configures a check.
type Options struct {
	// Invariants to verify; both Check and BuildGraph evaluate them.
	Invariants []Invariant
	// Deadlock, when set, reports a state in which no process has an
	// enabled action. Crash transitions do not count as progress.
	Deadlock bool
	// Crash adds crash/restart transitions for the processes listed in
	// CrashPids (all processes when empty): at any moment a process may
	// reset its owned registers and locals and return to "ncs".
	Crash     bool
	CrashPids []int
	// MaxStates bounds exploration; 0 means DefaultMaxStates. Exceeding
	// the bound stops the search with Complete = false.
	MaxStates int
	// Mode is the store semantics; model checking uses ModeUnbounded so
	// the NoOverflow invariant can observe attempted over-stores.
	Mode gcl.Mode
	// Workers sets how many goroutines expand states. 0 (the default) and
	// 1 expand one BFS head at a time on the caller's goroutine; a count of
	// 2 or more expands chunks of queued heads on that many goroutines, one
	// chunk ahead of the single-threaded merge that numbers them (see
	// parallel.go); a negative count uses GOMAXPROCS. States are numbered
	// identically either way, so Check results, graphs, traces, the SCC
	// analyses and the store report are byte-for-byte independent of this
	// setting. Invariants are evaluated on the merge goroutine only, once
	// per fresh state in numbering order, whatever the setting.
	Workers int
	// Symmetry enables process-symmetry reduction: the visited store keys
	// states on the canonical representative of their permutation orbit,
	// so of every orbit only the first-encountered concrete state is
	// numbered and expanded (duplicate detection only — counterexample
	// traces stay concrete, reachable executions). Requires the program to
	// declare gcl.FullSymmetry and be canonicalizable; otherwise — and
	// when crash transitions are restricted to a proper subset of
	// processes, which breaks the symmetry — the full search runs and
	// Result.Symmetry reports false. Invariants must be symmetric in the
	// process ids (the stock ones are). Deterministic for any Workers
	// setting. BuildGraph ignores it: its cycle analyses run on the
	// dead-cursor-reset graph, which the symmetry quotient does not shrink
	// (see cycles.go); CheckFCFS canonicalizes over the subgroup fixing its
	// pinned pair. Each entry point's reduction gating is declared in
	// analysis.go.
	Symmetry bool
	// POR enables ample-set partial-order reduction: at states where some
	// process's every enabled branch is local (touches nothing shared —
	// proved by the gcl footprint analysis) and invisible (cannot change
	// any configured invariant, per the invariants' Observes declarations),
	// only that process is expanded. Soundness conditions enforced at
	// expansion time: the ample set is one process's complete enabled
	// branch set (C0/C1, backed by the static independence relation), every
	// ample action is invisible (C2), and a state whose ample successor is
	// already in the visited store is expanded fully instead (C3, the BFS
	// cycle proviso — every cycle of the reduced graph contains a fully
	// expanded state, so no enabled action is ignored forever). Verdicts —
	// including deadlocks — are preserved; state and transition counts
	// shrink. Composes with Symmetry (freshness is judged on canonical
	// keys, reducing the orbit quotient further) and stays byte-identical
	// for any Workers count. Falls back to the full search (Result.POR
	// false) when crash transitions are on (crashes reset owned shared
	// cells from every state, so no action is ever safe) or when any
	// invariant omits its Observes declaration. BuildGraph and the
	// graph-based analyses ignore POR: SCC, starvation, FCFS, and
	// refinement are cycle- or identity-sensitive, which the ample
	// reduction does not preserve (analysis.go declares this per entry
	// point; symmetry still applies there).
	POR bool
	// Store selects the visited-set tier (storeopts.go): the zero value is
	// the exact in-heap store; StoreBitstate trades exactness for memory
	// (probabilistic verdicts, Result.Store reports the omission bound),
	// Spill maps the state slab from an mmap-backed arena so the working
	// set can exceed RAM. planFor refuses the lossy mode for analyses
	// needing exactness; Check panics on malformed options (commands
	// pre-validate via ParseStoreSpec). Deterministic per Seed for any
	// Workers count.
	Store StoreOptions
}

// DefaultMaxStates bounds exploration when Options.MaxStates is zero.
// Sized so the symmetry-reduced Bakery++ N=5 quotient (≈3.0M states at
// the default M=4) completes with headroom; a run stopping at the bound
// holds roughly a gigabyte of states and store entries.
const DefaultMaxStates = 4_000_000

// BeyondRAMMaxStates is the default bound when a lossy or spill store is
// selected and Options.MaxStates is zero: those modes exist precisely to
// push past the in-heap ceiling, so the default ceiling moves with them.
const BeyondRAMMaxStates = 64_000_000

// Step is one transition of a trace: process Pid executed the action at
// Label (or the pseudo-label "CRASH"), producing State.
type Step struct {
	Pid   int
	Label string
	State gcl.State
}

// Trace is a finite execution from the initial state.
type Trace struct {
	Prog  *gcl.Prog
	Init  gcl.State
	Steps []Step
}

// String renders the trace one state per line.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "init: %s\n", t.Prog.Format(t.Init))
	for i, st := range t.Steps {
		fmt.Fprintf(&b, "%3d: p%d:%s -> %s\n", i+1, st.Pid, st.Label, t.Prog.Format(st.State))
	}
	return b.String()
}

// Len returns the number of steps.
func (t *Trace) Len() int { return len(t.Steps) }

// Violation reports an invariant failure with a shortest counterexample.
type Violation struct {
	Invariant string
	Trace     Trace
}

// Result summarises a check.
type Result struct {
	Prog        *gcl.Prog
	States      int
	Transitions int
	Depth       int
	// Complete reports that the whole reachable state space was explored
	// (no violation, no MaxStates cutoff). Under symmetry reduction
	// "whole" means one representative per encountered orbit.
	Complete  bool
	Violation *Violation
	Deadlock  *Trace
	// Symmetry reports that symmetry reduction was actually applied (it
	// was requested and the program supports it).
	Symmetry bool
	// POR reports that ample-set partial-order reduction was actually
	// applied (requested, no crash transitions, all invariants declare
	// their observations).
	POR bool
	// Store reports the visited-set tier the run used; nil for the default
	// exact in-heap store. Lossy runs carry the expected-omission bound and
	// must surface Store.Banner() next to the verdict.
	Store   *StoreReport
	Elapsed time.Duration
}

// RunFingerprint digests the run's deterministic outcome — state,
// transition and depth counts, verdict class, store mode/seed/entry count —
// into one value that is stable per seed for ANY Workers setting. The CI
// determinism smoke compares it between a single-core and a fully parallel
// run of the same lossy exploration.
func (r *Result) RunFingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(r.States))
	mix(uint64(r.Transitions))
	mix(uint64(r.Depth))
	var verdict uint64
	if r.Violation != nil {
		verdict |= 1
	}
	if r.Deadlock != nil {
		verdict |= 2
	}
	if r.Complete {
		verdict |= 4
	}
	mix(verdict)
	if r.Store != nil {
		mix(r.Store.Seed)
		mix(uint64(r.Store.Entries))
		for _, c := range []byte(r.Store.Mode) {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	return h
}

// String renders a one-line verification summary.
func (r *Result) String() string {
	status := "OK"
	switch {
	case r.Violation != nil:
		status = "VIOLATION of " + r.Violation.Invariant
	case r.Deadlock != nil:
		status = "DEADLOCK"
	case !r.Complete:
		status = "INCOMPLETE (state bound reached)"
	}
	sym := ""
	if r.Symmetry {
		sym = " [symmetry-reduced]"
	}
	if r.POR {
		sym += " [por-reduced]"
	}
	return fmt.Sprintf("%s: %s — %d states, %d transitions, depth %d, %v%s",
		r.Prog.Name, status, r.States, r.Transitions, r.Depth, r.Elapsed.Round(time.Millisecond), sym)
}

// crashLabel is the pseudo-label recorded for crash transitions.
const crashLabel = "CRASH"

// crashLabelIdx is the sentinel label index carried by crash
// pseudo-transitions and by the initial state's parent edge; labelName
// renders it as crashLabel.
const crashLabelIdx = int32(-1)

// wctx is one expansion context: the scratch the hot path allocates from.
// The explorer owns one for heads it expands itself; each of the parallel
// pre-pass's two chunk buffers keeps one per worker. buf is reset once per
// head expanded alone, or once per pre-pass chunk, recycling every decoded
// head, successor vector, canonical key copy, and crash state generated
// since. A pre-pass worker may claim nearly all of a chunk's heads, so its
// scratch grows to hold up to one chunk (maxChunk heads) of successors and
// probe records, and no more (TestPrepassMemoryBound). The scratch grows
// with use (buf's arena blocks double from 4 KiB), so a context that
// expands one head at a time stays a few KiB. canon is the
// reusable canonicalizer and key the scratch a symmetric head's canonical
// key is decoded into (nil when the run is not symmetry-reduced).
type wctx struct {
	buf   gcl.SuccBuf
	canon *gcl.Canonicalizer
	key   gcl.State
	// slab, fps and ors are the batched store-probe scratch behind
	// prepSuccs: under symmetry a whole successor run canonicalizes into
	// the structure-of-arrays key slab in one call; otherwise only the
	// fingerprint batch is computed (the key is the state itself), with
	// each state's word OR for the exact store's width test. preps backs
	// the pre-pass's expansion records. All recycled on the same cadence
	// as buf.
	slab  gcl.KeySlab
	fps   []uint64
	ors   []int32
	preps []prep
}

// explorer is the shared BFS engine behind Check and BuildGraph. Its
// visited set is an fpTable over its state slab — fingerprint-keyed,
// Equal- (or, under symmetry, canonical-)confirmed — or, in the bitstate
// tier, a bit array.
type explorer struct {
	p        *gcl.Prog
	opts     Options
	plan     Plan
	symmetry bool // orbit dedup actually applied
	por      bool // ample-set reduction actually applied
	// reset zeroes every successor's dead scan cursors (Plan.Reset).
	reset bool
	// porOK[label][branch] marks branches eligible to form ample sets:
	// local-only per the gcl footprint analysis, and invisible (neither
	// endpoint label observed by any invariant).
	porOK [][]bool
	// porGuardShared[label][branch] marks branches whose guards read
	// shared state: while disabled, another process's write can enable
	// them, so their process cannot be singled out (see ampleProcessOK).
	porGuardShared [][]bool
	// ampleNever[label] marks labels whose process can never be singled
	// out (ampleProcessOKMask is false for every enabled mask): some branch
	// is ineligible yet has a shared-reading guard, so it fails the check
	// enabled or disabled.
	// ampleSingle skips such processes before evaluating any guard.
	ampleNever []bool
	// chaseCap bounds local-chain compression so a cycle of local actions
	// (a local spin) cannot chase forever.
	chaseCap int
	// State-vector residency (stateAt/appendState), one for every tier:
	// state i is entry i of slab — a state's number is its slab index, so
	// nothing maps one to the other and no per-state Go pointer exists —
	// and each state is stored once, packed (see keySlab). Under Spill the
	// slab's blocks are mapped from an mmap arena. Without symmetry the
	// entry is the concrete vector, which is its own key. Under symmetry
	// it is the canonical key followed by a tailLen-word tail
	// (gcl.PackTail: the witness permutation and the raw scan-cursor
	// values), and the concrete state is restored from the two
	// (decodeEntry); tailLen is 0 otherwise. Either way a state is decoded
	// into a buffer of the reader's whenever it is read. The tier only
	// answers membership: the exact tier through table, an fpTable over
	// the slab, the bitstate tier through bits (table nil).
	//
	// One per-state column remains, parent, paged so it is never copied as
	// it grows (column.go). BFS numbers states in nondecreasing depth, so
	// levels[d], the number of the first state at depth d, gives every
	// depth (depthOf); and the action that produced a state is re-derived
	// from its parent when a trace needs it (producer).
	slab     *keySlab
	table    *fpTable
	bits     *bitstateStore
	tailLen  int
	parent   column[int32]
	levels   []int32
	crashers []int
	// wc and seq expand the heads the explorer expands alone: every head in
	// sequential mode, and in parallel mode those met while the queue is
	// too narrow for the pre-pass. pre is parallel mode's pre-pass (nil in
	// sequential mode).
	wc  wctx
	seq expansion
	pre *prepass
}

// newExplorer builds the engine state for one exploration executing the
// given reduction plan (see analysis.go; planFor gates every reduction on
// soundness for the requesting analysis, e.g. crashing only a proper
// subset of processes distinguishes their identities and disables
// symmetry).
func newExplorer(p *gcl.Prog, opts Options, plan Plan) *explorer {
	if opts.MaxStates == 0 {
		opts.MaxStates = DefaultMaxStates
		if plan.Store.Lossy() || plan.Store.Spill {
			opts.MaxStates = BeyondRAMMaxStates
		}
	}
	e := &explorer{p: p, opts: opts, plan: plan, slab: &keySlab{ar: spillArena(plan.Store)}}
	if plan.Store.Mode == StoreBitstate {
		e.bits = newBitstateStore(p, plan)
	} else {
		e.table = &fpTable{slab: e.slab}
	}
	if plan.Symmetry {
		e.tailLen = p.TailLen()
	}
	e.crashers = crashersOf(p, opts)
	e.symmetry = plan.Symmetry
	e.reset = plan.Reset
	e.por = plan.POR
	if e.por {
		e.porOK = porEligibility(p, opts.Invariants)
		e.porGuardShared = make([][]bool, len(p.Labels()))
		e.ampleNever = make([]bool, len(p.Labels()))
		for li := range e.porGuardShared {
			e.porGuardShared[li] = make([]bool, p.NumBranchesAt(li))
			for bi := range e.porGuardShared[li] {
				e.porGuardShared[li][bi] = p.BranchGuardReadsShared(li, bi)
				if e.porGuardShared[li][bi] && !e.porOK[li][bi] {
					e.ampleNever[li] = true
				}
			}
		}
		e.chaseCap = p.N*len(p.Labels()) + 8
	}
	e.initCtx(&e.wc)
	e.pre = newPrepass(e)
	return e
}

// initCtx readies an expansion context for the run: under symmetry, its
// canonicalizer and key scratch.
func (e *explorer) initCtx(w *wctx) {
	if e.plan.Symmetry {
		w.canon = e.p.NewCanonicalizer()
		w.key = make(gcl.State, e.p.StateLen())
	}
}

// numStates is the count of numbered states.
func (e *explorer) numStates() int { return e.slab.len() }

// depthOf returns the BFS depth of state i: the last level starting at or
// before i.
func (e *explorer) depthOf(i int32) int32 {
	d, found := slices.BinarySearch(e.levels, i)
	if !found {
		d--
	}
	return int32(d)
}

// stateAt returns state i's vector, a fresh decode of its slab entry that
// aliases no slab block.
func (e *explorer) stateAt(i int32) gcl.State {
	var key gcl.State
	if e.tailLen > 0 {
		key = make(gcl.State, e.p.StateLen())
	}
	return e.decodeEntry(make(gcl.State, e.p.StateLen()), key, e.slab.packed(uint32(i)))
}

// decodeEntry writes into dst the concrete state stored as k and returns
// dst: the vector itself, or under symmetry the state restored from the
// canonical key — decoded into key, StateLen words of scratch — and the
// tail.
func (e *explorer) decodeEntry(dst, key gcl.State, k packedKey) gcl.State {
	if e.tailLen == 0 {
		k.decode(dst)
		return dst
	}
	k.decode(key)
	e.p.Restore(dst, key, k.tail())
	return dst
}

// headState decodes the head stored as k into a vector carved from w's
// buffer, for expansion in w.
func (e *explorer) headState(w *wctx, k packedKey) gcl.State {
	return e.decodeEntry(w.buf.Alloc(e.p.StateLen()), w.key, k)
}

// appendState numbers a fresh state and enters it into the visited set;
// returns the new index. The incoming vectors may live in a worker's
// recycled scratch buffer, so the state is copied into the slab — the
// concrete vector, or under symmetry the canonical key and the tail packed
// from wit and s — whose index, the state's number, goes into the table or
// the bit array. pr is the state's probe, whose width the slab entry takes.
func (e *explorer) appendState(pr *prep, wit []byte, s gcl.State) int32 {
	i, tail := e.slab.appendTail(pr.key, pr.width, e.tailLen)
	if e.tailLen > 0 {
		e.p.PackTail(tail, wit, s)
	}
	if e.table != nil {
		e.table.add(pr.fp, i)
	} else {
		e.bits.Insert(pr.fp, pr.key, int32(i))
	}
	return int32(i)
}

// storeReport returns the store tier's accounting: the bitstate store's,
// or the spill arena's for the exact tier; nil for the exact in-heap tier.
func (e *explorer) storeReport() *StoreReport {
	var rep StoreReport
	switch {
	case e.bits != nil:
		rep = e.bits.Report()
	case e.slab.ar != nil:
		rep = StoreReport{Mode: "exact,spill", Entries: int64(e.numStates()), Confidence: 1}
	default:
		return nil
	}
	if e.slab.ar != nil {
		rep.SpillBytes = e.slab.ar.bytes()
	}
	return &rep
}

// porEligibility precomputes, per label and branch, whether the branch may
// sit in an ample set: it must be local-only (no shared reads or writes —
// independent of every other process's actions, per the footprint
// analysis) and invisible (its source and target labels are observed by no
// invariant; local-only already rules out shared-value observations).
func porEligibility(p *gcl.Prog, invs []Invariant) [][]bool {
	observed := map[int]bool{}
	for _, inv := range invs {
		for _, lbl := range inv.Observes.Labels {
			if p.HasLabel(lbl) {
				observed[p.LabelIndex(lbl)] = true
			}
		}
	}
	out := make([][]bool, len(p.Labels()))
	for li := range out {
		out[li] = make([]bool, p.NumBranchesAt(li))
		for bi := range out[li] {
			out[li][bi] = p.BranchLocalOnly(li, bi) &&
				!observed[li] && !observed[p.BranchNext(li, bi)]
		}
	}
	return out
}

// crashersCoverAll reports whether pids covers every process 0..n-1.
func crashersCoverAll(pids []int, n int) bool {
	covered := make([]bool, n)
	distinct := 0
	for _, pid := range pids {
		if pid >= 0 && pid < n && !covered[pid] {
			covered[pid] = true
			distinct++
		}
	}
	return distinct == n
}

// prep is a successor's prepared store probe, cached across the C3
// proviso check and the committed insertion. width is the key's width
// (widthOf), computed once in the same batch as the fingerprint, so neither
// the table's compare nor the slab's append recomputes it. Under symmetry,
// slot is the key's index in the expansion's KeySlab, which holds its
// witness.
type prep struct {
	fp    uint64
	key   gcl.State
	slot  int32
	width keyWidth
}

// expansion is one expanded BFS head, the unit the merge step consumes: its
// successors, their store probes (index-aligned), the ample segment
// succs[aLo:aHi] when partial-order reduction singled out a process (empty
// otherwise), and whether any program action was enabled (crash
// pseudo-transitions do not count), which feeds deadlock detection.
//
// A head the explorer expands alone gets its probes prepared lazily by
// commit, so a committed ample segment never prepares the complement. The
// parallel pre-pass prepares every probe ahead (ahead set). Whether a
// successor is fresh, and so whether the invariants run on it, is decided
// by the merge alone.
type expansion struct {
	succs    []gcl.Succ
	preps    []prep
	aLo, aHi int
	progress bool
	ahead    bool
	// keys is the KeySlab the probes were canonicalized into (nil without
	// symmetry).
	keys *gcl.KeySlab
}

// witness returns the canonical witness of successor i's key (nil without
// symmetry).
func (x *expansion) witness(i int) []byte {
	if x.keys == nil {
		return nil
	}
	return x.keys.Witness(int(x.preps[i].slot))
}

// addInit numbers the initial state s, prepared through the same batch
// path as every successor.
func (e *explorer) addInit(s gcl.State) int32 {
	x := expansion{succs: []gcl.Succ{{State: s, Pid: -1, LabelIdx: crashLabelIdx}}, preps: make([]prep, 1)}
	if e.wc.canon != nil {
		x.keys = &e.wc.slab
	}
	e.prepSuccs(&e.wc, x.succs, x.preps)
	idx, _ := e.addSucc(&x, 0, -1)
	return idx
}

// prepSuccs prepares the store probes for a run of successors in one batch,
// writing succs[i]'s probe into dst[i]. Under symmetry the whole run is
// canonicalized, witnesses included, into the context's key slab — a
// contiguous structure-of-arrays pass with no per-state scratch copy
// (gcl.KeySlab); otherwise the key is the successor state itself and only
// the fingerprint batch is computed. Each key's width is computed in the
// same batch, on the workers in parallel mode. The engines reach the
// canon == nil arm exactly when the plan involves no canonicalization and
// no extra key words, where every store tier's Prepare degenerates to
// (s.Fingerprint(), s) — see prepare().
func (e *explorer) prepSuccs(w *wctx, succs []gcl.Succ, dst []prep) {
	if len(succs) == 0 {
		return
	}
	// Fields are stored one by one: a composite literal is staged on the
	// stack and copied in 16-byte moves that stall on store forwarding.
	if w.canon == nil {
		// The words' OR, the width test, comes out of the fingerprint pass.
		w.fps, w.ors = gcl.FingerprintSuccsOr(succs, w.fps, w.ors)
		for i := range succs {
			d := &dst[i]
			d.fp, d.key, d.width = w.fps[i], succs[i].State, widthOr(w.ors[i])
		}
		return
	}
	base := w.canon.CanonicalizeBatch(succs, &w.slab)
	for i := range succs {
		d := &dst[i]
		d.fp, d.key, d.slot = w.slab.Fp(base+i), w.slab.Key(base+i), int32(base+i)
		d.width = widthOf(d.key)
	}
}

// grow resizes a scratch buffer to n entries, reusing its capacity. It
// doubles when it must reallocate and does not copy: callers only ever read
// entries they write after growing, or through subslices that keep the old
// backing array alive.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// labelName renders a recorded label index; the crash sentinel renders as
// the crash pseudo-label.
func (e *explorer) labelName(idx int32) string {
	if idx < 0 {
		return crashLabel
	}
	return e.p.LabelName(int(idx))
}

// trace reconstructs the path from the initial state to states[idx], each
// step's action re-derived from its parent (producer) through one
// expansion context for the whole path. Under partial-order reduction an
// edge may be a compressed local chain; edgeSteps re-derives the concrete
// intermediate transitions into replay, one buffer for the whole path that
// is never reset, so traces are always step-by-step real executions.
func (e *explorer) trace(idx int32) Trace {
	var rev []int32
	for i := idx; i >= 0; i = e.parent.at(i) {
		rev = append(rev, i)
	}
	t := Trace{Prog: e.p, Init: e.stateAt(rev[len(rev)-1])}
	var w wctx
	var replay gcl.SuccBuf
	e.initCtx(&w)
	from := t.Init
	for k := len(rev) - 2; k >= 0; k-- {
		s := e.stateAt(rev[k])
		pid, lb := e.producer(&w, rev[k+1], from, s)
		if e.por {
			t.Steps = append(t.Steps, e.edgeSteps(&replay, from, s, pid, e.labelName(lb))...)
		} else {
			t.Steps = append(t.Steps, Step{Pid: pid, Label: e.labelName(lb), State: s})
		}
		from = s
	}
	return t
}

// producer re-derives the action that numbered state s, a successor of
// head (whose state is hs): its pid and label index, as the merge saw them.
// The merge walked head's committed successors in expansion order — pids
// ascending, then branches, chased under POR, crash successors last — and
// numbered s at the first whose state is s, since any earlier one would
// have been numbered in its place; under symmetry the stored concrete
// state is that successor's too. Under POR the merge committed the ample
// segment alone when the C3 proviso held, and ampleOK decides it again
// with the merge's answer: stored depths never change, and an ample
// successor absent then was numbered at depth d+1 by head itself. w is
// the caller's expansion context, reset here.
func (e *explorer) producer(w *wctx, head int32, hs, s gcl.State) (int, int32) {
	w.buf.Reset()
	w.slab.Reset()
	var x expansion
	e.expandInto(hs, &x, w)
	lo, hi := 0, len(x.succs)
	if x.aHi > x.aLo {
		x.preps = make([]prep, len(x.succs))
		e.prepSuccs(w, x.succs[x.aLo:x.aHi], x.preps[x.aLo:x.aHi])
		if e.ampleOK(&x, e.depthOf(head)) {
			lo, hi = x.aLo, x.aHi
		}
	}
	for i := lo; i < hi; i++ {
		if sc := &x.succs[i]; sc.State.Equal(s) {
			return sc.Pid, sc.LabelIdx
		}
	}
	panic("mc: no successor of a state's parent re-derives it")
}

// edgeSteps expands one reduced-graph edge into concrete trace steps: a
// plain edge is a single real transition of the producing process and
// label; a chained edge is re-derived by finding the first action of the
// parent whose state-deterministic local chain ends at the child, and
// replaying it step by step into replay. Every returned step is a real
// transition. The caller must never reset replay, so the returned Steps'
// state vectors stay valid.
func (e *explorer) edgeSteps(replay *gcl.SuccBuf, parent, child gcl.State, pid int, label string) []Step {
	for _, sc := range e.p.Succs(parent, pid, e.opts.Mode, nil) {
		if sc.Label(e.p) == label && sc.State.Equal(child) {
			return []Step{{Pid: pid, Label: label, State: child}}
		}
	}
	for _, sc := range e.p.AllSuccs(parent, e.opts.Mode) {
		steps := []Step{{Pid: sc.Pid, Label: sc.Label(e.p), State: sc.State}}
		for hops := 0; hops < e.chaseCap && !sc.State.Equal(child); hops++ {
			next, ok := e.ampleSingle(sc.State, replay)
			if !ok {
				break
			}
			sc = next
			steps = append(steps, Step{Pid: sc.Pid, Label: e.labelName(sc.LabelIdx), State: sc.State})
		}
		if sc.State.Equal(child) {
			return steps
		}
	}
	panic("mc: cannot reconstruct reduced-graph edge as a concrete chain")
}

// checkInvariants returns the index into Options.Invariants of the first
// invariant s violates, or -1.
func (e *explorer) checkInvariants(s gcl.State) int32 {
	for i := range e.opts.Invariants {
		if !e.opts.Invariants[i].Holds(e.p, s) {
			return int32(i)
		}
	}
	return -1
}

// successors yields all program successors of s plus crash transitions,
// each with its dead scan cursors zeroed when the plan resets them
// (Plan.Reset), together with the ample segment: when POR is on and some
// process's every enabled branch is ample-eligible, succs[aLo:aHi] are exactly the
// successors of the lowest such pid (aLo == aHi when there is none). The
// caller commits to the segment only if every state in it is absent from
// the visited store (the C3 proviso); the full list is always returned so
// deadlock detection and proviso fallback need no recomputation.
func (e *explorer) successors(s gcl.State, w *wctx) (succs []gcl.Succ, aLo, aHi int) {
	buf := &w.buf
	base := len(buf.Succs())
	for pid := 0; pid < e.p.N; pid++ {
		start := len(buf.Succs())
		e.p.SuccsInto(s, pid, e.opts.Mode, buf)
		sl := buf.Succs()
		if e.por && aHi == aLo && len(sl) > start &&
			e.ampleProcessOK(e.p.PC(s, pid), sl[start:]) {
			aLo, aHi = start-base, len(sl)-base
		}
	}
	succs = buf.Succs()[base:]
	if e.por {
		// Local-chain compression (Lipton-style step merging): every
		// emitted successor is chased through the run of single-candidate
		// ample steps that follows it, and only the chain's end is
		// emitted. The skipped intermediates cannot violate an invariant
		// (every chained action is invisible, and the stored predecessor
		// already passed), cannot deadlock (they have the chain action
		// enabled), and cannot disable any deferred action of another
		// process (chained actions are independent of everything), so the
		// deferred actions are all still enabled at the chain's end, which
		// is stored and expanded normally. Storing intermediates would
		// only record dead interleaving bookkeeping — and, under symmetry,
		// manufacture straggler orbits whose sole difference from stored
		// states is a process sitting a few local steps behind.
		for i := range succs {
			succs[i] = e.chase(succs[i], buf)
		}
	}
	for _, pid := range e.crashers {
		dst := buf.Alloc(len(s))
		e.p.CrashSuccInto(dst, s, pid)
		buf.Append(gcl.Succ{State: dst, Pid: pid, LabelIdx: crashLabelIdx})
	}
	succs = buf.Succs()[base:]
	if e.reset {
		for i := range succs {
			e.p.NormalizeCursorsInPlace(succs[i].State)
		}
	}
	return succs, aLo, aHi
}

// ampleProcessOK reports whether a process's complete branch set at pc
// permits singling it out as the ample process, given its currently
// enabled successors: every enabled branch must be eligible (local and
// invisible), and every disabled branch must have a guard free of shared
// reads — a disabled shared-guarded branch could be enabled by another
// process's write before the ample action fires, which would execute a
// dependent action first and violate C1. Guards without shared reads
// cannot change truth while their process stands still, so such disabled
// branches stay disabled until after the ample action.
func (e *explorer) ampleProcessOK(pc int, enabled []gcl.Succ) bool {
	var mask uint64
	for i := range enabled {
		mask |= 1 << uint(enabled[i].Branch)
	}
	return e.ampleProcessOKMask(pc, mask)
}

// ampleProcessOKMask is ampleProcessOK on an enabled-branch bitmask.
func (e *explorer) ampleProcessOKMask(pc int, enabled uint64) bool {
	for bi := range e.porOK[pc] {
		if enabled&(1<<uint(bi)) != 0 {
			if !e.porOK[pc][bi] {
				return false
			}
		} else if e.porGuardShared[pc][bi] {
			return false
		}
	}
	return true
}

// ampleSingle reports the unique ample candidate of u, if the ample
// process exists and has exactly one enabled branch: the precondition for
// continuing a local chain. Selection mirrors successors exactly (lowest
// eligible pid), which is what lets traces re-derive chains. Eligibility
// is decided from guard evaluation alone; the one successor state is
// materialised only when the chain actually continues.
func (e *explorer) ampleSingle(u gcl.State, buf *gcl.SuccBuf) (gcl.Succ, bool) {
	for pid := 0; pid < e.p.N; pid++ {
		pc := e.p.PC(u, pid)
		if e.ampleNever[pc] {
			continue
		}
		mask := e.p.EnabledMask(u, pid, buf)
		if mask == 0 || !e.ampleProcessOKMask(pc, mask) {
			continue
		}
		if mask&(mask-1) != 0 {
			return gcl.Succ{}, false // nondeterministic local step: chain stops
		}
		bi := bits.TrailingZeros64(mask)
		dst := buf.Alloc(len(u))
		ov := e.p.ApplyInto(dst, u, pid, bi, e.opts.Mode, buf)
		return gcl.Succ{State: dst, Pid: pid, LabelIdx: int32(pc), Branch: bi, Overflow: ov}, true
	}
	return gcl.Succ{}, false
}

// chase follows single-candidate ample steps from sc's state, bounded by
// chaseCap (a cycle of local actions would otherwise spin), and returns
// the chain's last transition. Purely state-deterministic — no store
// access — so expansion workers may chase concurrently and traces can
// replay the same chain later.
func (e *explorer) chase(sc gcl.Succ, buf *gcl.SuccBuf) gcl.Succ {
	for hops := 0; hops < e.chaseCap; hops++ {
		next, ok := e.ampleSingle(sc.State, buf)
		if !ok {
			return sc
		}
		sc = next
	}
	return sc
}

// expansionOf expands head for the merge step. In parallel mode the head
// comes from a chunk the pre-pass expanded (prepass.expansion). Otherwise
// head is expanded alone into the explorer's own context, recycled per
// head, as in sequential mode.
func (e *explorer) expansionOf(head int32) *expansion {
	if e.pre != nil {
		if x := e.pre.expansion(e, head); x != nil {
			return x
		}
	}
	x := &e.seq
	e.wc.buf.Reset()
	e.wc.slab.Reset()
	e.expandInto(e.headState(&e.wc, e.slab.packed(uint32(head))), x, &e.wc)
	x.preps = grow(x.preps, len(x.succs))
	if e.wc.canon != nil {
		x.keys = &e.wc.slab
	}
	return x
}

// join waits for the pre-pass chunk in flight, if any, and stops the
// pool. Check and BuildGraph defer it, so no worker outlives the
// exploration.
func (e *explorer) join() {
	if e.pre != nil {
		e.pre.stop()
	}
}

// expandInto generates the successors of head state s into w and records
// them in x, leaving the probes unprepared.
func (e *explorer) expandInto(s gcl.State, x *expansion, w *wctx) {
	x.succs, x.aLo, x.aHi = e.successors(s, w)
	x.progress, x.ahead = false, false
	for i := range x.succs {
		if x.succs[i].LabelIdx >= 0 {
			x.progress = true
			break
		}
	}
}

// commit picks the successors a head at depth d merges, succs[lo:hi]: its
// ample segment when the C3 proviso holds at this point of the merge (see
// ampleOK), all of them otherwise. Probes not prepared ahead are prepared
// here, the segment's first and the complement's only when the proviso
// fails, so no probe is computed twice. Each batch of probes is
// prefetched from the exact store's table before it is looked up.
func (e *explorer) commit(x *expansion, d int32) (lo, hi int) {
	if x.aHi > x.aLo {
		if !x.ahead {
			e.prepSuccs(&e.wc, x.succs[x.aLo:x.aHi], x.preps[x.aLo:x.aHi])
		}
		e.prefetch(x.preps[x.aLo:x.aHi])
		if e.ampleOK(x, d) {
			return x.aLo, x.aHi
		}
		if !x.ahead {
			e.prepSuccs(&e.wc, x.succs[:x.aLo], x.preps[:x.aLo])
			e.prepSuccs(&e.wc, x.succs[x.aHi:], x.preps[x.aHi:])
		}
		e.prefetch(x.preps[:x.aLo])
		e.prefetch(x.preps[x.aHi:len(x.succs)])
	} else {
		if !x.ahead {
			e.prepSuccs(&e.wc, x.succs, x.preps)
		}
		e.prefetch(x.preps[:len(x.succs)])
	}
	return 0, len(x.succs)
}

// prefetch loads the exact tier's home slots of probes ps ahead of their
// lookups (fpTable.prefetch); the bitstate tier takes no prefetch.
func (e *explorer) prefetch(ps []prep) {
	if e.table != nil {
		e.table.prefetch(ps)
	}
}

// ampleOK decides the BFS cycle proviso (C3) for a state at depth d: a
// reduced expansion is allowed only if every ample successor is either not
// yet in the visited store (it will be numbered at depth d+1) or already
// stored at exactly depth d+1. Every edge a reduced expansion keeps
// therefore strictly increases depth by one, and depth cannot strictly
// increase around a cycle, so every cycle of the reduced graph contains at
// least one fully expanded state — no enabled action is ignored forever.
// (The classic stricter proviso — all successors fresh — breaks ties the
// same way but refuses harmless cross-edges within the next BFS level,
// which in diamond-shaped interleaving lattices vetoes most reductions.)
// The merge decides it in merge order, so the answer does not depend on
// how far ahead the pre-pass ran.
func (e *explorer) ampleOK(x *expansion, d int32) bool {
	for i := x.aLo; i < x.aHi; i++ {
		if idx, ok := e.lookup(&x.preps[i]); ok && e.depthOf(idx) != d+1 {
			return false
		}
	}
	return true
}

// lookup makes the store lookup for a prepared probe, returning the state's
// number; the exact tier's table takes the width prepSuccs computed, and
// its answer is the slab index. The bitstate tier answers membership only
// (number -1).
func (e *explorer) lookup(pr *prep) (int32, bool) {
	if e.table != nil {
		i := e.table.find(pr.fp, pr.key, pr.width == rawWidth)
		return int32(i), i >= 0
	}
	return e.bits.Lookup(pr.fp, pr.key)
}

// addSucc numbers successor i of head if it is new, returning its index and
// whether it was fresh. Only the merge calls it; the order of its calls is
// the state numbering. The probe is the one commit prepared, so the ample
// candidates ampleOK already looked up pay no second canonicalization. The
// successor, its key and its witness may sit in recycled scratch;
// appendState copies what it keeps. A fresh state opens a level when head
// lies in the deepest one so far (the initial state, head -1, opens level
// 0).
func (e *explorer) addSucc(x *expansion, i int, head int32) (int32, bool) {
	pr := &x.preps[i]
	if idx, ok := e.lookup(pr); ok {
		return idx, false
	}
	idx := e.appendState(pr, x.witness(i), x.succs[i].State)
	e.parent.push(head)
	if len(e.levels) == 0 || head >= e.levels[len(e.levels)-1] {
		e.levels = append(e.levels, idx)
	}
	return idx, true
}

// Check explores the reachable states of p breadth-first, verifying the
// configured invariants, and returns as soon as a violation or deadlock is
// found (the BFS order makes the returned counterexample shortest).
// Options.Workers sets how many goroutines expand states; the result does
// not depend on it.
func Check(p *gcl.Prog, opts Options) *Result {
	plan, err := planFor(p, opts, SafetyAnalysis{Invariants: opts.Invariants})
	if err != nil {
		// Safety never needs exactness, so only malformed StoreOptions land
		// here — a programming error (commands pre-validate via
		// ParseStoreSpec).
		panic(err)
	}
	start := time.Now()
	e := newExplorer(p, opts, plan)
	defer e.join()
	res := &Result{Prog: p, Symmetry: e.symmetry, POR: e.por}

	// finish completes the result, building the counterexample, if any,
	// after the store report: tracing may probe the store again (producer),
	// which must not reach the report.
	finish := func(counterexample func()) *Result {
		res.States = e.numStates()
		res.Store = e.storeReport()
		if counterexample != nil {
			counterexample()
		}
		res.Elapsed = time.Since(start)
		return res
	}
	violation := func(v, idx int32) *Result {
		return finish(func() {
			res.Violation = &Violation{Invariant: e.opts.Invariants[v].Name, Trace: e.trace(idx)}
		})
	}

	init := p.InitState()
	idx := e.addInit(init)
	if v := e.checkInvariants(init); v >= 0 {
		return violation(v, idx)
	}

	d := int32(0)
	for head := int32(0); int(head) < e.numStates(); head++ {
		if e.numStates() >= e.opts.MaxStates {
			return finish(nil)
		}
		if int(d+1) < len(e.levels) && head == e.levels[d+1] {
			d++
		}
		res.Depth = int(d)
		x := e.expansionOf(head)
		lo, hi := e.commit(x, d)
		for i := lo; i < hi; i++ {
			res.Transitions++
			idx, fresh := e.addSucc(x, i, head)
			if !fresh {
				continue
			}
			if v := e.checkInvariants(x.succs[i].State); v >= 0 {
				return violation(v, idx)
			}
		}
		if opts.Deadlock && !x.progress {
			return finish(func() {
				t := e.trace(head)
				res.Deadlock = &t
			})
		}
	}
	res.Complete = true
	return finish(nil)
}
