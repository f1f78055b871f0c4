package mc

import (
	"fmt"
	"sort"
	"strings"

	"bakerypp/internal/gcl"
)

// This file checks the paper's Section 6.2 refinement claim — "every
// execution of Bakery++ is a valid execution of Bakery" — in its observable
// form: every sequence of critical-section entry/exit events that Bakery++
// can produce, Bakery can produce too. The check is a bounded weak
// (stuttering) trace-inclusion search: the implementation's transitions are
// explored exhaustively while a belief set tracks every specification state
// consistent with the observable events so far; if the belief set ever
// empties, the implementation produced an observable behaviour the
// specification cannot, and the implementation trace is returned as a
// counterexample.
//
// Two bounds make the search finite even though classic Bakery's state
// space is not: the number of observable events along any explored
// implementation path (MaxEvents) and a ceiling on the specification's
// register values (states above the ceiling are pruned; the ceiling must be
// generous enough that pruning never causes a spurious failure — in
// practice a few events' worth of ticket growth).

// Event labels have the form "enter:<pid>" and "exit:<pid>"; internal moves
// are the empty string (tau).
func eventOf(p *gcl.Prog, pid int, preLabel, postLabel string) string {
	switch {
	case preLabel != "cs" && postLabel == "cs":
		return fmt.Sprintf("enter:%d", pid)
	case preLabel == "cs" && postLabel != "cs":
		return fmt.Sprintf("exit:%d", pid)
	default:
		return ""
	}
}

// RefinementOptions bounds the search.
type RefinementOptions struct {
	// MaxEvents is the number of observable events explored along each
	// implementation path (default 6).
	MaxEvents int
	// Ceiling prunes specification states holding any shared value above
	// it (default 4 * (MaxEvents + 2), ample for bakery-family tickets).
	Ceiling int64
	// MaxNodes bounds the search's memoised node count (default 2e6).
	MaxNodes int
	// Store configures the memo's visited-set tier. Lossy modes are refused
	// (a false "already memoized" hit would prune an unexplored behaviour
	// and could mask a counterexample); exact,spill is accepted.
	Store StoreOptions
}

// RefinementResult reports the outcome.
type RefinementResult struct {
	// Holds is true when every explored implementation behaviour was
	// matched by the specification within the bounds.
	Holds bool
	// Counterexample, when Holds is false, is an implementation trace
	// whose observable event sequence the specification cannot produce.
	Counterexample *Trace
	// FailEvent is the observable event the specification could not match.
	FailEvent string
	// Nodes is the number of distinct (impl state, belief) pairs explored.
	Nodes int
	// Beliefs is the number of distinct specification belief sets built.
	Beliefs int
}

// CheckBoundedRefinement verifies that impl observably refines spec within
// the bounds. Both programs must follow the specs package conventions (a
// "cs" label marking the critical section) and have the same process count.
func CheckBoundedRefinement(impl, spec *gcl.Prog, opts RefinementOptions) (*RefinementResult, error) {
	if impl.N != spec.N {
		return nil, fmt.Errorf("mc: refinement needs equal process counts (impl %d, spec %d)", impl.N, spec.N)
	}
	if !impl.HasLabel("cs") || !spec.HasLabel("cs") {
		return nil, fmt.Errorf("mc: refinement needs a cs label in both programs")
	}
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 6
	}
	if opts.Ceiling == 0 {
		opts.Ceiling = 4 * int64(opts.MaxEvents+2)
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 2_000_000
	}

	// The pipeline declares refinement as pinning EVERY pid (observable
	// events name concrete processes on both sides), so the plan never
	// selects a reduction regardless of the requested options — and refuses
	// a lossy memo store outright.
	plan, err := planFor(impl, Options{Store: opts.Store}, RefinementAnalysis{})
	if err != nil {
		return nil, err
	}
	r := &refiner{impl: impl, spec: spec, opts: opts,
		beliefIDs: map[string]int{}, memo: newSeqStore(plan.Store)}
	res := &RefinementResult{}

	initBelief := r.tauClosure([]gcl.State{spec.InitState()})
	type node struct {
		implState gcl.State
		belief    int
		remaining int
		parent    int
		viaPid    int
		viaLabel  string
	}
	nodes := []node{{
		implState: impl.InitState(),
		belief:    r.beliefID(initBelief),
		remaining: opts.MaxEvents,
		parent:    -1,
	}}
	r.memoize(nodes[0].implState, nodes[0].belief, nodes[0].remaining)

	buildTrace := func(i int, extra *gcl.Succ) *Trace {
		var rev []int
		for k := i; k >= 0; k = nodes[k].parent {
			rev = append(rev, k)
		}
		t := &Trace{Prog: impl, Init: nodes[rev[len(rev)-1]].implState}
		for k := len(rev) - 2; k >= 0; k-- {
			nd := nodes[rev[k]]
			t.Steps = append(t.Steps, Step{Pid: nd.viaPid, Label: nd.viaLabel, State: nd.implState})
		}
		if extra != nil {
			t.Steps = append(t.Steps, Step{Pid: extra.Pid, Label: extra.Label(impl), State: extra.State})
		}
		return t
	}

	for head := 0; head < len(nodes); head++ {
		if len(nodes) > opts.MaxNodes {
			return nil, fmt.Errorf("mc: refinement search exceeded %d nodes", opts.MaxNodes)
		}
		nd := nodes[head]
		pre := nd.implState
		for _, sc := range impl.AllSuccs(pre, gcl.ModeUnbounded) {
			ev := eventOf(impl, sc.Pid, impl.PCLabel(pre, sc.Pid), impl.PCLabel(sc.State, sc.Pid))
			nextBelief := nd.belief
			nextRemaining := nd.remaining
			if ev != "" {
				if nd.remaining == 0 {
					continue // event budget exhausted along this path
				}
				moved := r.move(r.beliefs[nd.belief], ev)
				if len(moved) == 0 {
					res.Holds = false
					res.FailEvent = ev
					sc := sc
					res.Counterexample = buildTrace(head, &sc)
					res.Nodes = len(nodes)
					res.Beliefs = len(r.beliefs)
					return res, nil
				}
				nextBelief = r.beliefID(moved)
				nextRemaining = nd.remaining - 1
			}
			if !r.memoize(sc.State, nextBelief, nextRemaining) {
				continue
			}
			nodes = append(nodes, node{
				implState: sc.State,
				belief:    nextBelief,
				remaining: nextRemaining,
				parent:    head,
				viaPid:    sc.Pid,
				viaLabel:  sc.Label(impl),
			})
		}
	}
	res.Holds = true
	res.Nodes = len(nodes)
	res.Beliefs = len(r.beliefs)
	return res, nil
}

type refiner struct {
	impl, spec *gcl.Prog
	opts       RefinementOptions
	beliefs    [][]gcl.State
	beliefIDs  map[string]int
	// memo maps (impl state, belief id) to the largest remaining event
	// budget already explored, keyed on the state with the belief id as
	// one more word; memoKey is the buffer the key is built in, reused
	// since Insert copies. Refinement relates concrete pids on both sides,
	// so keys are concrete states.
	memo    *seqStore
	memoKey gcl.State
}

// memoize records the visit and reports whether exploration should proceed
// (i.e. this pair was never seen with at least this much event budget).
func (r *refiner) memoize(implState gcl.State, belief, remaining int) bool {
	key := append(append(r.memoKey[:0], implState...), int32(belief))
	r.memoKey = key
	fp := key.Fingerprint()
	if prev, ok := r.memo.Lookup(fp, key); ok && int(prev) >= remaining {
		return false
	}
	r.memo.Insert(fp, key, int32(remaining))
	return true
}

// withinCeiling rejects spec states holding any shared value above Ceiling.
func (r *refiner) withinCeiling(s gcl.State) bool {
	for _, name := range r.spec.SharedNames() {
		if int64(r.spec.MaxShared(s, name)) > r.opts.Ceiling {
			return false
		}
	}
	return true
}

// tauClosure expands a set of spec states with every state reachable by
// internal (non-event) transitions, pruning above the ceiling.
func (r *refiner) tauClosure(seed []gcl.State) []gcl.State {
	seen := newSeqStore(StoreOptions{})
	var out []gcl.State
	var queue []gcl.State
	push := func(s gcl.State) {
		fp := s.Fingerprint()
		if _, dup := seen.Lookup(fp, s); !dup {
			seen.Insert(fp, s, int32(len(out)))
			out = append(out, s)
			queue = append(queue, s)
		}
	}
	for _, s := range seed {
		if r.withinCeiling(s) {
			push(s)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, sc := range r.spec.AllSuccs(s, gcl.ModeUnbounded) {
			ev := eventOf(r.spec, sc.Pid, r.spec.PCLabel(s, sc.Pid), r.spec.PCLabel(sc.State, sc.Pid))
			if ev != "" || !r.withinCeiling(sc.State) {
				continue
			}
			push(sc.State)
		}
	}
	return out
}

// move returns the tau-closed set of spec states reachable from the belief
// by exactly one occurrence of event ev.
func (r *refiner) move(belief []gcl.State, ev string) []gcl.State {
	var landed []gcl.State
	seen := newSeqStore(StoreOptions{})
	for _, s := range belief {
		for _, sc := range r.spec.AllSuccs(s, gcl.ModeUnbounded) {
			got := eventOf(r.spec, sc.Pid, r.spec.PCLabel(s, sc.Pid), r.spec.PCLabel(sc.State, sc.Pid))
			if got != ev || !r.withinCeiling(sc.State) {
				continue
			}
			fp := sc.State.Fingerprint()
			if _, dup := seen.Lookup(fp, sc.State); !dup {
				seen.Insert(fp, sc.State, int32(len(landed)))
				landed = append(landed, sc.State)
			}
		}
	}
	return r.tauClosure(landed)
}

// beliefID interns a belief set by its canonical key.
func (r *refiner) beliefID(states []gcl.State) int {
	keys := make([]string, len(states))
	for i, s := range states {
		keys[i] = r.spec.Key(s)
	}
	sort.Strings(keys)
	canon := strings.Join(keys, "|")
	if id, ok := r.beliefIDs[canon]; ok {
		return id
	}
	id := len(r.beliefs)
	r.beliefIDs[canon] = id
	r.beliefs = append(r.beliefs, states)
	return id
}
