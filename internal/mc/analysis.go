package mc

// The property-driven analysis pipeline. Every entry point of this package
// — Check, BuildGraph and its SCC/starvation/no-progress analyses,
// CheckFCFS, CheckBoundedRefinement — used to gate its own reductions with
// ad-hoc flag checks, and everything except Check silently fell back to
// the full state space. They now share one declarative scheme: an Analysis
// states what it NEEDS from the exploration (edges, depth, cycle
// preservation, which process identities its property distinguishes, what
// its predicates observe), and planFor picks the strongest reduction that
// is still sound for those needs:
//
//   - a safety property symmetric in all pids → full-orbit symmetry dedup;
//   - an analysis consuming the graph         → the dead-cursor reset
//     (Plan.Reset), an exact bisimulation, and no symmetry: on the reset
//     graph the symmetry quotient buys the cycle analyses no reduction
//     (cycles.go);
//   - a property pinning a few pids (FCFS)    → orbit dedup over the
//     subgroup of permutations fixing the pinned pids;
//   - a property distinguishing every pid     → no symmetry (refinement);
//   - cycle-sensitive analyses                → no POR (ample-set reduction
//     deliberately removes interleavings; its BFS proviso only guarantees
//     no action is ignored forever, not that every cycle survives);
//   - safety invariants with declared reads   → POR as before.
//
// The plan is engine-independent: both the sequential and the parallel
// engine execute the same plan and stay byte-identical for any Workers
// setting.

import (
	"fmt"

	"bakerypp/internal/gcl"
)

// Needs declares what an analysis requires of the exploration engine.
type Needs struct {
	// Edges requires the transition graph's adjacency to be recorded
	// (BuildGraph and everything downstream of it).
	Edges bool
	// Depth requires per-state BFS depth (entry-distance reporting).
	Depth bool
	// Cycles marks the analysis as cycle-sensitive: every cycle of the
	// full graph must survive into the reduced one, which rules out
	// partial-order reduction.
	Cycles bool
	// PinnedPids lists the process identities the property tells apart
	// (the FCFS pair). Empty means the property is symmetric in all pids.
	PinnedPids []int
	// AllPids marks a property that distinguishes every process identity
	// (refinement relates concrete pids on both sides); no symmetry
	// reduction is sound then.
	AllPids bool
	// Exact requires the visited set to never misreport a fresh state as
	// seen. Graph consumers address states by index and lift cycles through
	// them, the FCFS monitor and refinement memoization prune whole search
	// subtrees on membership answers — one silent omission corrupts those
	// structurally, not just probabilistically, so planFor refuses lossy
	// stores outright for such analyses.
	Exact bool
	// Observations collects the declared read sets of the predicates the
	// analysis evaluates; a nil entry means "may read anything" and
	// disables POR, exactly like Invariant.Observes.
	Observations []*Observation
}

// Analysis declares an exploration-consuming property check to the
// pipeline. Implementations are the four entry points' declarations; the
// engine never asks an Analysis to run itself — it only reads the needs
// and serves the matching exploration.
type Analysis interface {
	Name() string
	Needs() Needs
}

// SafetyAnalysis is Check's declaration: invariants plus optional deadlock
// detection, no graph, no pid identities.
type SafetyAnalysis struct{ Invariants []Invariant }

func (SafetyAnalysis) Name() string { return "safety" }
func (a SafetyAnalysis) Needs() Needs {
	return Needs{Observations: observationsOf(a.Invariants)}
}

// GraphAnalysis is BuildGraph's declaration, covering the SCC, starvation
// and no-progress analyses that consume the graph: cycle-sensitive, needs
// edges and depths. Its predicates may pin pids (the starved process); the
// graph is never symmetry-reduced, so PinnedPids stays empty.
type GraphAnalysis struct{ Invariants []Invariant }

func (GraphAnalysis) Name() string { return "graph" }
func (a GraphAnalysis) Needs() Needs {
	return Needs{Edges: true, Depth: true, Cycles: true, Exact: true,
		Observations: observationsOf(a.Invariants)}
}

// FCFSAnalysis is CheckFCFS's declaration: the monitor distinguishes the
// ordered pair (First, Second) and observes branch tags along every
// transition, so POR is out and symmetry must fix the pair.
type FCFSAnalysis struct{ First, Second int }

func (FCFSAnalysis) Name() string { return "fcfs" }
func (a FCFSAnalysis) Needs() Needs {
	return Needs{PinnedPids: []int{a.First, a.Second}, Exact: true,
		Observations: []*Observation{nil}} // tag visibility: beyond Observation's vocabulary
}

// RefinementAnalysis is CheckBoundedRefinement's declaration: observable
// events name concrete pids on both the implementation and specification
// side, so every identity is pinned and no reduction applies.
type RefinementAnalysis struct{}

func (RefinementAnalysis) Name() string { return "refinement" }
func (RefinementAnalysis) Needs() Needs {
	return Needs{AllPids: true, Exact: true, Observations: []*Observation{nil}}
}

// Plan is the reduction selection the pipeline made for one analysis run.
type Plan struct {
	// Symmetry: key the visited store on full-orbit canonical
	// representatives (dedup only; concrete states are kept and expanded).
	Symmetry bool
	// Pinned, when non-nil, keys the store on representatives canonical
	// over the permutation subgroup fixing these pids.
	Pinned []int
	// POR: ample-set partial-order reduction with local-chain compression.
	POR bool
	// Reset: zero every successor's dead scan cursors
	// (gcl.NormalizeCursorsInPlace), crash successors included. A dead
	// cursor is rewritten before it is next read (the PidLocal liveAt
	// contract), so the reset graph is an exact bisimulation of the full
	// one: every cycle verdict transfers. Planned for graph analyses.
	Reset bool
	// Store is the normalized visited-set configuration (storeopts.go).
	Store StoreOptions
}

// planFor selects the strongest sound reduction for an analysis on p under
// the requested options, and refuses store/analysis combinations that are
// unsound. It is deterministic and engine-independent.
func planFor(p *gcl.Prog, opts Options, a Analysis) (Plan, error) {
	needs := a.Needs()
	var pl Plan
	st, err := opts.Store.normalized()
	if err != nil {
		return pl, err
	}
	if st.Lossy() && needs.Exact {
		return pl, fmt.Errorf("mc: the %s analysis needs an exact visited set; store mode %q is unsound for it (use \"exact\" or \"exact,spill\")",
			a.Name(), st.String())
	}
	pl.Store = st
	crashSymOK := !opts.Crash || crashersCoverAll(crashersOf(p, opts), p.N)
	pl.Reset = needs.Edges
	if opts.Symmetry && !needs.AllPids && !needs.Edges && crashSymOK {
		if len(needs.PinnedPids) > 0 {
			if p.CanTrackPerms() {
				pinned := make([]int, len(needs.PinnedPids))
				copy(pinned, needs.PinnedPids)
				pl.Pinned = pinned
			}
		} else {
			pl.Symmetry = p.CanCanonicalize()
		}
	}
	// Crash transitions reset owned shared cells from every state, so no
	// action of any process is ever safe to single out; cycle-sensitive
	// analyses need every interleaving; a nil observation could watch
	// anything; a pinned or fully-pinned property may distinguish the
	// very interleavings POR merges. The bitstate store stores no values,
	// so the ample proviso's stored-depth lookups are impossible — POR is
	// silently dropped there (the store is already probabilistic).
	pl.POR = opts.POR && st.Mode != StoreBitstate && !opts.Crash && !needs.Cycles &&
		!needs.AllPids && len(needs.PinnedPids) == 0 &&
		observationsKnown(needs.Observations)
	return pl, nil
}

// PlanFor exposes the pipeline's reduction choice, mainly so tests and
// tools can assert what the engine will do for a given analysis without
// running it. The error reports store/analysis combinations the pipeline
// refuses as unsound.
func PlanFor(p *gcl.Prog, opts Options, a Analysis) (Plan, error) {
	return planFor(p, opts, a)
}

// observationsOf collects the invariants' declared read sets.
func observationsOf(invs []Invariant) []*Observation {
	out := make([]*Observation, len(invs))
	for i := range invs {
		out[i] = invs[i].Observes
	}
	return out
}

// observationsKnown reports whether every predicate declared its read set.
func observationsKnown(obs []*Observation) bool {
	for _, o := range obs {
		if o == nil {
			return false
		}
	}
	return true
}

// crashersOf resolves Options.CrashPids (empty = all processes) when crash
// transitions are on; nil otherwise.
func crashersOf(p *gcl.Prog, opts Options) []int {
	if !opts.Crash {
		return nil
	}
	if len(opts.CrashPids) > 0 {
		return opts.CrashPids
	}
	all := make([]int, p.N)
	for pid := range all {
		all[pid] = pid
	}
	return all
}
