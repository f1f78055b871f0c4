package mc

import (
	"fmt"

	"bakerypp/internal/gcl"
)

// This file checks first-come-first-served entry — the bakery algorithm's
// first remarkable property (paper Section 1.2) — as a model-checked
// property rather than a simulation statistic. FCFS is not a state
// invariant: it relates the order of doorway completions to the order of
// critical-section entries along an execution, so it is checked as a
// monitor automaton composed with the program:
//
//	phase 0: watching. When `first` completes its doorway
//	         (tag "doorway-done") -> phase 1.
//	phase 1: first has a ticket. If first enters cs -> phase 0 (served in
//	         order). If `second` leaves its noncritical section
//	         (tag "try") -> phase 2.
//	phase 2: second arrived strictly after first's doorway completed.
//	         If second enters cs before first -> FCFS VIOLATION.
//	         If first enters cs -> phase 0.
//
// The product state space (program state × phase) is explored exhaustively;
// a violation comes with the shortest witnessing interleaving.

// FCFSResult reports an FCFS check.
type FCFSResult struct {
	Prog   *gcl.Prog
	First  int
	Second int
	// Holds is true when no reachable execution violates FCFS for the
	// ordered pair (first, second).
	Holds bool
	// Complete is false if the state bound was hit first.
	Complete bool
	States   int
	// Witness is the violating execution when Holds is false.
	Witness *Trace
	// Symmetry reports that the product was deduplicated on pinned-orbit
	// representatives: states related by a permutation of the NON-pinned
	// pids share one product entry. Requested via Options.Symmetry,
	// applied when the spec supports it (see analysis.go).
	Symmetry bool
}

// String renders a one-line summary.
func (r *FCFSResult) String() string {
	status := "FCFS holds"
	if !r.Holds {
		status = "FCFS VIOLATED"
	} else if !r.Complete {
		status = "FCFS holds up to state bound"
	}
	sym := ""
	if r.Symmetry {
		sym = " [pinned-symmetry]"
	}
	return fmt.Sprintf("%s: %s for pair (%d, %d) — %d product states%s",
		r.Prog.Name, status, r.First, r.Second, r.States, sym)
}

// CheckFCFS verifies first-come-first-served entry for the ordered process
// pair (first, second): whenever first completes its doorway before second
// begins competing, first enters the critical section before second. The
// program must carry the specs package's "doorway-done", "try" and
// "cs-enter" branch tags. Options.MaxStates bounds the product exploration
// (0 = DefaultMaxStates); Options.Symmetry requests pinned-orbit
// deduplication — the monitor names the pair, so the pipeline
// canonicalizes over the permutations fixing first and second only
// (FCFSAnalysis in analysis.go). Dedup is again representative-only:
// stored product nodes are concrete states discovered from their concrete
// parents, so a violation witness is a real execution. Other Options
// fields (Workers, POR, Crash) do not apply to the monitor product. A
// lossy Options.Store is refused with an error: the monitor prunes whole
// product subtrees on membership answers, so one fingerprint collision
// could silently mask a violation (exact,spill is fine).
func CheckFCFS(p *gcl.Prog, first, second int, opts Options) (*FCFSResult, error) {
	if first == second || first < 0 || second < 0 || first >= p.N || second >= p.N {
		panic(fmt.Sprintf("mc: bad FCFS pair (%d, %d) for N=%d", first, second, p.N))
	}
	tags := p.BranchTags()
	for _, need := range []string{"doorway-done", "try", "cs-enter"} {
		if tags[need] == 0 {
			panic(fmt.Sprintf("mc: %s lacks the %q tag needed for FCFS checking", p.Name, need))
		}
	}
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	plan, err := planFor(p, opts, FCFSAnalysis{First: first, Second: second})
	if err != nil {
		return nil, err
	}
	res := &FCFSResult{Prog: p, First: first, Second: second, Holds: true,
		Symmetry: plan.Pinned != nil}

	type node struct {
		st     gcl.State
		phase  int8
		parent int32
		byPid  int8
		label  string
	}
	// The visited set over (program state, monitor phase) product nodes:
	// the shared StateStore keyed on the state with the phase appended.
	// The monitor pins a concrete process pair, so full-orbit symmetry is
	// out — but the plan may select pinned-orbit keying, which collapses
	// states related by permutations of the remaining pids.
	nodes := []node{{st: p.InitState(), phase: 0, parent: -1, byPid: -1}}
	seen := newStateStore(p, plan)
	fp0, key0 := seen.Prepare(nodes[0].st, 0)
	seen.Insert(fp0, key0, 0)

	// The product loop probes the store through a per-head key slab instead
	// of the allocating Prepare path: successors are generated into a
	// reusable SuccBuf, and each probe key (pinned-canonical under symmetry,
	// concrete otherwise, plus the phase word) is packed into the slab —
	// Insert copies the keys of FRESH product nodes, and only their states
	// are copied out, into nodeStates, an arena that is never reset.
	// Duplicates — the vast majority in a dense product — cost no
	// allocation at all.
	var (
		buf        gcl.SuccBuf
		scratch    gcl.KeySlab
		nodeStates gcl.SuccBuf
		canon      *gcl.Canonicalizer
	)
	if plan.Pinned != nil {
		canon = p.NewCanonicalizer()
	}

	buildTrace := func(i int32, extra *gcl.Succ) *Trace {
		var rev []int32
		for k := i; k >= 0; k = nodes[k].parent {
			rev = append(rev, k)
		}
		t := &Trace{Prog: p, Init: nodes[rev[len(rev)-1]].st}
		for k := len(rev) - 2; k >= 0; k-- {
			nd := nodes[rev[k]]
			t.Steps = append(t.Steps, Step{Pid: int(nd.byPid), Label: nd.label, State: nd.st})
		}
		if extra != nil {
			t.Steps = append(t.Steps, Step{Pid: extra.Pid, Label: extra.Label(p), State: extra.State})
		}
		return t
	}

	for head := int32(0); head < int32(len(nodes)); head++ {
		if len(nodes) >= maxStates {
			res.Complete = false
			res.States = len(nodes)
			return res, nil
		}
		nd := nodes[head]
		buf.Reset()
		scratch.Reset()
		p.AllSuccsInto(nd.st, gcl.ModeUnbounded, &buf)
		for _, sc := range buf.Succs() {
			phase, tag := nd.phase, sc.Tag(p)
			switch {
			case phase == 0 && sc.Pid == first && tag == "doorway-done":
				phase = 1
			case phase == 1 && sc.Pid == first && tag == "cs-enter":
				phase = 0
			case phase == 1 && sc.Pid == second && tag == "try":
				phase = 2
			case phase == 2 && sc.Pid == first && tag == "cs-enter":
				phase = 0
			case phase == 2 && sc.Pid == second && tag == "cs-enter":
				res.Holds = false
				res.States = len(nodes)
				sc := sc
				res.Witness = buildTrace(head, &sc)
				return res, nil
			}
			probe := sc.State
			if canon != nil {
				probe = canon.CanonicalizePinned(sc.State, plan.Pinned)
			}
			ki := scratch.AppendKey(probe, int32(phase))
			fp, key := scratch.Fp(ki), scratch.Key(ki)
			if _, dup := seen.Lookup(fp, key); dup {
				continue
			}
			seen.Insert(fp, key, int32(len(nodes)))
			nodes = append(nodes, node{
				st: nodeStates.CopyIn(sc.State), phase: phase, parent: head,
				byPid: int8(sc.Pid), label: sc.Label(p),
			})
		}
	}
	res.Complete = true
	res.States = len(nodes)
	return res, nil
}
