package mc

import (
	"fmt"

	"bakerypp/internal/gcl"
)

// This file checks first-come-first-served entry — the bakery algorithm's
// first remarkable property (paper Section 1.2) — as a model-checked
// property rather than a simulation statistic. FCFS is not a state
// invariant: it relates the order of doorway completions to the order of
// critical-section entries along an execution. So a monitor automaton is
// composed into the program as one shared cell (gcl.Prog.WithMonitor, the
// never-claim construction), and FCFS becomes the invariant "the monitor is
// not in phase 3", which Check's engine verifies:
//
//	phase 0: watching. When `first` completes its doorway
//	         (tag "doorway-done") -> phase 1.
//	phase 1: first has a ticket. If first enters cs -> phase 0 (served in
//	         order). If `second` leaves its noncritical section
//	         (tag "try") -> phase 2.
//	phase 2: second arrived strictly after first's doorway completed.
//	         If first enters cs -> phase 0. If second enters cs before
//	         first -> phase 3, the FCFS VIOLATION.
//
// The monitored program's state space is explored exhaustively; a
// violation comes with the shortest witnessing interleaving.

// fcfsCell names the monitor's phase cell in the monitored program.
const fcfsCell = "fcfs-phase"

// fcfsViolated is the monitor phase of a violation.
const fcfsViolated = 3

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
	// States counts the monitored program's states, the violating one
	// included.
	States int
	// Witness is the violating execution when Holds is false, over Prog's
	// states (the monitor cell dropped).
	Witness *Trace
	// Symmetry reports that the monitored program was deduplicated on
	// pinned-orbit representatives: states related by a permutation of the
	// NON-pinned pids share one entry. Requested via Options.Symmetry,
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

// fcfsUpdate returns the monitor's phase step per branch tag, for
// WithMonitor: each adds to the phase the indicator of its transitions.
func fcfsUpdate(first, second int) func(tag string) (gcl.Expr, bool) {
	phase := gcl.Sh(fcfsCell)
	// at is 1 when process pid moves while the monitor is in phase k.
	at := func(pid, k int) gcl.Expr {
		return gcl.And(gcl.Eq(gcl.Self(), gcl.C(pid)), gcl.Eq(phase, gcl.C(k)))
	}
	return func(tag string) (gcl.Expr, bool) {
		switch tag {
		case "doorway-done":
			return gcl.Add(phase, at(first, 0)), true
		case "try":
			return gcl.Add(phase, at(second, 1)), true
		case "cs-enter":
			// second: 2 -> 3; first: 1 -> 0 and 2 -> 0.
			return gcl.Sub(gcl.Add(phase, at(second, 2)),
				gcl.Add(at(first, 1), gcl.Add(at(first, 2), at(first, 2)))), true
		}
		return gcl.Expr{}, false
	}
}

// fcfsMonitored returns p composed with the FCFS monitor for the pair, and
// the monitor's invariant. WithMonitor declares the phase cell last among
// the shared words.
func fcfsMonitored(p *gcl.Prog, first, second int) (*gcl.Prog, Invariant) {
	mp := p.WithMonitor(fcfsCell, fcfsUpdate(first, second))
	cell := mp.SharedCells() - 1
	return mp, Invariant{Name: "fcfs", Holds: func(_ *gcl.Prog, s gcl.State) bool {
		return s[cell] != fcfsViolated
	}}
}

// CheckFCFS verifies first-come-first-served entry for the ordered process
// pair (first, second): whenever first completes its doorway before second
// begins competing, first enters the critical section before second. The
// program must carry the specs package's "doorway-done", "try" and
// "cs-enter" branch tags. It runs Check's engine on the monitored program
// in ModeUnbounded (the phase may exceed M) with the monitor's invariant
// alone, under FCFSAnalysis's plan. Options.MaxStates bounds the
// exploration (0 = DefaultMaxStates) and Options.Workers sets the engine's
// goroutines; the result does not depend on it. Options.Symmetry requests
// pinned-orbit deduplication — the monitor names the pair, so the engine
// canonicalizes over the permutations fixing first and second only. Dedup
// is again representative-only: a violation witness is a real execution.
// Options.Invariants, Deadlock, Crash and POR do not apply. A lossy
// Options.Store is refused with an error: one false membership hit could
// prune the states that hold a violation (exact,spill is fine).
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
	if opts.MaxStates == 0 {
		opts.MaxStates = DefaultMaxStates
	}
	mp, inv := fcfsMonitored(p, first, second)
	res, err := check(mp, Options{
		Invariants: []Invariant{inv},
		MaxStates:  opts.MaxStates,
		Mode:       gcl.ModeUnbounded,
		Workers:    opts.Workers,
		Symmetry:   opts.Symmetry,
		Store:      opts.Store,
	}, FCFSAnalysis{First: first, Second: second})
	if err != nil {
		return nil, err
	}
	out := &FCFSResult{Prog: p, First: first, Second: second, Holds: res.Violation == nil,
		Complete: res.Complete, States: res.States, Symmetry: res.Symmetry}
	if v := res.Violation; v != nil {
		// drop removes the monitor cell, leaving a state of p.
		cell := mp.SharedCells() - 1
		drop := func(s gcl.State) gcl.State { return append(s[:cell:cell], s[cell+1:]...) }
		out.Witness = &Trace{Prog: p, Init: drop(v.Trace.Init)}
		for _, st := range v.Trace.Steps {
			out.Witness.Steps = append(out.Witness.Steps, Step{Pid: st.Pid, Label: st.Label, State: drop(st.State)})
		}
	}
	return out, nil
}
