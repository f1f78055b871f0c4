package mc

import (
	"fmt"
	"slices"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// This file pins the liveness pipeline's central contract for every
// registered finite-state specification at N <= 4: the starvation and
// no-progress analyses run on one dead-cursor-reset graph, identical edge
// for edge whether it is built sequentially or with -workers -1 and
// whether or not -symmetry is requested (cycle analyses never reduce by
// symmetry); every counterexample lasso replays as a concrete execution of
// the unreset system, re-verified here step by step with independent
// successor generation; and FCFS returns identical verdicts on the full
// product and under pinned-orbit symmetry. (Classic Bakery's unbounded
// graph cannot be built exhaustively, so it is swept on the bounded FCFS
// monitor only.) TestLivenessMatchesNaiveOracle checks the same verdicts
// against a naive search of the unreset graph.

// raceEnabled is set by race_enabled_test.go under the race detector; the
// heavy parity cell would take tens of minutes there.
var raceEnabled bool

type parityCell struct {
	algo  string
	cfg   specs.Config
	heavy bool // skipped with -short and under -race (the full FCFS product explores >1M states)
}

func parityCells() []parityCell {
	return []parityCell{
		{algo: "bakerypp", cfg: specs.Config{N: 2, M: 2}},
		{algo: "bakerypp", cfg: specs.Config{N: 3, M: 2}},
		{algo: "bakerypp", cfg: specs.Config{N: 3, M: 3}},
		{algo: "bakerypp", cfg: specs.Config{N: 4, M: 2}, heavy: true},
		{algo: "modbakery", cfg: specs.Config{N: 2, M: 2}},
		{algo: "modbakery", cfg: specs.Config{N: 3, M: 2}},
		{algo: "blackwhite", cfg: specs.Config{N: 2}},
		{algo: "blackwhite", cfg: specs.Config{N: 3}},
		{algo: "peterson", cfg: specs.Config{N: 2}},
		{algo: "peterson", cfg: specs.Config{N: 3}},
		{algo: "szymanski", cfg: specs.Config{N: 2}},
		{algo: "szymanski", cfg: specs.Config{N: 3}},
		{algo: "szymanski", cfg: specs.Config{N: 4}},
	}
}

// replayTrace walks steps from init, requiring every step to be a real
// transition (successor generation re-derived independently), and returns
// the matched branch tags alongside the final state.
func replayTrace(t *testing.T, p *gcl.Prog, init gcl.State, steps []Step) ([]string, gcl.State) {
	t.Helper()
	cur := init
	tags := make([]string, 0, len(steps))
	for i, st := range steps {
		matched := false
		tag := ""
		if st.Label == "CRASH" {
			if next := p.CrashSucc(cur, st.Pid); next.Equal(st.State) {
				matched = true
			}
		} else {
			for _, sc := range p.Succs(cur, st.Pid, gcl.ModeUnbounded, nil) {
				if sc.Label(p) == st.Label && sc.State.Equal(st.State) {
					matched = true
					tag = sc.Tag(p)
					break
				}
			}
		}
		if !matched {
			t.Fatalf("step %d (p%d:%s) is not a real transition of %s", i, st.Pid, st.Label, p.Name)
		}
		tags = append(tags, tag)
		cur = st.State
	}
	return tags, cur
}

// verifyStarvationLasso re-verifies a starvation report by concrete
// execution: entry path real, cycle real, predicate invariant on the
// cycle, all mustMove pids moving, and the cycle closing on its start
// state up to dead scan cursors.
func verifyStarvationLasso(t *testing.T, p *gcl.Prog, rep *StarvationReport,
	pred func(*gcl.Prog, gcl.State) bool, mustMove []int) {
	t.Helper()
	if len(rep.Cycle) == 0 {
		t.Fatal("report without a verified cycle")
	}
	if !rep.Entry.Init.Equal(p.InitState()) {
		t.Fatal("entry trace does not start at the initial state")
	}
	_, start := replayTrace(t, p, rep.Entry.Init, rep.Entry.Steps)
	if !pred(p, start) {
		t.Fatal("predicate fails at the cycle's start")
	}
	_, end := replayTrace(t, p, start, rep.Cycle)
	for i, st := range rep.Cycle {
		if !pred(p, st.State) {
			t.Fatalf("predicate fails at cycle step %d", i)
		}
	}
	moved := map[int]bool{}
	for _, st := range rep.Cycle {
		moved[st.Pid] = true
	}
	for _, pid := range mustMove {
		if !moved[pid] {
			t.Fatalf("required mover %d takes no step on the replayed cycle", pid)
		}
	}
	closes(t, p, start, end)
}

// closes requires a replayed cycle to end where it started, up to dead
// scan cursors: the graph's cycle is one of reset states, and the replay
// carries the cursor values the reset drops.
func closes(t *testing.T, p *gcl.Prog, start, end gcl.State) {
	t.Helper()
	if !p.NormalizeCursors(end).Equal(p.NormalizeCursors(start)) {
		t.Fatal("replayed cycle does not return to its start state up to dead cursors")
	}
}

// verifyNoProgressLasso is the analogue for no-progress reports: the
// replayed cycle must additionally take no cs-enter branch.
func verifyNoProgressLasso(t *testing.T, p *gcl.Prog, rep *NoProgressReport, mustMove []int) {
	t.Helper()
	if len(rep.Cycle) == 0 {
		t.Fatal("report without a verified cycle")
	}
	_, start := replayTrace(t, p, rep.Entry.Init, rep.Entry.Steps)
	tags, end := replayTrace(t, p, start, rep.Cycle)
	for i, tag := range tags {
		if tag == "cs-enter" {
			t.Fatalf("replayed no-progress cycle enters the critical section at step %d", i)
		}
	}
	moved := map[int]bool{}
	for _, st := range rep.Cycle {
		moved[st.Pid] = true
	}
	for _, pid := range mustMove {
		if !moved[pid] {
			t.Fatalf("required mover %d takes no step on the replayed cycle", pid)
		}
	}
	closes(t, p, start, end)
}

// TestLivenessVerdictParityFullVsQuotient: the graph a -symmetry request
// builds, in parallel, is the sequential full reset graph, edge for edge,
// and the analyses on the two agree on every verdict, component and move
// count; each lasso is re-verified by concrete execution.
func TestLivenessVerdictParityFullVsQuotient(t *testing.T) {
	for _, cell := range parityCells() {
		cell := cell
		name := fmt.Sprintf("%s-n%d-m%d", cell.algo, cell.cfg.N, cell.cfg.M)
		t.Run(name, func(t *testing.T) {
			if cell.heavy && (testing.Short() || raceEnabled) {
				t.Skip("full-side graph explores >1M states; skipped with -short and under -race")
			}
			mk := func() *gcl.Prog {
				p, err := specs.Get(cell.algo, cell.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			p := mk()
			live := specs.LivenessOf(p)
			full, err := BuildGraph(mk(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := BuildGraph(mk(), Options{Symmetry: true, Workers: -1})
			if err != nil {
				t.Fatal(err)
			}
			requireGraphsIdentical(t, full, par)
			if full.Summary.Symmetry || par.Summary.Symmetry {
				t.Fatal("a graph was symmetry-reduced")
			}

			slow := p.N - 1
			mustMoveFast := make([]int, 0, p.N-1)
			for pid := 0; pid < p.N; pid++ {
				if pid != slow {
					mustMoveFast = append(mustMoveFast, pid)
				}
			}
			sameStarvation := func(what string, fr, pr *StarvationReport) {
				t.Helper()
				if (fr == nil) != (pr == nil) {
					t.Fatalf("%s verdicts diverge: sequential=%v parallel=%v", what, fr != nil, pr != nil)
				}
				if fr != nil && (fr.ComponentSize != pr.ComponentSize || fr.EntryLen != pr.EntryLen ||
					!slices.Equal(fr.MovesByPid, pr.MovesByPid) || len(fr.Cycle) != len(pr.Cycle)) {
					t.Fatalf("%s reports diverge: %d states, moves %v, entry %d vs %d states, moves %v, entry %d",
						what, fr.ComponentSize, fr.MovesByPid, fr.EntryLen, pr.ComponentSize, pr.MovesByPid, pr.EntryLen)
				}
			}

			// Pinned starvation at the spec's declared gate label.
			if live.StarveAt != "" {
				li := p.LabelIndex(live.StarveAt)
				pred := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, slow) == li }
				fr := full.FindStarvation(pred, mustMoveFast)
				sameStarvation("starvation@"+live.StarveAt, fr, par.FindStarvation(pred, mustMoveFast))
				if fr != nil {
					verifyStarvationLasso(t, p, fr, pred, mustMoveFast)
				}
			}

			// Active starvation: the slow process keeps moving yet never
			// reaches cs (every spec declares a cs label).
			cs := p.LabelIndex("cs")
			activePred := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, slow) != cs }
			all := allPids(p.N)
			fr := full.FindStarvation(activePred, all)
			sameStarvation("active starvation", fr, par.FindStarvation(activePred, all))
			if fr != nil {
				verifyStarvationLasso(t, p, fr, activePred, all)
			}

			// Global no-progress.
			if live.NoProgress {
				fn := full.FindNoProgress(all)
				pn := par.FindNoProgress(all)
				if (fn == nil) != (pn == nil) {
					t.Errorf("no-progress verdicts diverge: sequential=%v parallel=%v", fn != nil, pn != nil)
				} else if fn != nil {
					if fn.ComponentSize != pn.ComponentSize || !slices.Equal(fn.MovesByPid, pn.MovesByPid) {
						t.Errorf("no-progress reports diverge: %d states, moves %v vs %d, %v",
							fn.ComponentSize, fn.MovesByPid, pn.ComponentSize, pn.MovesByPid)
					}
					verifyNoProgressLasso(t, p, fn, all)
				}
			}

			// FCFS for two pid pairs.
			if live.FCFS {
				for _, pair := range [][2]int{{0, 1}, {p.N - 1, 0}} {
					ff := mustFCFS(mk(), pair[0], pair[1], Options{})
					qf := mustFCFS(mk(), pair[0], pair[1], Options{Symmetry: true})
					if ff.Holds != qf.Holds {
						t.Errorf("FCFS(%d,%d) verdicts diverge: full=%v reduced=%v",
							pair[0], pair[1], ff.Holds, qf.Holds)
					}
					if qf.Symmetry && qf.States > ff.States {
						t.Errorf("FCFS(%d,%d): pinned reduction explored MORE states (%d > %d)",
							pair[0], pair[1], qf.States, ff.States)
					}
					if !qf.Holds {
						replayTrace(t, p, p.InitState(), qf.Witness.Steps)
					}
				}
			}
		})
	}
}

// Classic Bakery's graph is unbounded, so its reduction parity is swept on
// the bounded FCFS monitor: both runs hold within their bounds and the
// pinned reduction reaches at least as deep.
func TestLivenessParityBakeryBoundedFCFS(t *testing.T) {
	mk := func() *gcl.Prog { return specs.Bakery(specs.Config{N: 3, M: 1 << 14}) }
	ff := mustFCFS(mk(), 0, 1, Options{MaxStates: 40000})
	qf := mustFCFS(mk(), 0, 1, Options{MaxStates: 40000, Symmetry: true})
	if !ff.Holds || !qf.Holds {
		t.Fatalf("bounded bakery FCFS: full=%v reduced=%v, want both to hold", ff.Holds, qf.Holds)
	}
	if !qf.Symmetry {
		t.Fatal("pinned reduction not applied to bakery")
	}
}
