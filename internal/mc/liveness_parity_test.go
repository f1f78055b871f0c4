package mc

import (
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// This file pins the reduction-aware liveness pipeline's central contract:
// for every registered finite-state specification at N <= 4, the
// starvation, no-progress, and FCFS analyses return IDENTICAL verdicts on
// the full state space and on the symmetry-reduced quotient, sequentially
// and with -workers -1 — and every quotient counterexample lasso replays
// as a concrete execution, re-verified here step by step with independent
// successor generation. (Classic Bakery's unbounded graph cannot be built
// exhaustively, so it is swept on the bounded FCFS monitor only.)

// raceEnabled is set by race_enabled_test.go under the race detector; the
// heavy parity cell would take tens of minutes there.
var raceEnabled bool

type parityCell struct {
	algo  string
	cfg   specs.Config
	heavy bool // skipped with -short and under -race (full side explores >1M states)
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
// cycle, all mustMove pids moving, and the cycle closing on its orbit
// position (on its start state, on an unreduced graph).
func verifyStarvationLasso(t *testing.T, p *gcl.Prog, g *Graph, rep *StarvationReport,
	pred func(*gcl.Prog, gcl.State) bool, mustMove []int) {
	t.Helper()
	if rep.Quotient != g.Quotient() || len(rep.Cycle) == 0 {
		t.Fatalf("report (quotient %v) on a graph (quotient %v) without a verified cycle", rep.Quotient, g.Quotient())
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
	closes(t, p, g, start, end)
}

// closes requires a replayed cycle to end where it started: on the same
// state on an unreduced graph, on the same orbit position on a quotient.
func closes(t *testing.T, p *gcl.Prog, g *Graph, start, end gcl.State) {
	t.Helper()
	if !g.Quotient() && !end.Equal(start) {
		t.Fatal("replayed cycle does not return to its start state")
	}
	if !p.NormalizeCursors(end).Equal(p.NormalizeCursors(start)) {
		t.Fatal("replayed cycle does not close on its orbit position")
	}
}

// verifyNoProgressLasso is the analogue for no-progress reports: the
// replayed cycle must additionally take no cs-enter branch.
func verifyNoProgressLasso(t *testing.T, p *gcl.Prog, g *Graph, rep *NoProgressReport, mustMove []int) {
	t.Helper()
	if rep.Quotient != g.Quotient() || len(rep.Cycle) == 0 {
		t.Fatalf("report (quotient %v) on a graph (quotient %v) without a verified cycle", rep.Quotient, g.Quotient())
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
	closes(t, p, g, start, end)
}

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
			quot, err := BuildGraph(mk(), Options{Symmetry: true})
			if err != nil {
				t.Fatal(err)
			}
			quotPar, err := BuildGraph(mk(), Options{Symmetry: true, Workers: -1})
			if err != nil {
				t.Fatal(err)
			}
			if quot.Summary.States != quotPar.Summary.States ||
				quot.Summary.Transitions != quotPar.Summary.Transitions {
				t.Fatalf("quotient graph differs between engines: %d/%d vs %d/%d states/transitions",
					quot.Summary.States, quot.Summary.Transitions,
					quotPar.Summary.States, quotPar.Summary.Transitions)
			}
			wantQuotient := specs.Symmetric(cell.algo) && p.CanTrackPerms()
			if quot.Quotient() != wantQuotient {
				t.Fatalf("Quotient() = %v, want %v", quot.Quotient(), wantQuotient)
			}

			slow := p.N - 1
			mustMoveFast := make([]int, 0, p.N-1)
			for pid := 0; pid < p.N; pid++ {
				if pid != slow {
					mustMoveFast = append(mustMoveFast, pid)
				}
			}

			// Pinned starvation at the spec's declared gate label.
			if live.StarveAt != "" {
				li := p.LabelIndex(live.StarveAt)
				pred := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, slow) == li }
				fr := full.FindStarvation(pred, mustMoveFast)
				qr := quot.FindStarvation(pred, mustMoveFast)
				qpr := quotPar.FindStarvation(pred, mustMoveFast)
				if (fr == nil) != (qr == nil) || (qr == nil) != (qpr == nil) {
					t.Errorf("starvation@%s verdicts diverge: full=%v quotient=%v parallel=%v",
						live.StarveAt, fr != nil, qr != nil, qpr != nil)
				} else if qr != nil {
					verifyStarvationLasso(t, p, full, fr, pred, mustMoveFast)
					verifyStarvationLasso(t, p, quot, qr, pred, mustMoveFast)
				}
			}

			// Active starvation: the slow process keeps moving yet never
			// reaches cs (every spec declares a cs label).
			cs := p.LabelIndex("cs")
			activePred := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, slow) != cs }
			all := allPids(p.N)
			fr := full.FindStarvation(activePred, all)
			qr := quot.FindStarvation(activePred, all)
			qpr := quotPar.FindStarvation(activePred, all)
			if (fr == nil) != (qr == nil) || (qr == nil) != (qpr == nil) {
				t.Errorf("active-starvation verdicts diverge: full=%v quotient=%v parallel=%v",
					fr != nil, qr != nil, qpr != nil)
			} else if qr != nil {
				verifyStarvationLasso(t, p, full, fr, activePred, all)
				verifyStarvationLasso(t, p, quot, qr, activePred, all)
			}

			// Global no-progress.
			if live.NoProgress {
				fn := full.FindNoProgress(all)
				qn := quot.FindNoProgress(all)
				qpn := quotPar.FindNoProgress(all)
				if (fn == nil) != (qn == nil) || (qn == nil) != (qpn == nil) {
					t.Errorf("no-progress verdicts diverge: full=%v quotient=%v parallel=%v",
						fn != nil, qn != nil, qpn != nil)
				} else if qn != nil {
					verifyNoProgressLasso(t, p, full, fn, all)
					verifyNoProgressLasso(t, p, quot, qn, all)
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
