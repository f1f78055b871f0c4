package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"bakerypp/internal/gcl"
	"bakerypp/internal/mc"
	"bakerypp/internal/specs"
)

// cell is one model-checking input: a specification, its size, and the
// verdict and counts a correct engine reports for it. The counts are the
// same for every worker count (the engines number states identically).
type cell struct {
	algo string
	cfg  specs.Config
	want expect
	prog *gcl.Prog
}

type expect struct {
	verdict                    string
	states, transitions, depth int
}

func (c *cell) String() string {
	return fmt.Sprintf("%s-n%d-m%d", c.algo, c.cfg.N, c.cfg.M)
}

// fullCells are the unreduced safety checks: mid-size state spaces (35k to
// 200k states, 40 to 300 ms each) so a round is under a second and a run
// holds a dozen rounds, covering both verdicts the paper is about —
// Bakery++ and Black-White verified, classic Bakery overflowing, the
// modulo strawman breaking mutual exclusion. Bakery++ N=4 M=2 (1.6M states)
// is left out: one check takes two seconds and 300 MB.
func fullCells() []*cell {
	return []*cell{
		{algo: "bakerypp", cfg: specs.Config{N: 3, M: 4}, want: expect{"verified", 87724, 239392, 96}},
		{algo: "bakerypp", cfg: specs.Config{N: 3, M: 6}, want: expect{"verified", 138756, 379972, 136}},
		{algo: "blackwhite", cfg: specs.Config{N: 3}, want: expect{"verified", 167236, 466014, 101}},
		{algo: "bakery", cfg: specs.Config{N: 4, M: 4}, want: expect{"violation:no-overflow", 197655, 666985, 33}},
		{algo: "modbakery", cfg: specs.Config{N: 3, M: 3}, want: expect{"violation:mutual-exclusion", 35132, 96398, 55}},
	}
}

// reducedCells are checked under symmetry + partial-order reduction, where
// canonicalization dominates: the larger process counts the reductions
// exist for, with the same verdict mix.
func reducedCells() []*cell {
	return []*cell{
		{algo: "bakerypp", cfg: specs.Config{N: 5, M: 2}, want: expect{"verified", 25413, 97715, 58}},
		{algo: "bakerypp", cfg: specs.Config{N: 5, M: 3}, want: expect{"verified", 83745, 318940, 75}},
		{algo: "bakerypp", cfg: specs.Config{N: 4, M: 4}, want: expect{"verified", 34956, 110872, 78}},
		{algo: "bakery", cfg: specs.Config{N: 5, M: 5}, want: expect{"violation:no-overflow", 5601, 20411, 25}},
		{algo: "modbakery", cfg: specs.Config{N: 4, M: 3}, want: expect{"violation:mutual-exclusion", 3949, 11552, 30}},
	}
}

type mcBench struct {
	cells   []*cell
	workers int
	reduced bool
}

func newMCBench(cells []*cell, workers int, reduced bool) (bench, error) {
	for _, c := range cells {
		p, err := specs.Get(c.algo, c.cfg)
		if err != nil {
			return nil, err
		}
		c.prog = p
	}
	return &mcBench{cells: cells, workers: workers, reduced: reduced}, nil
}

func (b *mcBench) round(rng *rand.Rand) []op {
	ops := make([]op, len(b.cells))
	for i, ci := range rng.Perm(len(b.cells)) {
		c := b.cells[ci]
		ops[i] = op{name: c.String(), run: func(tr *tracer, span int) (int64, error) {
			return b.check(c, tr, span)
		}}
	}
	return ops
}

func invariants() []mc.Invariant { return []mc.Invariant{mc.Mutex(), mc.NoOverflow()} }

func (b *mcBench) check(c *cell, tr *tracer, parent int) (int64, error) {
	span := tr.begin("mc.Check", parent)
	res := mc.Check(c.prog, mc.Options{
		Invariants: invariants(),
		Workers:    b.workers,
		Symmetry:   b.reduced,
		POR:        b.reduced,
	})
	tr.end(span)
	if got := (expect{verdictOf(res), res.States, res.Transitions, res.Depth}); got != c.want {
		return int64(res.States), fmt.Errorf("got %+v, want %+v", got, c.want)
	}
	if b.reduced && !(res.Symmetry && res.POR) {
		return int64(res.States), fmt.Errorf("reductions not applied (symmetry %v, por %v)", res.Symmetry, res.POR)
	}
	if res.Violation != nil {
		span := tr.begin("check.counterexample", parent)
		err := replayCounterexample(c.prog, res.Violation)
		tr.end(span)
		if err != nil {
			return int64(res.States), err
		}
	}
	return int64(res.States), nil
}

func verdictOf(r *mc.Result) string {
	switch {
	case r.Violation != nil:
		return "violation:" + r.Violation.Invariant
	case r.Deadlock != nil:
		return "deadlock"
	case !r.Complete:
		return "incomplete"
	}
	return "verified"
}

// replayCounterexample checks a reported violation independently of the
// engine: the trace starts at the initial state, each step is a successor
// the program allows, and the last state breaks the named invariant.
func replayCounterexample(p *gcl.Prog, v *mc.Violation) error {
	cur := p.InitState()
	if !v.Trace.Init.Equal(cur) {
		return fmt.Errorf("counterexample does not start at the initial state")
	}
	for i, st := range v.Trace.Steps {
		ok := false
		for _, sc := range p.Succs(cur, st.Pid, gcl.ModeUnbounded, nil) {
			if sc.State.Equal(st.State) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("counterexample step %d (p%d:%s) is not a successor", i+1, st.Pid, st.Label)
		}
		cur = st.State
	}
	for _, inv := range invariants() {
		if inv.Name == v.Invariant {
			if inv.Holds(p, cur) {
				return fmt.Errorf("counterexample ends in a state satisfying %s", v.Invariant)
			}
			return nil
		}
	}
	return fmt.Errorf("counterexample names unknown invariant %q", v.Invariant)
}

// finish has nothing left to check: every check was compared against its
// expected counts as it ran.
func (b *mcBench) finish(*tracer, int) error { return nil }

// sampleCap bounds the states each cell's layer pass replays.
const sampleCap = 40000

// layerBlock is how many states one block of the layer pass covers; a
// span per layer per block keeps timer overhead far below the work timed.
const layerBlock = 256

// layers replays, on a breadth-first sample of each cell's reachable
// states, the per-state work the engine does — successor generation, the
// store-probe key (fingerprint, or canonicalize + fingerprint when
// reduced) and invariant evaluation — with a span around each layer's share
// of every block. The engine time those layers do not account for is the
// store probe/insert, BFS bookkeeping, merge and (with workers) routing.
func (b *mcBench) layers(tr *tracer, root int, rounds []roundStats) (map[string]float64, error) {
	walls := byName(rounds, func(o opStats) float64 { return float64(o.wall) })
	var states, trans, engineNs, succNs, keyNs, invNs float64
	for _, c := range b.cells {
		parent := tr.begin("layers:"+c.String(), root)
		n, succs := b.layerPass(tr, parent, c)
		tr.end(parent)
		perState := func(name string) float64 { return float64(tr.busy(name, parent)) / float64(n) }
		s, t := float64(c.want.states), float64(c.want.transitions)
		states += s
		trans += t
		engineNs += median(walls[c.String()])
		succNs += s * perState("gcl.succs")
		keyNs += t * float64(tr.busy("gcl.key", parent)) / float64(succs)
		invNs += s * perState("mc.invariants")
	}
	return map[string]float64{
		"mc_states_per_round":    states,
		"mc_succs_per_state":     trans / states,
		"mc_fresh_pct":           100 * states / trans,
		"mc_engine_ns_per_state": engineNs / states,
		"gcl_succ_ns_per_state":  succNs / states,
		"gcl_key_ns_per_succ":    keyNs / trans,
		"mc_inv_ns_per_state":    invNs / states,
		"mc_rest_ns_per_state":   (engineNs - succNs - keyNs - invNs) / states,
	}, nil
}

// layerPass returns the number of sampled states and the successors
// generated from them.
func (b *mcBench) layerPass(tr *tracer, parent int, c *cell) (n, succs int) {
	p := c.prog
	sample := sampleStates(p, sampleCap)
	// Collect the timed rounds' garbage now, not during the timed blocks.
	runtime.GC()
	var (
		buf   gcl.SuccBuf
		fps   []uint64
		slab  gcl.KeySlab
		canon *gcl.Canonicalizer
	)
	if b.reduced && p.CanCanonicalize() {
		canon = p.NewCanonicalizer()
	}
	invs := invariants()
	for lo := 0; lo < len(sample); lo += layerBlock {
		blk := sample[lo:min(lo+layerBlock, len(sample))]
		buf.Reset()
		span := tr.begin("gcl.succs", parent)
		for _, s := range blk {
			p.AllSuccsInto(s, gcl.ModeUnbounded, &buf)
		}
		tr.end(span)
		ss := buf.Succs()
		succs += len(ss)
		span = tr.begin("gcl.key", parent)
		if canon != nil {
			slab.Reset()
			canon.CanonicalizeBatch(ss, &slab)
		} else {
			fps = gcl.FingerprintSuccs(ss, fps)
		}
		tr.end(span)
		span = tr.begin("mc.invariants", parent)
		for _, s := range blk {
			for _, inv := range invs {
				inv.Holds(p, s)
			}
		}
		tr.end(span)
	}
	return len(sample), succs
}

// sampleStates explores p breadth-first from its initial state, without
// reductions, and returns up to limit distinct reachable states.
func sampleStates(p *gcl.Prog, limit int) []gcl.State {
	init := p.InitState()
	seen := map[uint64]bool{init.Fingerprint(): true}
	out := []gcl.State{init}
	var buf gcl.SuccBuf
	for i := 0; i < len(out) && len(out) < limit; i++ {
		buf.Reset()
		p.AllSuccsInto(out[i], gcl.ModeUnbounded, &buf)
		for _, sc := range buf.Succs() {
			fp := sc.State.Fingerprint()
			if !seen[fp] && len(out) < limit {
				seen[fp] = true
				out = append(out, p.Clone(sc.State))
			}
		}
	}
	return out
}
