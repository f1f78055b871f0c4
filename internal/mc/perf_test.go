package mc

// Hot-path performance contract for parallel mode's pre-pass: once warmed
// up, expanding a chunk — successor generation, batched probe preparation,
// the direct store probes and the invariant pre-checks on misses — must run
// essentially allocation-free; it runs for every generated successor,
// millions of times per run.

import (
	"testing"

	"bakerypp/internal/specs"
)

// TestPrepassAllocFree pins the pre-pass's per-successor cost at ~0
// allocations: re-expanding a warmed chunk amortizes to less than a few
// hundredths of an allocation per successor (the residue is the per-chunk
// goroutine spawn and pprof label plumbing, paid once per thousands of
// successors).
func TestPrepassAllocFree(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	opts := Options{Workers: 2, Invariants: []Invariant{Mutex(), NoOverflow()}}
	plan, err := planFor(p, opts, SafetyAnalysis{})
	if err != nil {
		t.Fatal(err)
	}
	e := newExplorer(p, opts, plan)
	if e.pre == nil {
		t.Fatal("Workers: 2 built no pre-pass")
	}
	e.add(&e.wc, p.InitState(), -1, -1, crashLabelIdx)

	// Drive the real merge loop until the store holds a few thousand states
	// and at least a chunk's worth of heads is still queued.
	head := int32(0)
	for ; int(head) < e.numStates() && e.numStates()-int(head) < 1024; head++ {
		x := e.expansionOf(head)
		lo, hi := e.commit(x, e.depth[head])
		for i := lo; i < hi; i++ {
			e.addSucc(x, i, head)
		}
	}
	if e.numStates()-int(head) < 512 {
		t.Fatalf("state space too small to exercise the pre-pass: %d states, %d queued", e.numStates(), e.numStates()-int(head))
	}

	// Re-expanding queued heads is side-effect free (the pre-pass writes
	// only worker scratch and the chunk's records) and hits the
	// steady-state path once every buffer has its capacity. The queued
	// heads' successors mix store hits with misses, so both the probes and
	// the invariant pre-checks run.
	var succs, hits int
	sweep := func() {
		e.pre.expand(e, head, head+512)
		succs, hits = 0, 0
		for i := range e.pre.exps {
			x := &e.pre.exps[i]
			succs += len(x.succs)
			for _, s := range x.seen {
				if s >= 0 {
					hits++
				}
			}
		}
	}
	sweep() // warm remaining capacity
	if succs < 512 || hits == 0 || hits == succs {
		t.Fatalf("expected a dense mix of store hits and misses, got %d hits of %d successors", hits, succs)
	}
	avg := testing.AllocsPerRun(20, sweep)
	if perSucc := avg / float64(succs); perSucc > 0.05 {
		t.Errorf("pre-pass allocates %.3f objects per successor (%.1f per %d-successor chunk), want ~0",
			perSucc, avg, succs)
	}
}
