package mc

// Hot-path performance contract for parallel mode's pre-pass: once warmed
// up, expanding a chunk — successor generation and batched probe
// preparation — must run essentially allocation-free; it runs for every generated successor, millions of times
// per run.

import (
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// TestPrepassAllocFree pins the pre-pass's per-successor cost at ~0
// allocations: relaunching a warmed chunk buffer on the pool and joining it
// amortizes to less than a few hundredths of an allocation per successor
// (the residue is the per-chunk goroutine spawn, paid once per thousands
// of successors).
func TestPrepassAllocFree(t *testing.T) {
	// The symmetric cell also decodes every head from its slab entry into
	// the chunk's scratch at launch.
	for _, cell := range []struct {
		cfg specs.Config
		sym bool
	}{{specs.Config{N: 3, M: 2}, false}, {specs.Config{N: 5, M: 2}, true}} {
		t.Run(fmt.Sprintf("n%d-m%d-symmetry=%v", cell.cfg.N, cell.cfg.M, cell.sym), func(t *testing.T) {
			testPrepassAllocFree(t, specs.BakeryPP(cell.cfg), cell.sym)
		})
	}
}

func testPrepassAllocFree(t *testing.T, p *gcl.Prog, sym bool) {
	opts := Options{Workers: 2, Symmetry: sym, Invariants: []Invariant{Mutex(), NoOverflow()}}
	plan, err := planFor(p, opts, SafetyAnalysis{})
	if err != nil {
		t.Fatal(err)
	}
	e := newExplorer(p, opts, plan)
	if e.pre == nil {
		t.Fatal("Workers: 2 built no pre-pass")
	}
	defer e.join()
	e.addInit(p.InitState())

	// Drive the real pipelined merge loop until the store holds a few
	// thousand states and at least a chunk's worth of heads is still
	// queued.
	head := int32(0)
	for ; int(head) < e.numStates() && e.numStates()-int(head) < 1024; head++ {
		x := e.expansionOf(head)
		lo, hi := e.commit(x, e.depthOf(head))
		for i := lo; i < hi; i++ {
			e.addSucc(x, i, head)
		}
	}
	if e.numStates()-int(head) < 512 {
		t.Fatalf("state space too small to exercise the pre-pass: %d states, %d queued", e.numStates(), e.numStates()-int(head))
	}
	e.join()

	// Relaunching the buffer the pipeline launches into is side-effect
	// free (a chunk writes only its workers' scratch and its records) and
	// hits the steady-state path once every buffer has its capacity.
	var succs int
	sweep := func() {
		e.pre.launch(e, head, head+512)
		e.pre.join()
		succs = 0
		for i := range 512 {
			x := &e.pre.next.exps[i]
			if !x.ahead || len(x.preps) != len(x.succs) {
				t.Fatalf("head %d: record not fully pre-expanded", head+int32(i))
			}
			succs += len(x.succs)
		}
	}
	sweep() // warm remaining capacity
	if succs < 512 {
		t.Fatalf("expected a dense chunk, got %d successors of 512 heads", succs)
	}
	avg := testing.AllocsPerRun(20, sweep)
	if perSucc := avg / float64(succs); perSucc > 0.05 {
		t.Errorf("pre-pass allocates %.3f objects per successor (%.1f per %d-successor chunk), want ~0",
			perSucc, avg, succs)
	}
}
