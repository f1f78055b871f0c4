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

// TestPrepassMemoryBound pins the pre-pass's documented memory bound: each
// of the two chunk buffers holds maxChunk head slots and expansion records,
// and each of its workers' scratch holds at most one chunk's successor and
// probe records (workers claim heads dynamically, so one worker can take
// nearly a whole chunk, but never more). It drives a two-worker check of
// bakery N=4 M=4 through the real merge loop to its overflow violation —
// 197,655 states, about 190 chunks, most of them full — so a growth path
// that never resets, or a chunk wider than maxChunk, fails it.
func TestPrepassMemoryBound(t *testing.T) {
	p := specs.Bakery(specs.Config{N: 4, M: 4})
	opts := Options{Workers: 2, Invariants: []Invariant{Mutex(), NoOverflow()}}
	plan, err := planFor(p, opts, SafetyAnalysis{Invariants: opts.Invariants})
	if err != nil {
		t.Fatal(err)
	}
	e := newExplorer(p, opts, plan)
	if e.pre == nil {
		t.Fatal("Workers: 2 built no pre-pass")
	}
	defer e.join()
	e.addInit(p.InitState())
	full, violated := 0, false
	for head := int32(0); !violated && int(head) < e.numStates(); head++ {
		x := e.expansionOf(head)
		if head == e.pre.cur.lo && e.pre.cur.hi-e.pre.cur.lo == maxChunk {
			full++
		}
		lo, hi := e.commit(x, e.depthOf(head))
		for i := lo; i < hi && !violated; i++ {
			_, fresh := e.addSucc(x, i, head)
			violated = fresh && e.checkInvariants(x.succs[i].State) >= 0
		}
	}
	if n := e.numStates(); !violated || n != 197655 {
		t.Fatalf("stopped at %d states (violation %v), want the overflow at 197655", n, violated)
	}
	// TestEarlyStopJoinsChunkInFlight's bakery N=4 M=4 case relies on this.
	if !e.pre.busy || e.pre.next.hi-e.pre.next.lo != maxChunk {
		t.Errorf("no full chunk in flight at the violation (busy %v, %d heads)", e.pre.busy, e.pre.next.hi-e.pre.next.lo)
	}
	e.join()
	if full < 100 {
		t.Fatalf("only %d full chunks were merged; the bound is not exercised", full)
	}

	// A head's successors come from at most every branch of its label, for
	// each process.
	branches := 0
	for li := range p.Labels() {
		branches = max(branches, p.NumBranchesAt(li))
	}
	perHead := p.N * branches
	for bi, c := range []*chunk{e.pre.cur, e.pre.next} {
		if len(c.heads) != maxChunk || cap(c.heads) != maxChunk || len(c.exps) != maxChunk || cap(c.exps) != maxChunk {
			t.Errorf("buffer %d: %d/%d head slots and %d/%d records (len/cap), want %d", bi,
				len(c.heads), cap(c.heads), len(c.exps), cap(c.exps), maxChunk)
		}
		for wi := range c.wcs {
			w := &c.wcs[wi]
			succs, preps := cap(w.buf.Succs()), cap(w.preps)
			if succs > maxChunk*perHead || preps > maxChunk*perHead {
				t.Errorf("buffer %d worker %d: %d successor and %d probe records, bound %d (maxChunk %d × %d successors per head)",
					bi, wi, succs, preps, maxChunk*perHead, maxChunk, perHead)
			}
		}
	}
}
