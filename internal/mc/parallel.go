package mc

// Parallel mode's expansion pre-pass. Check and BuildGraph each run one BFS
// loop that merges one head at a time (see explorer.expansionOf and the
// merge step in mc.go). With Options.Workers >= 2 the loop hands the next
// chunk of queued heads to a worker pool before merging them: the workers
// generate and batch-prepare every head's successors (the expensive,
// embarrassingly parallel part), probe the visited store directly, and
// evaluate the invariants on the successors the store does not hold yet.
// The merge then walks the pre-expanded heads in queue order exactly as it
// walks a sequentially expanded one, so state numbering, parents, edge
// order and stop conditions — and with them every downstream analysis —
// are identical for any worker count.
//
// The direct probes need no locks: between merges the store is read-only.
// The merge is the sole writer, and it never runs while the pool does (the
// pool is joined before the first pre-expanded head is merged). The exact
// in-heap store's lookup reads only its slot array and key slab; the other
// tiers synchronise their Lookup themselves. A probe's hit is final (the
// store never deletes), a miss is only advisory — an earlier merge in the
// same chunk may insert the state — so the merge re-probes misses.
//
// Profiling: the pool goroutines run under the runtime/pprof labels
// "mc-stage"=expand and "mc-worker"=<index>; see the Performance section of
// docs/model-checking.md.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

const (
	// maxChunk is how many queued heads one pre-pass covers: wide enough to
	// amortise the spawn/join cost over real work, narrow enough that a
	// bounded run (MaxStates, early violation stop) wastes at most one
	// chunk of speculative expansion.
	maxChunk = 4096
	// minChunk is the narrowest queue the pre-pass takes on; below it (the
	// first few BFS levels) heads are expanded one at a time, as in
	// sequential mode.
	minChunk = 64
)

// prepass is parallel mode's worker pool state: one expansion context per
// worker and the records of the chunk of heads [lo, hi) expanded last.
type prepass struct {
	wcs    []wctx
	exps   []expansion
	lo, hi int32
}

// newPrepass returns the pre-pass for Options.Workers, or nil when the run
// is sequential (Workers <= 1 once -1 has become GOMAXPROCS).
func newPrepass(e *explorer) *prepass {
	w := e.opts.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 2 {
		return nil
	}
	pp := &prepass{wcs: make([]wctx, w)}
	if e.plan.Symmetry || e.plan.TrackPerms {
		for i := range pp.wcs {
			pp.wcs[i].canon = e.p.NewCanonicalizer()
		}
	}
	return pp
}

// expand pre-expands heads [lo, hi) on the pool. Workers claim batches of
// heads through an atomic cursor (batching keeps the cursor off the hot
// path) and write only their own expansion context and the records of the
// heads they claimed. Every record is complete when expand returns.
func (pp *prepass) expand(e *explorer, lo, hi int32) {
	n := int(hi - lo)
	if cap(pp.exps) < n {
		pp.exps = make([]expansion, n)
	}
	pp.exps, pp.lo, pp.hi = pp.exps[:n], lo, hi
	// Chunk boundary: the previous chunk is fully merged (fresh states and
	// keys were copied out), so every worker's scratch can be recycled.
	for i := range pp.wcs {
		w := &pp.wcs[i]
		w.buf.Reset()
		w.slab.Reset()
		w.preps, w.seen, w.violated = w.preps[:0], w.seen[:0], w.violated[:0]
	}
	workers := min(len(pp.wcs), n)
	batch := min(max(n/(workers*4), 1), 64)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(w *wctx, label string) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("mc-stage", "expand", "mc-worker", label), func(context.Context) {
				for {
					end := cursor.Add(int64(batch))
					start := end - int64(batch)
					if start >= int64(n) {
						return
					}
					for i := start; i < min(end, int64(n)); i++ {
						e.expandAhead(lo+int32(i), &pp.exps[i], w)
					}
				}
			})
		}(&pp.wcs[wi], strconv.Itoa(wi))
	}
	wg.Wait()
}

// expandAhead is one worker's expansion of head into x: successors, every
// probe prepared, and the advisory verdicts — the store's answer for each
// successor, and for each one it misses the index of the first invariant
// the successor breaks (-1 if none). The per-successor arrays are carved
// from the worker's scratch; a later head's growth may move that scratch,
// but x keeps the backing array it was filled in, which nothing writes
// again before the next chunk.
func (e *explorer) expandAhead(head int32, x *expansion, w *wctx) {
	e.expandInto(head, x, w)
	n := len(x.succs)
	base := len(w.preps)
	w.preps = grow(w.preps, base+n)
	w.seen = grow(w.seen, base+n)
	w.violated = grow(w.violated, base+n)
	x.preps = w.preps[base : base+n : base+n]
	x.seen = w.seen[base : base+n : base+n]
	x.violated = w.violated[base : base+n : base+n]
	x.ahead = true
	e.prepSuccs(w, x.succs, x.preps)
	for i := range x.preps {
		pr := &x.preps[i]
		idx, ok := e.store.Lookup(pr.fp, pr.key)
		x.seen[i], x.violated[i] = -1, -1
		if ok {
			x.seen[i] = idx
		} else {
			x.violated[i] = e.checkInvariants(x.succs[i].State)
		}
	}
}
